"""One benchmark step in a fresh interpreter; prints one JSON line.

    python3 bench/child.py probe                  import partinv, nothing else
    python3 bench/child.py run WORKLOAD [SIZE]    one untraced workload iteration
    python3 bench/child.py trace WORKLOAD [SIZE]  the workload's traced replay

partinv is imported first, so `imported_at` (time.monotonic, which is
comparable across processes) marks when the import returned. `kernel_s`,
the reference kernel's time right after it, gives the speed the set-up ran
at. SIZE shrinks the workload for smoke tests.
"""

import json
import resource
import sys
import time

import partinv

imported_at = time.monotonic()

import gauge  # noqa: E402

kernel_s = gauge.kernel_s()


def main(argv: list[str]) -> None:
    mode, *rest = argv
    out = {"imported_at": imported_at, "kernel_s": kernel_s, "partinv_file": partinv.__file__}
    if mode in ("run", "trace"):
        workload, *size = rest
        size = [int(s) for s in size]
        if mode == "run":
            import workloads
            out.update(workloads.WORKLOADS[workload](*size)._asdict())
        else:
            import layers
            out.update(layers.TRACES[workload](*size))
    elif mode != "probe":
        raise SystemExit(f"unknown mode {mode!r}")
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
