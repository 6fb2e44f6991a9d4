"""Command-line surface.

Subcommands: enumerate, stats, sigma, table, distribution, avoiders,
verify. Every subcommand takes --format text|json; partition-valued
text is compact whenever every entry is <= 9 and in the comma form
otherwise. Results go to stdout, diagnostics to stderr. Exit codes: 0
success, 1 usage or input error or stdout closed early (as by
`partinv enumerate 10 | head -1`), 2 verification failure. main decides
every one of them except verify's 2: it maps argparse's exits (0 after
--help, 2 on a usage error) to 0 and 1.

Every JSON document is the bytes of one json.dumps(payload, indent=2)
and a newline. Those of enumerate and table are written one entry (a
partition, a row) at a time by _stream_json, so neither holds its list;
the others are printed whole.
"""

import argparse
import json
import os
import sys
from collections import Counter

from .errors import PartinvError
from .involution import sigma
from .partitions import (
    DEFAULT_MAX_N,
    enumerate_all,
    enumerate_nonoverlapping,
    format_partition,
    is_nonoverlapping,
    parse,
)
from .patterns import AVOIDER_MAX_N, avoider_last_entry_distribution
from .recurrence import TRIANGLE_MAX_N, v_table
from .stats import aux_r, aux_s, stat_x, stat_y
from .verify import run_all


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _stream_json(payload, key, entries) -> None:
    """Write json.dumps(payload, indent=2) and a newline, with the list
    payload[key], empty in payload, filled from entries one at a time. Each
    entry is the text json.dumps(indent=2) writes for one element of that
    list, so its later lines are indented four spaces more than its own
    dump's. entries is not empty, as json.dumps writes an empty list as []."""
    opening = json.dumps(key) + ": ["
    head, tail = json.dumps(payload, indent=2).split(opening + "]")
    write = sys.stdout.write
    write(head + opening)
    sep = "\n    "
    for entry in entries:
        write(sep + entry)
        sep = ",\n    "
    write("\n  ]" + tail + "\n")


def _partition_entry(p) -> str:
    """The text of p.to_json() as an entry of _stream_json: integers need
    no escaping."""
    return ('{\n      "blocks": [\n        [\n          '
            + "\n        ],\n        [\n          ".join([",\n          ".join(map(str, b)) for b in p.blocks])
            + "\n        ]\n      ]\n    }")


def cmd_enumerate(args) -> int:
    gen = enumerate_nonoverlapping if args.nonoverlapping else enumerate_all
    if args.format == "json":
        # the count comes from a first pass, so neither the partitions nor
        # the text are held; n >= 1, so there is at least one partition
        count = sum(1 for _ in gen(args.n, max_n=args.max_n))
        _stream_json({"n": args.n, "nonoverlapping": args.nonoverlapping, "count": count, "partitions": []},
                     "partitions", map(_partition_entry, gen(args.n, max_n=args.max_n)))
    else:
        for p in gen(args.n, max_n=args.max_n):
            print(format_partition(p))
    return 0


def cmd_stats(args) -> int:
    p = parse(args.partition)
    # both formats read the fields from here, keyed by their text labels;
    # r and s are None when undefined: null in JSON, left out of the text
    fields = {"n": p.n, "X": stat_x(p), "Y": stat_y(p), "r": aux_r(p), "s": aux_s(p)}
    spans = [[b[-1], b[0]] for b in p.blocks]
    nonov = is_nonoverlapping(p)
    if args.format == "json":
        _emit_json({"partition": p.to_json(), **{label.lower(): v for label, v in fields.items()},
                    "spans": spans, "nonoverlapping": nonov})
    else:
        print(f"partition: {format_partition(p)}")
        for label, v in fields.items():
            if v is not None:
                print(f"{label}: {v}")
        print("spans: " + " ".join(f"[{lo},{hi}]" for lo, hi in spans))
        print(f"nonoverlapping: {str(nonov).lower()}")
    return 0


def cmd_sigma(args) -> int:
    p = parse(args.partition)
    image = sigma(p)
    x, y = stat_x(p), stat_y(p)
    orbit = "fixed" if x == y else "lower" if x < y else "upper"
    if args.format == "json":
        _emit_json({
            "input": p.to_json(),
            "image": image.to_json(),
            "image_text": format_partition(image),
            "orbit": orbit,
        })
    else:
        print(format_partition(image))
        print(f"orbit: {orbit}")
    return 0


def cmd_table(args) -> int:
    table = v_table(args.n_max, max_n=args.max_n)
    n_max = len(table)
    sums = [sum(row) for row in table]
    if args.format == "json":
        # decimal strings need no escaping, and n_max >= 1, so there is a row
        _stream_json({"n_max": n_max, "rows": [], "row_sums": list(map(str, sums))}, "rows",
                     ('[\n      "' + '",\n      "'.join(map(str, row)) + '"\n    ]' for row in table))
        return 0
    label_w = max(3, len(str(n_max)))
    # no column of the triangle decreases going down, and the row sums
    # increase, so the last row and the last sum are the widest
    col_w = [max(len(str(k)), len(str(table[-1][k - 1]))) for k in range(1, n_max + 1)]
    print("n\\k".rjust(label_w) + "".join(f"  {k:>{w}}" for k, w in enumerate(col_w, start=1)))
    for n, row in enumerate(table, start=1):
        print(f"{n:>{label_w}}" + "".join(f"  {v:>{w}}" for v, w in zip(row, col_w)))
    print()
    print("row sums")
    sum_w = len(str(sums[-1]))
    for n, total in enumerate(sums, start=1):
        print(f"{n:>{label_w}}  {total:>{sum_w}}")
    return 0


def cmd_distribution(args) -> int:
    gen = enumerate_nonoverlapping if args.nonoverlapping else enumerate_all
    key = {"x": lambda p: (stat_x(p),),
           "y": lambda p: (stat_y(p),),
           "joint": lambda p: (stat_x(p), stat_y(p))}[args.stat]
    # one cell [value..., count] per value of the statistic, by value
    counts = Counter(map(key, gen(args.n, max_n=args.max_n)))
    cells = [[*k, c] for k, c in sorted(counts.items())]
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "stat": args.stat,
            "nonoverlapping": args.nonoverlapping,
            "counts": cells,
        })
    else:
        for row in cells:
            print(" ".join(map(str, row)))
    return 0


def cmd_avoiders(args) -> int:
    dist = avoider_last_entry_distribution(args.n, max_n=args.max_n)
    total = sum(dist.values())
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "count": total,
            "last_entry_distribution": [[k, dist[k]] for k in sorted(dist)],
        })
    else:
        print(f"count {total}")
        for k in sorted(dist):
            print(f"{k} {dist[k]}")
    return 0


def cmd_verify(args) -> int:
    reports = run_all(args.max_n)
    failed = [r for r in reports if not r.ok]
    if args.format == "json":
        _emit_json({
            "ok": not failed,
            "checks": [r.to_json() for r in reports],
        })
    else:
        for r in reports:
            print(r.summary())
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    # later 3.12 and 3.13 releases join the choices with str, not repr; this keeps repr on every release
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {', '.join(map(repr, action.choices))})")


def build_parser() -> argparse.ArgumentParser:
    # max_help_position=16 holds the subcommand help where 3.10-3.12 put it; 3.13 moves it to column 18
    parser = _Parser(prog="partinv",
                     description="Set-partition statistics, the X/Y-swapping involution, "
                                 "the v-triangle, and brute-force verification.",
                     formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=16))
    # add_subparsers builds each subcommand parser from type(parser), so from _Parser too
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, func, max_n_help=None, max_n=None):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
        if max_n_help:
            p.add_argument("--max-n", type=int, default=max_n, metavar="N",
                           help=max_n_help)
        p.set_defaults(func=func)

    p = sub.add_parser("enumerate", help="list the partitions of [n]")
    p.add_argument("n", type=int)
    p.add_argument("--nonoverlapping", action="store_true",
                   help="only nonoverlapping partitions")
    common(p, cmd_enumerate, "enumeration guard override (default %(default)s)", DEFAULT_MAX_N)

    p = sub.add_parser("stats", help="X, Y, r, s, spans and the nonoverlapping flag")
    p.add_argument("partition", help="partition text, e.g. '3/4/7/852/961'")
    common(p, cmd_stats)

    p = sub.add_parser("sigma", help="apply the involution")
    p.add_argument("partition", help="partition text, e.g. '2/431'")
    common(p, cmd_sigma)

    p = sub.add_parser("table", help="the v-triangle and its row sums")
    p.add_argument("n_max", type=int)
    common(p, cmd_table, "triangle guard override (default %(default)s)", TRIANGLE_MAX_N)

    p = sub.add_parser("distribution", help="X/Y/joint statistic counts over partitions of [n]")
    p.add_argument("n", type=int)
    p.add_argument("--stat", choices=("x", "y", "joint"), default="joint", type=str.lower)
    p.add_argument("--nonoverlapping", action="store_true",
                   help="restrict to nonoverlapping partitions")
    common(p, cmd_distribution, "enumeration guard override (default %(default)s)", DEFAULT_MAX_N)

    p = sub.add_parser("avoiders", help="pattern-avoider count and last-entry distribution")
    p.add_argument("n", type=int)
    common(p, cmd_avoiders, "avoider guard override (default %(default)s)", AVOIDER_MAX_N)

    p = sub.add_parser("verify", help="run every exhaustive check")
    common(p, cmd_verify, f"run all checks to this depth (at most {DEFAULT_MAX_N}) instead of their defaults")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, in the
        # parent parser and in every subparser; the contract wants 0 and 1
        return 1 if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except PartinvError as exc:
        print(f"partinv: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the flush at exit
        # cannot raise again (Python's documented SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
