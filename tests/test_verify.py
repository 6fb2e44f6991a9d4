"""The verification harness: passing runs, report shape, determinism, and
sensitivity to deliberately broken involutions, and the shared sweep
that the four claims over all of P_n run in."""

import ast
import inspect
from collections import Counter
from itertools import count
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partinv.patterns as patterns
import partinv.verify as verify
from partinv import (
    ALL_CHECKS,
    BoundError,
    SetPartition,
    ValidationError,
    check_avoiders_match_v,
    check_equidistribution,
    check_involution,
    check_nonoverlapping,
    check_spans,
    check_y_matches_v,
    enumerate_all,
    is_nonoverlapping,
    parse,
    run_all,
    sigma,
    stat_x,
    stat_y,
)
from partinv.partitions import laminar, nonsingleton_spans
from partinv.verify import Counterexample
from oracles import (asymmetry_by_counter, equidistribution_by_loop, involution_by_loop, nonoverlapping_by_loop,
                     perturbed_sigmas, skip_transfer_mutant, spans_by_loop, xy_multisets)


ALL_AT_SIX = [
    check_involution,
    check_spans,
    check_nonoverlapping,
    check_equidistribution,
    check_y_matches_v,
    check_avoiders_match_v,
]


def raise_triangle_cell(monkeypatch, cell):
    """Make the v_table that verify reads one more at cell (n, k), if any."""
    v_table = verify.v_table
    monkeypatch.setattr(verify, "v_table", lambda n_max: tuple(
        tuple(v + ((n, k) == cell) for k, v in enumerate(row, start=1))
        for n, row in enumerate(v_table(n_max), start=1)))


@pytest.mark.parametrize("check", ALL_AT_SIX)
def test_passes_at_small_depth(check):
    t0 = perf_counter()
    report = check(6)
    wall = perf_counter() - t0
    assert report.ok
    assert report.status == "pass"
    assert report.counterexample is None
    assert report.n_range == (1, 6)
    assert 0 <= report.elapsed <= wall


def test_equidistribution_trivial_depth():
    assert check_equidistribution(1).ok


def test_spans_counterexample_lists_spans_by_lo():
    # the sweep reads 32/41's spans by hi, [(2, 3), (1, 4)]; its report sorts them by lo
    broken = parse("32/41")
    report = check_spans(4, sigma_fn=lambda p: parse("1/2/3/4") if p == broken else sigma(p))
    assert report.counterexample == Counterexample(
        4, "32/41", "non-singleton span multiset preserved", "[(1, 4), (2, 3)]", "[]")


def test_summary_format():
    report = check_involution(4)
    assert report.summary() == f"PASS involution n=1..4 ({report.elapsed:.2f}s)"


def test_to_json_deterministic_modulo_elapsed():
    first = check_spans(5).to_json()
    second = check_spans(5).to_json()
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second
    assert first == {
        "check": "spans",
        "n_range": [1, 5],
        "status": "pass",
        "counterexample": None,
    }


class TestRecords:
    """Counterexample and CheckReport are immutable named tuples: they
    serialise, read and refuse assignment as the frozen records before
    them did, and unpack and compare as plain tuples of their fields."""

    C = Counterexample(3, "321", "X/Y interchange", "image with X=2, Y=3", "321 with X=3, Y=2")
    PASS = verify.CheckReport("spans", (1, 5), None, 0.1234567)
    FAIL = verify.CheckReport("involution", (1, 5), C, 1.5)

    def test_counterexample_to_json(self):
        payload = self.C.to_json()
        assert payload == {"n": 3, "item": "321", "claim": "X/Y interchange",
                           "expected": "image with X=2, Y=3", "actual": "321 with X=3, Y=2"}
        assert list(payload) == ["n", "item", "claim", "expected", "actual"]
        assert type(payload) is dict

    def test_report_to_json(self):
        assert self.PASS.to_json() == {"check": "spans", "n_range": [1, 5], "status": "pass",
                                       "counterexample": None, "elapsed_seconds": 0.123457}
        assert self.FAIL.to_json() == {"check": "involution", "n_range": [1, 5], "status": "fail",
                                       "counterexample": self.C.to_json(), "elapsed_seconds": 1.5}
        assert list(self.FAIL.to_json()) == ["check", "n_range", "status", "counterexample", "elapsed_seconds"]

    def test_status_and_summary(self):
        assert (self.PASS.ok, self.PASS.status) == (True, "pass")
        assert (self.FAIL.ok, self.FAIL.status) == (False, "fail")
        assert self.PASS.summary() == "PASS spans n=1..5 (0.12s)"
        assert self.FAIL.summary() == (
            "FAIL involution n=1..5 (1.50s)"
            "\n     counterexample at n=3: 321"
            "\n     violated: X/Y interchange; expected image with X=2, Y=3, got 321 with X=3, Y=2")

    @pytest.mark.parametrize("record, field", [
        (C, "n"), (C, "item"), (C, "actual"), (C, "extra"),
        (PASS, "check_name"), (PASS, "counterexample"), (PASS, "elapsed"), (PASS, "ok"), (PASS, "status"),
    ])
    def test_assignment_is_refused(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_unpacks_and_equals_plain_tuples(self):
        n, item, claim, expected, actual = self.C
        assert (n, item, claim, expected, actual) == tuple(self.C) == self.C
        assert self.FAIL == ("involution", (1, 5), self.C, 1.5)
        assert verify.CheckReport(check_name="spans", n_range=(1, 5), counterexample=None,
                                  elapsed=0.1234567) == self.PASS
        assert hash(self.C) == hash(tuple(self.C))


def test_run_all_names_and_order():
    reports = run_all(4)
    assert [r.check_name for r in reports] == [name for name, _ in ALL_CHECKS]
    assert all(r.ok for r in reports)


def test_run_all_uses_per_check_defaults(monkeypatch):
    monkeypatch.setattr(verify, "DEFAULT_LIMITS", {
        "involution": 3,
        "spans": 4,
        "nonoverlapping": 5,
        "equidistribution": 3,
        "y_matches_v": 4,
        "avoiders_match_v": 5,
    })
    reports = verify.run_all()
    assert [r.n_range[1] for r in reports] == [3, 4, 5, 3, 4, 5]


@pytest.mark.parametrize("n_max_override, depth, y_depth", [(None, 10, 11), (4, 4, 4)])
def test_run_all_sweeps_every_claim_to_one_depth(monkeypatch, n_max_override, depth, y_depth):
    # all four claims are then live at every n of run_all's sweep, so no gate on a live claim skips a read there
    calls = []
    sweep = verify._sweep

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(verify, "_sweep", recording)
    assert all(r.ok for r in run_all(n_max_override))
    [(args, kwargs)] = calls
    # the Y check is the one sweep's too, at its own depth
    assert args == ({**dict.fromkeys(SWEPT, depth), "y_matches_v": y_depth},) and kwargs == {}


class TestMutationSensitivity:
    def test_identity_map_is_caught(self):
        report = check_involution(5, sigma_fn=lambda p: p)
        assert not report.ok
        assert report.status == "fail"
        assert report.counterexample is not None
        assert report.counterexample.n <= 5

    def test_skipped_transfer_is_caught(self):
        report = check_involution(5, sigma_fn=skip_transfer_mutant)
        assert not report.ok
        c = report.counterexample
        assert c is not None
        assert c.n <= 5
        # deterministic: first offender in enumeration order
        again = check_involution(5, sigma_fn=skip_transfer_mutant).counterexample
        assert (again.n, again.item, again.claim) == (c.n, c.item, c.claim)

    def test_moved_fixed_point_is_caught(self):
        # 1/2/3 and 1/32 both have X = Y = 1, so swapping them keeps the X/Y
        # interchange and sigma(sigma(p)) = p but moves a partition with X = Y
        a, b = parse("1/2/3"), parse("1/32")
        swap = {a: b, b: a}
        report = check_involution(6, sigma_fn=lambda p: swap.get(p, sigma(p)))
        assert report.counterexample == Counterexample(3, "1/32", "fixed point iff X = Y", "fixed=True", "fixed=False")

    @pytest.mark.parametrize("check, counterexample", [
        (check_y_matches_v, Counterexample(4, "Y=2 over nonoverlapping partitions of [4]",
                                           "Y-distribution matches the v-triangle", "6", "5")),
        (check_avoiders_match_v, Counterexample(4, "last entry 2 over avoiders of [4]",
                                                "avoider last-entry distribution matches the v-triangle", "6", "5")),
    ])
    def test_wrong_triangle_cell_is_caught(self, monkeypatch, check, counterexample):
        raise_triangle_cell(monkeypatch, (4, 2))
        report = check(6)
        assert report.counterexample == counterexample
        assert report.n_range == (1, 6)

    @pytest.mark.parametrize("outside, counterexample", [
        (lambda n: {0: 3, n + 1: 7}, Counterexample(1, "last entry 0 over avoiders of [1]",
                                                    "avoider last-entry distribution matches the v-triangle", "0", "3")),
        (lambda n: {n + 1: 7}, Counterexample(1, "last entry 2 over avoiders of [1]",
                                              "avoider last-entry distribution matches the v-triangle", "0", "7")),
        (lambda n: {0: 0, n + 1: 0}, None),
    ], ids=["below-and-above", "above", "zero-counts"])
    def test_mass_outside_the_row_is_caught(self, monkeypatch, outside, counterexample):
        # every cell k = 1..n is right; only keys outside 1..n are added
        distributions = verify._last_entry_distributions
        monkeypatch.setattr(verify, "_last_entry_distributions", lambda: (
            {**dist, **outside(n)} for n, dist in enumerate(distributions(), start=1)))
        report = check_avoiders_match_v(6)
        assert report.counterexample == counterexample
        assert report.n_range == (1, 6)

    def test_missing_row_cell_is_caught(self):
        # v[3][3] = 1, so a distribution with no key 3 at n = 3 is one count short
        def distribution(n):
            return {k: v for k, v in enumerate(verify.v_table(n)[-1], start=1) if (n, k) != (3, 3)}

        report = verify._matches_v("y_matches_v", 6, map(distribution, range(1, 7)),
                                   "Y={k} over nonoverlapping partitions of [{n}]", "Y-distribution matches the v-triangle")
        assert report.counterexample == Counterexample(3, "Y=3 over nonoverlapping partitions of [3]",
                                                       "Y-distribution matches the v-triangle", "1", "0")

    def test_failure_is_reported_not_raised(self):
        report = check_involution(5, sigma_fn=lambda p: p)
        payload = report.to_json()
        assert payload["status"] == "fail"
        assert payload["counterexample"]["n"] == report.counterexample.n
        assert "FAIL" in report.summary()
        assert "counterexample" in report.summary()


SWEPT = ("involution", "spans", "nonoverlapping", "equidistribution")
STANDALONE = dict(ALL_CHECKS)

#: |P_1| + ... + |P_6|, how many of those sigma does not fix, and how many
#: have X < Y.
PARTITIONS_TO_6 = 1 + 2 + 5 + 15 + 52 + 203
MOVED_TO_6 = PARTITIONS_TO_6 - sum(sigma(p) == p for n in range(1, 7) for p in enumerate_all(n))
LOWER_TO_6 = sum(stat_x(p) < stat_y(p) for n in range(1, 7) for p in enumerate_all(n))


def all_singletons(p):
    return SetPartition(tuple((i,) for i in range(1, p.n + 1)))


def upper_identity(p):
    """The identity where X > Y, sigma elsewhere: every fault lies on the
    X > Y side, and is met from the X < Y side only as the partner's
    failed sigma(sigma(p)) = p."""
    return p if stat_x(p) > stat_y(p) else sigma(p)


def raises_on_upper(p):
    """sigma, except that it raises on 3/421, which has X > Y."""
    if p == parse("3/421"):
        raise ArithmeticError("no image for 3/421")
    return sigma(p)


def invalid_on_upper(p):
    """sigma, except that it sends 4321, which has X > Y, to a block that is
    not in standard form."""
    return SetPartition(((1, 2, 3, 4),)) if p == parse("4321") else sigma(p)


_LOWER, _GROWN = parse("2/31"), parse("321/4")


def grows_one_image(p):
    """sigma, except that 2/31 (X < Y) and 321/4 are swapped: the image of
    2/31 is sigma's image 321 with the singleton {4} added, a partition of
    [4] with the same X, Y and spans that maps back to 2/31. So 2/31 looks
    right from its own side, and only 321 in [3] shows the fault."""
    return {_LOWER: _GROWN, _GROWN: _LOWER}.get(p) or sigma(p)


#: The first counterexample of each claim at depth 6, frozen from the
#: checks as they stood when each ran its own loop over P_n (the maps from
#: upper_identity on, from the sweep that checks every partition in full);
#: a claim not listed passes. A claim that meets a raise of the map records
#: the exception's type and text.
NO_IMAGE = (ArithmeticError, "no image for 3/421")
NOT_STANDARD = (ValidationError, "sigma_fn must return a SetPartition in standard form, got "
                "SetPartition(blocks=((1, 2, 3, 4),)): block (1, 2, 3, 4) is not strictly decreasing")
FROZEN = {
    "sigma": {},
    "identity": {
        "involution": Counterexample(3, "321", "X/Y interchange", "image with X=2, Y=3", "321 with X=3, Y=2"),
    },
    "skip_transfer": {
        "involution": Counterexample(4, "3/421", "sigma(sigma(p)) = p", "3/421", "4321"),
    },
    "all_singletons": {
        "involution": Counterexample(2, "21", "X/Y interchange", "image with X=2, Y=2", "1/2 with X=1, Y=1"),
        "spans": Counterexample(2, "21", "non-singleton span multiset preserved", "[(1, 2)]", "[]"),
        "nonoverlapping": Counterexample(4, "31/42", "nonoverlapping predicate preserved",
                                         "nonoverlapping=False", "nonoverlapping=True"),
    },
    "upper_identity": {
        "involution": Counterexample(3, "321", "X/Y interchange", "image with X=2, Y=3", "321 with X=3, Y=2"),
    },
    "raises_on_upper": dict.fromkeys(SWEPT[:3], NO_IMAGE),
    "invalid_on_upper": dict.fromkeys(SWEPT[:3], NOT_STANDARD),
    "grows_one_image": {
        "involution": Counterexample(3, "321", "sigma(sigma(p)) = p", "321", "321/4"),
    },
}
MAPS = {"sigma": sigma, "identity": lambda p: p, "skip_transfer": skip_transfer_mutant,
        "all_singletons": all_singletons, "upper_identity": upper_identity, "raises_on_upper": raises_on_upper,
        "invalid_on_upper": invalid_on_upper, "grows_one_image": grows_one_image}


def outcome(run, n_max=6):
    """The counterexample of each report run() returns, by claim, each
    report checked to span n = 1..n_max; or the type and text of what run()
    raised."""
    try:
        reports = list(run())
    except Exception as exc:
        return type(exc), str(exc)
    assert all(r.n_range == (1, n_max) for r in reports)
    return {r.check_name: r.counterexample for r in reports}


def frozen_outcome(map_name, names):
    """outcome() of the named claims run together at depth 6, as FROZEN
    records them: the raise they meet, or each claim's counterexample."""
    frozen = FROZEN[map_name]
    raised = [frozen[name] for name in names if name in frozen and not isinstance(frozen[name], Counterexample)]
    return raised[0] if raised else {name: frozen.get(name) for name in names}


def swept(sigma_fn, n_max=6):
    return verify._sweep(dict.fromkeys(SWEPT, n_max), sigma_fn).values()


#: Each swept claim checked on its own by a plain loop over P_1..P_n_max.
BY_LOOP = {"involution": involution_by_loop, "spans": spans_by_loop, "nonoverlapping": nonoverlapping_by_loop,
           "equidistribution": lambda n_max, sigma_fn: equidistribution_by_loop(n_max)}


def by_loop(name, n_max, sigma_fn):
    """outcome() of BY_LOOP[name]."""
    try:
        return {name: BY_LOOP[name](n_max, sigma_fn)}
    except Exception as exc:
        return type(exc), str(exc)


def standalone(name, n_max, sigma_fn):
    fn = STANDALONE[name]
    return fn(n_max, sigma_fn=sigma_fn) if "sigma_fn" in inspect.signature(fn).parameters else fn(n_max)


class TestSharedSweep:
    @pytest.mark.parametrize("map_name", FROZEN)
    def test_same_reports_as_the_standalone_checks(self, map_name):
        sigma_fn = MAPS[map_name]
        assert outcome(lambda: swept(sigma_fn)) == frozen_outcome(map_name, SWEPT)
        for name in SWEPT:
            assert outcome(lambda: [standalone(name, 6, sigma_fn)]) == frozen_outcome(map_name, [name])

    @settings(max_examples=100, deadline=None)
    @given(perturbed_sigmas())
    def test_sweep_and_checks_agree_with_the_plain_loops(self, drawn):
        depth, fn = drawn
        expected = {name: by_loop(name, depth, fn) for name in SWEPT}
        for name in SWEPT:
            assert outcome(lambda: [standalone(name, depth, fn)], depth) == expected[name]
        # the map raises on at most one partition, so every claim that meets a raise meets the same one
        raised = [e for e in expected.values() if not isinstance(e, dict)]
        together = {name: c for e in expected.values() if isinstance(e, dict) for name, c in e.items()}
        assert outcome(lambda: swept(fn, n_max=depth), depth) == (raised[0] if raised else together)

    def test_broken_y_trips_equidistribution(self, monkeypatch):
        monkeypatch.setattr(verify, "stat_y", lambda p: 1)
        swept = verify._sweep(dict.fromkeys(SWEPT, 6))
        assert swept["equidistribution"].counterexample == Counterexample(
            2, "joint cells (X=2, Y=1) vs (X=1, Y=2) over all partitions of [2]",
            "symmetric joint distribution", "1 = 1", "1 != 0")
        assert swept["involution"].counterexample == Counterexample(
            2, "21", "X/Y interchange", "image with X=1, Y=2", "21 with X=2, Y=1")
        assert swept["spans"].ok and swept["nonoverlapping"].ok
        for name in SWEPT:
            assert swept[name].counterexample == standalone(name, 6, sigma).counterexample

    def test_crossing_lower_side_trips_the_nonoverlapping_tally(self, monkeypatch):
        # the nonoverlapping flag comes from the lockstep with enumerate_nonoverlapping,
        # so only that walk can break the nonoverlapping side: here it skips every
        # X < Y partition, which then reads as crossing
        nonoverlapping = verify.enumerate_nonoverlapping
        monkeypatch.setattr(verify, "enumerate_nonoverlapping",
                            lambda n: (p for p in nonoverlapping(n) if stat_x(p) >= stat_y(p)))
        swept = verify._sweep({"equidistribution": 6})
        assert swept["equidistribution"].counterexample == Counterexample(
            3, "joint cells (X=3, Y=2) vs (X=2, Y=3) over nonoverlapping partitions of [3]",
            "symmetric joint distribution", "1 = 1", "1 != 0")

    # identity fails the paired pass at n = 3, so its full pass walks a second enumeration
    @pytest.mark.parametrize("map_name", ["sigma", "identity"])
    def test_nonoverlapping_joint_matches_the_laminar_filter(self, monkeypatch, map_name):
        joints = {}
        asymmetry = verify._asymmetry

        def recording(n, joint, scope):
            if scope == "nonoverlapping":
                joints[n] = Counter({(x, y): c for x, row in enumerate(joint) for y, c in enumerate(row) if c})
            return asymmetry(n, joint, scope)

        monkeypatch.setattr(verify, "_asymmetry", recording)
        assert verify._sweep(dict.fromkeys(SWEPT, 9), MAPS[map_name])["equidistribution"].ok
        assert joints == {n: Counter((stat_x(p), stat_y(p)) for p in enumerate_all(n) if laminar(nonsingleton_spans(p)))
                          for n in range(1, 10)}

    @settings(max_examples=300, deadline=None)
    @given(xy_multisets(), st.sampled_from(["all", "nonoverlapping"]))
    def test_dense_tally_matches_counter_tally(self, drawn, scope):
        n, pairs = drawn
        joint = [[0] * (n + 1) for _ in range(n + 1)]
        for x, y in pairs:
            joint[x][y] += 1
        expected = asymmetry_by_counter(n, pairs, scope)
        assert verify._asymmetry(n, joint, scope) == expected
        assert (expected is None) == (Counter(pairs) == Counter((y, x) for x, y in pairs))

    def test_failed_claim_stops_the_reads_only_it_needed(self):
        calls = 0

        def identity(p):
            nonlocal calls
            calls += 1
            return p

        swept = verify._sweep({"involution": 6, "equidistribution": 6}, identity)
        # 1, then 21 and 1/2 are fixed with X = Y: 3 calls. The paired pass at
        # n = 3 skips 321 (X > Y), calls it on 21/3 (fixed) and on 2/31 (X < Y),
        # whose image fails the interchange: 2 calls. The full pass redoes n = 3
        # and fails at 321, its first partition: 1 call. 3 + 2 + 1 = 6.
        assert swept["involution"].counterexample == FROZEN["identity"]["involution"]
        assert calls == 6
        assert swept["equidistribution"].ok and swept["equidistribution"].n_range == (1, 6)

    def test_failed_claim_does_not_stop_the_others(self):
        swept = verify._sweep({"involution": 6, "spans": 5, "nonoverlapping": 6}, lambda p: p)
        assert swept["involution"].counterexample.n == 3
        assert swept["spans"].ok and swept["spans"].n_range == (1, 5)
        assert swept["nonoverlapping"].ok and swept["nonoverlapping"].n_range == (1, 6)
        assert swept["involution"].elapsed <= swept["spans"].elapsed <= swept["nonoverlapping"].elapsed

    @pytest.mark.parametrize("run, sides", [
        (lambda fn: [check_involution(6, sigma_fn=fn)], (1, 0)),
        (lambda fn: [check_spans(6, sigma_fn=fn)], (1, 0)),
        (lambda fn: [check_nonoverlapping(6, sigma_fn=fn)], (1, 0)),
        (lambda fn: verify._sweep({"equidistribution": 6}, fn).values(), (0, 0)),
        (lambda fn: verify._sweep(dict.fromkeys(SWEPT, 6), fn).values(), (1, 0)),
    ], ids=["involution", "spans", "nonoverlapping", "equidistribution", "all-four"])
    def test_sigma_call_counts(self, run, sides):
        calls = 0

        def counting(p):
            nonlocal calls
            calls += 1
            return sigma(p)

        assert all(r.ok for r in run(counting))
        # The full pass calls sigma(p) for every p and sigma(q) only for an
        # image q that is not p. The paired pass, which runs while the
        # involution claim is live, calls sigma(p) for X = Y, sigma(p) and
        # sigma(q) for X < Y, and nothing for X > Y: as many X > Y as X < Y,
        # so one call per partition.
        assert calls == sides[0] * PARTITIONS_TO_6 + sides[1] * MOVED_TO_6

    @pytest.mark.parametrize("map_name", MAPS)
    def test_fixed_point_path_agrees_with_the_full_path(self, map_name):
        # an equal copy of the image is never p itself, so every field of it is computed
        fn = MAPS[map_name]
        fast = outcome(lambda: swept(fn))
        full = outcome(lambda: swept(lambda p: SetPartition(*fn(p))))
        assert fast == full == frozen_outcome(map_name, SWEPT)

    def test_one_enumeration_site(self):
        tree = ast.parse(inspect.getsource(verify))
        sites = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "enumerate_all"]
        assert len(sites) == 1


@pytest.fixture
def enumerated(monkeypatch):
    """The n of each call to verify.enumerate_nonoverlapping, in order."""
    calls = []
    enumerate_nonoverlapping = verify.enumerate_nonoverlapping

    def recording(n):
        calls.append(n)
        return enumerate_nonoverlapping(n)

    monkeypatch.setattr(verify, "enumerate_nonoverlapping", recording)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """The n of each call to verify._y_counts_nonoverlapping, the Y check's count past the sweep, in order."""
    calls = []
    y_counts = verify._y_counts_nonoverlapping

    def recording(n):
        calls.append(n)
        return y_counts(n)

    monkeypatch.setattr(verify, "_y_counts_nonoverlapping", recording)
    return calls


class TestYFromTheSweep:
    """run_all's Y check reads the sweep's nonoverlapping tally for each n
    the sweep finished, and counts Y with _y_counts_nonoverlapping, which
    builds no partition, only past them. The sweep itself walks one
    enumeration of the nonoverlapping partitions per pass, in lockstep
    with enumerate_all."""

    # each map past sigma fails a claim, so the n it fails at is handed over from the full pass
    @pytest.mark.parametrize("map_name, n_max", [("sigma", 10)] + [
        (name, 6) for name in ("identity", "skip_transfer", "all_singletons", "upper_identity", "grows_one_image")])
    def test_tally_matches_the_enumerated_distribution(self, monkeypatch, map_name, n_max):
        handed = []
        matches_v = verify._matches_v

        def recording(name, depth, distributions, *args):
            if name == "y_matches_v":
                distributions = list(distributions)
                handed.extend(distributions[:depth])
            return matches_v(name, depth, distributions, *args)

        monkeypatch.setattr(verify, "_matches_v", recording)
        verify._sweep({**dict.fromkeys(SWEPT, n_max), "y_matches_v": n_max}, MAPS[map_name])
        # the slow path: the laminar test of every partition of [n]
        assert handed == [Counter(stat_y(p) for p in enumerate_all(n) if is_nonoverlapping(p))
                          for n in range(1, n_max + 1)]

    # the sweep's one walk per n (under sigma every n passes its paired pass), then the Y check's pass
    @pytest.mark.parametrize("n_max_override, swept_n, past", [(None, 10, [11]), (6, 6, [])])
    def test_enumerates_only_past_the_sweep(self, enumerated, counted, n_max_override, swept_n, past):
        assert all(r.ok for r in run_all(n_max_override))
        assert enumerated == list(range(1, swept_n + 1))
        assert counted == past

    def test_enumerates_from_where_the_sweep_stopped(self, monkeypatch, enumerated, counted):
        monkeypatch.setattr(verify, "DEFAULT_LIMITS", {**dict.fromkeys(SWEPT, 3), "y_matches_v": 6,
                                                       "avoiders_match_v": 3})
        report = run_all()[4]
        assert (enumerated, counted) == ([1, 2, 3], [4, 5, 6])
        assert report._replace(elapsed=0) == check_y_matches_v(6)._replace(elapsed=0)

    def test_same_counterexample_as_the_standalone_check(self, monkeypatch):
        # Y stays in 1..n, with its values 2 and 3 swapped from n = 4 on, both in the sweep's
        # tally and in the count past it (the standalone check's only source), whose keys swap
        def swapped(y, n):
            return {2: 3, 3: 2}.get(y, y) if n >= 4 else y

        y, y_counts = verify.stat_y, verify._y_counts_nonoverlapping
        monkeypatch.setattr(verify, "stat_y", lambda p: swapped(y(p), p.n))
        monkeypatch.setattr(verify, "_y_counts_nonoverlapping",
                            lambda n: {swapped(k, n): count for k, count in y_counts(n).items()})
        report = run_all(6)[4]
        assert report.counterexample == check_y_matches_v(6).counterexample == Counterexample(
            4, "Y=2 over nonoverlapping partitions of [4]", "Y-distribution matches the v-triangle", "5", "3")


class TestAvoidersFromOneCount:
    """check_avoiders_match_v reads the distribution of every n from one
    run of the append-rule count, not from a fresh count per n."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """One list per run of the count, of the lengths it reached."""
        runs = []
        columns = patterns._avoider_columns

        def recording():
            runs.append([])
            for m, cols in enumerate(columns(), start=1):
                runs[-1].append(m)
                yield cols

        monkeypatch.setattr(patterns, "_avoider_columns", recording)
        return runs

    @staticmethod
    def per_n(monkeypatch):
        monkeypatch.setattr(verify, "_last_entry_distributions",
                            lambda: map(patterns.avoider_last_entry_distribution, count(1)))

    @pytest.mark.parametrize("cell", [None, (1, 1), (4, 2), (40, 40)], ids=["none", "1-1", "4-2", "40-40"])
    def test_same_reports_as_the_per_n_path(self, monkeypatch, cell):
        raise_triangle_cell(monkeypatch, cell)
        reports = [check_avoiders_match_v(n_max)._replace(elapsed=0) for n_max in range(1, 41)]
        self.per_n(monkeypatch)
        assert reports == [check_avoiders_match_v(n_max)._replace(elapsed=0) for n_max in range(1, 41)]
        assert reports[-1].ok == (cell is None)

    @pytest.mark.parametrize("cell, reached", [(None, 40), ((4, 2), 4)], ids=["pass", "stops-at-first-failure"])
    def test_the_count_runs_once(self, monkeypatch, steps, cell, reached):
        raise_triangle_cell(monkeypatch, cell)
        check_avoiders_match_v(40)
        assert steps == [list(range(1, reached + 1))]

    def test_per_n_path_counts_once_per_n(self, monkeypatch, steps):
        # the path the check replaced, as the recording fixture sees it
        self.per_n(monkeypatch)
        check_avoiders_match_v(5)
        assert steps == [list(range(1, n + 1)) for n in range(1, 6)]


class TestDepthGuard:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the depth was checked")
        for name in ("enumerate_all", "enumerate_nonoverlapping", "_y_counts_nonoverlapping",
                     "_last_entry_distributions"):
            monkeypatch.setattr(verify, name, refuse)

    @pytest.mark.parametrize("n_max", [0, -3, 2.5, True, "5"])
    @pytest.mark.parametrize("check", [run_all] + ALL_AT_SIX)
    def test_bad_depth_is_refused_up_front(self, no_work, check, n_max):
        with pytest.raises(BoundError):
            check(n_max)

    @pytest.mark.parametrize("check", [run_all] + ALL_AT_SIX[:5])
    def test_depth_past_the_enumeration_guard_is_refused_up_front(self, no_work, check):
        with pytest.raises(BoundError, match="guard"):
            check(15)

    def test_avoider_depth_is_checked_against_the_avoider_guard(self, no_work):
        # the guard of the count the check reads; without it, v_table's triangle
        # guard would refuse 301 with a max_n hint that a check cannot act on
        with pytest.raises(BoundError) as info:
            check_avoiders_match_v(301)
        assert str(info.value) == "check depth 301 exceeds the avoider guard 300"

    @pytest.mark.parametrize("n_max", [10, 12, 14])
    def test_avoider_check_runs_past_the_enumeration_depths(self, n_max):
        # the O(n^3) count is not bounded by the n! scan it replaced
        assert check_avoiders_match_v(n_max).ok

    def test_run_all_checks_the_y_depth_before_any_work(self, no_work, monkeypatch):
        # a sweep to 3 would enumerate before a Y check run after it could refuse 15
        monkeypatch.setattr(verify, "DEFAULT_LIMITS", {**dict.fromkeys(SWEPT, 3), "y_matches_v": 15,
                                                       "avoiders_match_v": 3})
        with pytest.raises(BoundError, match="check depth 15 exceeds the enumeration guard 14"):
            run_all()

    @pytest.mark.parametrize("n_max", [10, 12, 14])
    def test_depth_within_the_enumeration_guard_reaches_the_work(self, no_work, n_max):
        # no ceiling below the enumeration guard refuses run_all
        with pytest.raises(AssertionError, match="work started"):
            run_all(n_max)

    @pytest.mark.parametrize("sigma_fn", [None, 5, "sigma"])
    @pytest.mark.parametrize("check", [check_involution, check_spans, check_nonoverlapping])
    def test_sigma_fn_that_cannot_be_called_is_refused_up_front(self, no_work, check, sigma_fn):
        with pytest.raises(ValidationError, match="sigma_fn must be callable"):
            check(6, sigma_fn=sigma_fn)


def lowers_x_only(p):
    """sigma where X >= Y, None where X < Y. The first partition that sigma
    moves has X > Y, so check_involution meets None as sigma_fn(q)."""
    return sigma(p) if stat_x(p) >= stat_y(p) else None


class TestSigmaResult:
    @pytest.mark.parametrize("sigma_fn", [
        lambda p: None,
        lambda p: (p.blocks,),
        lambda p: p.blocks,
        lowers_x_only,
        lambda p: SetPartition(()),
        lambda p: SetPartition(tuple((i,) for i in range(2, p.n + 2))),
        lambda p: SetPartition(5),
        lambda p: SetPartition(tuple(list(b) for b in sigma(p).blocks)),
    ], ids=["none", "bare-tuple", "blocks", "none-on-the-way-back", "no-blocks", "gap",
            "blocks-not-iterable", "list-blocks"])
    @pytest.mark.parametrize("check", [check_involution, check_spans, check_nonoverlapping])
    def test_result_that_is_not_a_partition_is_refused(self, check, sigma_fn):
        with pytest.raises(ValidationError, match="sigma_fn must return a SetPartition"):
            check(3, sigma_fn=sigma_fn)


class TestOneReading:
    """p's own fields are read once for every partition; the map is called,
    and its image read, only while a claim that reads the image is live."""

    @pytest.mark.parametrize("run, image_xy, moved, walked", [
        (lambda: [check_involution(6)], LOWER_TO_6, 0, []),
        (lambda: [check_spans(6)], 0, MOVED_TO_6, []),
        (lambda: [check_nonoverlapping(6)], 0, MOVED_TO_6, list(range(1, 7))),
        (lambda: [check_equidistribution(6)], 0, 0, list(range(1, 7))),
        (lambda: verify._sweep(dict.fromkeys(SWEPT, 6)).values(), LOWER_TO_6, LOWER_TO_6, list(range(1, 7))),
    ], ids=["involution", "spans", "nonoverlapping", "equidistribution", "all-four"])
    def test_each_field_is_read_once_per_side(self, monkeypatch, enumerated, run, image_xy, moved, walked):
        names = ("stat_x", "stat_y", "nonsingleton_spans", "laminar")
        calls = Counter()

        def counted(name, fn):
            def wrapper(p):
                calls[name] += 1
                return fn(p)
            monkeypatch.setattr(verify, name, wrapper)

        for name in names:
            counted(name, getattr(verify, name))
        assert all(r.ok for r in run())
        # p and its image are the two sides. Every pass reads X and Y of p
        # once. p's nonoverlapping flag comes from the one enumeration of the
        # nonoverlapping partitions each pass walks, and only the
        # nonoverlapping and equidistribution claims read it, so only they
        # walk. The image's X and Y are read only under the involution claim,
        # in _involution, and only where sigma moves p. The spans are read, of
        # p and of its image, only under the spans and nonoverlapping claims,
        # and only where sigma moves p: the full pass meets every moved
        # partition, and the paired pass, which runs while the involution
        # claim is live, meets only the X < Y partitions, whose images are the
        # X > Y ones. No pass calls laminar: sigma keeps the span list, so p's
        # flag is the image's.
        assert [calls[name] for name in names] == [PARTITIONS_TO_6 + image_xy, PARTITIONS_TO_6 + image_xy,
                                                   2 * moved, 0]
        assert enumerated == walked

    def test_a_fallen_back_n_enumerates_once_per_pass(self, enumerated):
        # identity fails the paired pass at n = 3, and the full pass checks n = 3
        # again; with the involution claim settled, n = 4..6 run the full pass alone
        swept = verify._sweep({"involution": 6, "equidistribution": 6}, lambda p: p)
        assert swept["involution"].counterexample.n == 3
        assert enumerated == [1, 2, 3, 3, 4, 5, 6]
