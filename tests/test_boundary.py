"""The boundary contract: every public function that takes input from
outside the program answers junk with a PartinvError, and with nothing
else, before any enumeration, scan or triangle build starts.

Hot-path functions handed a SetPartition trust it and are left out:
they are listed in TRUSTED, so a new public function must be placed in
one list or the other."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partinv
import partinv.errors as errors
import partinv.partitions as partitions
import partinv.patterns as patterns
import partinv.recurrence as recurrence

TRUSTED = {"aux_r", "aux_s", "format_partition", "is_nonoverlapping", "sigma", "stat_x", "stat_y"}

#: name -> (function, a valid value for each parameter it takes)
BOUNDARY = {
    "parse": (partinv.parse, {"text": "21/3"}),
    "normalize": (partinv.normalize, {"blocks": [[1], [2]]}),
    "SetPartition.from_blocks": (partinv.SetPartition.from_blocks, {"blocks": [[2, 1]]}),
    "SetPartition.from_json": (partinv.SetPartition.from_json, {"obj": {"blocks": [[1]]}}),
    "is_avoider": (partinv.is_avoider, {"p": (1, 2)}),
    "enumerate_all": (partinv.enumerate_all, {"n": 3, "max_n": 10}),
    "enumerate_nonoverlapping": (partinv.enumerate_nonoverlapping, {"n": 3, "max_n": 10}),
    "avoider_last_entry_distribution": (partinv.avoider_last_entry_distribution, {"n": 3, "max_n": 9}),
    "v_compute": (partinv.v_compute, {"n": 3, "k": 2}),
    "v_table": (partinv.v_table, {"n_max": 3, "max_n": 300}),
    "bessel": (partinv.bessel, {"n": 3}),
    "check_involution": (partinv.check_involution, {"n_max": 3, "sigma_fn": partinv.sigma}),
    "check_spans": (partinv.check_spans, {"n_max": 3, "sigma_fn": partinv.sigma}),
    "check_nonoverlapping": (partinv.check_nonoverlapping, {"n_max": 3, "sigma_fn": partinv.sigma}),
    "check_equidistribution": (partinv.check_equidistribution, {"n_max": 3}),
    "check_y_matches_v": (partinv.check_y_matches_v, {"n_max": 3}),
    "check_avoiders_match_v": (partinv.check_avoiders_match_v, {"n_max": 3}),
    # None is run_all's own default, the shipped depths
    "run_all": (partinv.run_all, {"n_max_override": 3}),
}

def _empty_permutation(kwargs):
    return kwargs["p"] in ([], ())


#: The junk each function may still accept as valid input: parse("1") is a
#: partition, and an empty list or tuple is the permutation of [0]. Every
#: other function must refuse all junk, and these any other junk.
MAY_ACCEPT = {
    "parse": lambda kwargs: isinstance(kwargs["text"], str),
    "is_avoider": _empty_permutation,
}

_scalar = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=6),
    st.integers(max_value=0),
    st.binary(max_size=3),
)
JUNK = st.recursive(_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.tuples(inner, inner),
    st.dictionaries(st.text(max_size=3), inner, max_size=2),
    st.dictionaries(st.integers(min_value=1, max_value=3), inner, max_size=2),
    st.fixed_dictionaries({"blocks": inner}),
), max_leaves=6)


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


def test_every_public_function_is_placed():
    public = {name for name in partinv.__all__
              if inspect.isfunction(getattr(partinv, name))}
    assert public == TRUSTED | {name for name in BOUNDARY if "." not in name}
    assert not TRUSTED & BOUNDARY.keys()


def test_three_kinds_of_error():
    # text, a value of the wrong type or shape, a size out of range
    kinds = {"PartinvError", "ParseError", "ValidationError", "BoundError"}
    exported = {name for name in partinv.__all__
                if inspect.isclass(getattr(partinv, name)) and issubclass(getattr(partinv, name), Exception)}
    assert exported == kinds
    defined = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, Exception) and value.__module__ == errors.__name__}
    assert defined == kinds


@pytest.mark.parametrize("name", sorted(BOUNDARY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_junk_raises_only_partinv_errors(name, data):
    fn, valid = BOUNDARY[name]
    params = sorted(valid)
    junked = data.draw(st.sets(st.sampled_from(params), min_size=1), label="junked")
    junk = JUNK.filter(lambda v: v is not None) if name == "run_all" else JUNK
    kwargs = {p: data.draw(junk, label=p) if p in junked else valid[p] for p in params}
    with pytest.MonkeyPatch.context() as mp:
        for module, attr in ((partitions, "_gen_all"), (partitions, "_gen_nonoverlapping"),
                             (patterns, "accumulate"), (recurrence, "accumulate")):
            mp.setattr(module, attr, _refuse)
        try:
            result = fn(**kwargs)
        except partinv.PartinvError:
            return
    assert name in MAY_ACCEPT and MAY_ACCEPT[name](kwargs), f"{name}(**{kwargs!r}) returned {result!r}"


#: What SetPartition(blocks) may be handed directly: entries that are small
#: positive integers (so a draw can be valid), ints <= 0 or very large,
#: bools, floats and None, nested in lists, dicts and tuples, empty ones
#: included.
_entry = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.integers(max_value=0),
    st.integers(min_value=2**63, max_value=2**200),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)
RAW_BLOCKS = st.recursive(_entry, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple),
    st.lists(inner, max_size=3),
    st.dictionaries(st.integers(min_value=1, max_value=3), inner, max_size=2),
), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(blocks=RAW_BLOCKS)
def test_validate_is_the_one_checker(blocks):
    # the constructor trusts its argument, so validate() alone must refuse
    # junk, and with ValidationError only; whatever it accepts is standard form
    try:
        p = partinv.SetPartition(blocks).validate()
    except partinv.ValidationError:
        return
    entries = [e for b in p.blocks for e in b]
    assert all(type(e) is int for e in entries)
    assert sorted(entries) == list(range(1, p.n + 1))
    assert p.blocks == tuple(sorted(tuple(sorted(b, reverse=True)) for b in p.blocks))
