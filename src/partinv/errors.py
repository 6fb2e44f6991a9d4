"""Exception types shared across the package, the integer rule and the
type rule every boundary check applies, and the size guard that raises
BoundError.

The package raises three kinds of PartinvError: ParseError for partition
text that does not parse, ValidationError for a value of the wrong type
or shape (SetPartition, the permutation and family boundaries, and a
sigma_fn under check and its results), and BoundError for a size, depth,
guard or triangle cell out of range (check_bound, the generators'
nesting ceilings, and v_compute's cell)."""

from collections import UserString
from collections.abc import Mapping


class PartinvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PartinvError):
    """Malformed partition text. Carries the offending position as a
    zero-based index into the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(PartinvError):
    """A value of the wrong type or shape: a partition not in standard form,
    an entry that is not an integer, a sigma_fn that cannot be called or
    that returns anything but a SetPartition in standard form."""


class BoundError(PartinvError):
    """A size or guard refused before any work starts. check_bound raises it
    for a size, check depth or max_n that is not an integer >= 1 and for a
    size past the enumeration, triangle or avoider guard; the generators
    raise it for an n past their nesting ceiling; v_compute raises it for a
    cell (n, k) outside the triangle, n and k not integers with
    1 <= k <= n."""


#: The one type rule: text, bytes, byte views and mappings iterate, but not
#: as a sequence of entries, so no boundary reads one as a permutation, a
#: family of blocks or a block. tuple() would read b"\x02\x01" as (2, 1)
#: and a dict as its keys.
NOT_ENTRIES = (str, bytes, bytearray, memoryview, UserString, Mapping)


def is_int(value) -> bool:
    """The one integer rule: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_bound(n, max_n, guard: str, size: str = "n") -> None:
    """Refuse, before any work starts, a size n or a guard max_n that is not
    an integer >= 1 (bool excluded), and an n past the named guard. size is
    what the messages call n. Only under the default, "n", is max_n the
    caller's own argument, so only then does the message offer raising it.
    The other labels in use are "check depth" (the verify checks) and
    "row" (v_compute and bessel)."""
    for name, value in ((size, n), ("max_n", max_n)):
        if not is_int(value) or value < 1:
            raise BoundError(f"{name} must be an integer >= 1, got {value!r}")
    if n > max_n:
        if size == "n":
            raise BoundError(f"n={n} exceeds the {guard} guard {max_n} (raise max_n to override)")
        raise BoundError(f"{size} {n} exceeds the {guard} guard {max_n}")
