"""Exception types shared across the package, and the one cap rule.

Every object here is exponential in its parameters, so each place that
could start unbounded work asks ``_capped`` first, or, where the total
is known only as the work runs (the completions of the interesting-tuple
walks, and their prefixes that complete nothing), as soon as the running count passes the cap.  The count is
compared with the cap inclusively; a huge power is decided without
being formed; and a refusal names the count in full, or as a power when
it has more digits than the interpreter prints.
"""

import sys
from functools import cache


class CapExceededError(RuntimeError):
    """An enumeration or search would exceed its configured cap."""


class DegenerateSystemError(ValueError):
    """The coefficient matrix has rank below the number of equations."""


def _exceeds(base: int, exp: int, bound: int) -> bool:
    """Whether base^exp > bound, for base >= 0.  A base of at least 2
    gives at least 2^exp, which exceeds the bound once exp reaches the
    bound's bit length, so a huge power is decided without being formed."""
    return base > 1 and exp >= bound.bit_length() or base**exp > bound


@cache
def _widest(limit: int) -> int:
    """The largest integer of ``limit`` decimal digits."""
    return 10**limit - 1


def _unprintable(base: int, exp: int = 1) -> bool:
    """Whether |base|^exp has more decimal digits than the interpreter
    prints (its integer string conversion limit, 0: none)."""
    limit = sys.get_int_max_str_digits()
    return limit > 0 and _exceeds(abs(base), exp, _widest(limit))


def _capped(base: int, cap: int, phrase: str | None, exp: int = 1,
            less: int = 0) -> int | None:
    """The count base^exp - less when it is at most ``cap``.

    Over the cap: None when ``phrase`` is None, else CapExceededError
    with ``phrase.format(count, cap=cap)``.  The count there is the
    number, or, when the power is too long to print, ``base^exp`` with
    `` - less`` after it unless less is 0.  It is decided by
    ``_exceeds`` before it is formed.
    """
    if not _exceeds(base, exp, cap + less):
        return base**exp - less
    if phrase is None:
        return None
    count = (f"{base}^{exp}" + (f" - {less}" if less else "")
             if _unprintable(base, exp) else base**exp - less)
    raise CapExceededError(phrase.format(count, cap=cap))
