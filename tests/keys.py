"""Packed cut-line keys for tests: built from digit strings, checked against
the signature invariants, and listed exhaustively for small widths."""

from __future__ import annotations

from functools import lru_cache

from sawenum.signatures import FREE, LOWER, UPPER


def key(digits: str, bottom: bool = False, top: bool = False) -> int:
    """The key of slot states read bottom to top, e.g. ``key("0301")``:
    2 bits per slot, then the bottom and top border flags."""
    nb = 2 * len(digits)
    k = sum(int(ch) << (2 * i) for i, ch in enumerate(digits))
    return k | bottom << nb | top << (nb + 1)


def is_valid_key(k: int, nslots: int) -> bool:
    """True if ``k`` fits ``nslots`` slots and the two flags, its arc ends
    balance (no upper end before its lower end) and it has at most two free
    ends."""
    if not 0 <= k < 1 << (2 * nslots + 2):
        return False
    depth = free = 0
    for i in range(nslots):
        e = (k >> (2 * i)) & 3
        depth += (e == LOWER) - (e == UPPER)
        free += e == FREE
        if depth < 0:
            return False
    return depth == 0 and free <= 2


@lru_cache(maxsize=None)
def valid_keys(nslots: int) -> tuple[int, ...]:
    """Every valid key of ``nslots`` slots, with all four flag combinations.
    Exhaustive; for small widths only."""
    return tuple(k | flags << (2 * nslots)
                 for k in range(1 << (2 * nslots)) if is_valid_key(k, nslots)
                 for flags in range(4))
