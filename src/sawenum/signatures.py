"""Cut-line signature algebra on packed keys.

A signature describes the state of the edges intersected by the transfer-matrix
cut-line, read from the bottom of the rectangle to the top.  Each edge is in
one of four states (empty / lower arc end / upper arc end / free end), and two
extra flags record whether the partially built walk has touched the bottom and
top borders.  Lower/upper entries form a balanced non-crossing matching; free
entries mark edges whose continuation terminates at a walk end-point.

The sweeps hold a signature as one integer key: slot ``j``'s state in bits
``2j`` and ``2j + 1``, and the bottom and top border flags in the two bits
above the last slot.  Everything here is a pure function of the key.
"""

from __future__ import annotations

EMPTY, LOWER, UPPER, FREE = 0, 1, 2, 3


def accessible_targets(rest: int, r: int) -> tuple[list[tuple[int, int]],
                                                   list[int]]:
    """Arcs ``(lo, hi)`` and free slots reachable, without crossing an arc,
    from the gap between slots ``r`` and ``r + 1`` of the edge slots
    ``rest`` (no flags; both of those slots empty).

    One bottom-up pass matches the arcs, in the order they close, and
    collects the free ends.  A target is reachable when no arc has exactly
    one end strictly between the gap and the target's nearer end; on
    doubled coordinates the gap sits at ``2r + 1``.  An arc never blocks
    itself, and free ends never block anything, so a free end hidden inside
    an arc (relative to the gap) is unreachable.
    """
    arcs: list[tuple[int, int]] = []
    frees: list[int] = []
    opened: list[int] = []
    pos = 0
    while rest:
        e = rest & 3
        if e == LOWER:
            opened.append(pos)
        elif e == UPPER:
            arcs.append((opened.pop(), pos))
        elif e == FREE:
            frees.append(pos)
        rest >>= 2
        pos += 1
    gap = 2 * r + 1

    def reachable(end: int) -> bool:
        lo2, hi2 = min(end, gap), max(end, gap)
        return not any((lo2 < 2 * lo < hi2) != (lo2 < 2 * hi < hi2)
                       for lo, hi in arcs)

    # an arc's nearer end is its upper end when it lies below the gap, else
    # its lower end (either end serves for an arc enclosing the gap)
    return ([(lo, hi) for lo, hi in arcs
             if reachable(2 * hi if 2 * hi < gap else 2 * lo)],
            [f for f in frees if reachable(2 * f)])


def mirror(key: int, width: int) -> int:
    """The mirror image y -> W - y of the start-of-column ``key`` of a strip
    of width W = ``width``, whose slot 0 is the empty kink slot.

    Slot j and slot W + 2 - j trade places (j >= 1), arc ends trade labels
    (LOWER <-> UPPER; free ends keep theirs) and so do the bottom and top
    border flags.  A state and its mirror image have the same future
    completions, so the sweeps sum both under ``min(key, mirror(key, W))``.
    """
    nslots = width + 2
    out = 0
    for j in range(1, nslots):
        e = (key >> (2 * j)) & 3
        if e == LOWER or e == UPPER:
            e ^= LOWER | UPPER
        out |= e << (2 * (nslots - j))
    fb = 2 * nslots
    return out | ((key >> fb) & 1) << (fb + 1) | ((key >> (fb + 1)) & 1) << fb
