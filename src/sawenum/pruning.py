"""The lower bound on the steps still needed to finish a spanning walk.

A state can be discarded as soon as ``n_cur + n_add`` exceeds the truncation
order N, where ``n_cur`` is the minimum degree of the state's generating
function and ``n_add`` is an admissible (never over-estimating) lower bound on
the number of additional occupied edges.  One function,
``additional_steps_mid``, gives ``n_add`` at every prune site: right after
the kink move at row r, and at a column boundary as row r = -1 on the
start-of-column key, whose slot 0 is the empty kink slot.  ``n_add`` is the
sum of three independent terms:

* connection cost: each prescribed arc from row i to row j needs at least
  ``j - i`` vertical steps, plus ``2 * reach`` horizontal bypass steps, where
  ``reach`` is the number of columns the arc's path is forced away from the
  cut-line: one more than the largest reach among the arcs it directly
  encloses.  Siblings nested inside the same arc share one detour column, so
  the bypass charge depends on the nesting *height* of an arc's subtree, not
  on its depth (a depth-based ``2*l`` charge over-estimates for branching
  nesting patterns and is not admissible);
* border cost: rows still separating the occupied band from an untouched
  bottom/top border, or the whole width while nothing is occupied;
* extension cost: columns still needed to reach length L >= W, less the
  columns the connection detours already guarantee (an arc of reach R forces
  paths R columns past the cut-line, so charging those columns again would
  over-estimate).

A signature with no free edge has both walk end-points already placed, so
every future excursion starts and ends on the cut-line: border dips and
extension columns then cost two steps each instead of one.
"""

from __future__ import annotations

from .signatures import EMPTY, LOWER, UPPER


def additional_steps_mid(
    key: int,
    r: int,
    width: int,
    bottom: bool,
    top: bool,
    column: int,
    visits: list[int] | None = None,
) -> int:
    """n_add for a state right after the kink move at row ``r`` of column
    ``column``; r = -1 is the column boundary, before the first kink move.

    ``key``'s low 2*(width+2) bits hold the slots (higher bits, the border
    flags, are ignored): 0..r are the new right-pointing edges (future
    end-point at row = slot, one column past the cut), slot r+1 the vertical
    kink edge (future end-point at row r+1), slots r+2..width+1 the remaining
    left edges (future end-point at row = slot - 1).  The mapped positions
    are exact.  ``bottom`` and ``top`` are the border-touch flags.
    ``visits`` (when given) accumulates the slot reads in ``visits[0]`` and
    the calls in ``visits[1]``, for the O(W) cost check.

    The connection cost is column-aware.  An arc's reach is the number of
    columns past the cut-line its path is forced: at least 0 when both ends
    sit in the old column, at least 1 otherwise (a new-column or mixed end
    already starts one column over), and always one more than the largest
    reach among the arcs it directly encloses.  The horizontal charge is
    2 * reach minus one already-paid column hop per new-column end (2 for a
    both-new arc, 1 for a mixed arc, 0 for a both-old arc).  Only a lower end
    can be new, and side-by-side arcs share a detour column, so the charge
    follows subtree reach, not nesting depth.
    """
    cost = 0
    depth = 0
    lo = hi = -1
    has_free = False
    lstack = 0  # bit per open arc: 1 if its lower end is a right-pointing edge
    rstack = 0  # 6 bits per open arc: 1 + max reach of closed children
    top_reach = 0
    nslots = width + 2
    for slot in range(nslots):
        e = (key >> (2 * slot)) & 3
        if e == EMPTY:
            continue
        pos = slot if slot <= r + 1 else slot - 1
        if lo < 0:
            lo = pos
        hi = pos
        if e == LOWER:
            depth += 1
            lstack = (lstack << 1) | (slot <= r)
            rstack <<= 6
            cost -= pos
        elif e == UPPER:
            depth -= 1
            lower_is_new = lstack & 1
            lstack >>= 1
            s = rstack & 63
            rstack >>= 6
            if lower_is_new:
                reach = s if s > 1 else 1
                # both-new arcs start a column over at each end; mixed at one
                horiz = 2 * reach - (2 if slot <= r else 1)
            else:
                reach = s
                horiz = 2 * reach
            cost += pos + horiz
            if depth:
                if reach + 1 > (rstack & 63):
                    rstack = (rstack & ~63) | (reach + 1)
            elif reach > top_reach:
                top_reach = reach
        else:
            has_free = True
    if visits is not None:
        visits[0] += nslots
        visits[1] += 1
    new_any = 1 if key & ((1 << (2 * (r + 1))) - 1) else 0
    reached = column + new_any
    credit = max(0, top_reach - new_any)
    if lo >= 0:
        trip = 1 if has_free else 2
        if not bottom:
            cost += trip * lo
        if not top:
            cost += trip * (width - hi)
        cost += trip * max(0, width - reached - credit)
    else:
        if not (bottom and top):
            cost += width
        cost += max(0, width - reached - credit)
    return cost


def additional_steps_packed(
    key: int,
    width: int,
    bottom: bool,
    top: bool,
    column: int,
    visits: list[int] | None = None,
) -> int:
    """The bound at a column boundary, on the start-of-column ``key``.

    A name of its own, so that the two prune sites can be timed apart
    (``bench/tracer.py`` wraps each).
    """
    return additional_steps_mid(key, -1, width, bottom, top, column, visits)
