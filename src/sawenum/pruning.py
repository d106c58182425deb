"""The lower bound on the steps still needed to finish a spanning walk.

A state can be discarded as soon as ``n_cur + n_add`` exceeds the truncation
order N, where ``n_cur`` is the minimum degree of the state's generating
function and ``n_add`` is an admissible (never over-estimating) lower bound on
the number of additional occupied edges.  One function,
``additional_steps_mid``, gives ``n_add`` at every prune site: right after
the kink move at row r, and at a column boundary as row r = -1 on the
start-of-column key, whose slot 0 is the empty kink slot.

Every future edge belongs to exactly one *segment*: the path joining the two
ends of a prescribed arc, or the path from a free end to its walk end-point.
Segments share no edges, so costs charged to different segments add, and
vertical and horizontal steps of one segment add too.  By planarity a
segment that an arc encloses stays inside that arc's path and cannot reach a
border.  ``n_add`` is the sum of three terms:

* connection cost: each prescribed arc from row i to row j needs at least
  ``j - i`` vertical steps, plus ``2 * reach`` horizontal bypass steps, where
  ``reach`` is the number of columns the arc's path is forced away from the
  cut-line: one more than the largest reach among the segments it directly
  encloses.  An enclosed arc counts with its own reach; an enclosed free end
  counts as reach 0 (1 when it points into the new column), since its
  end-point is on the walk and the arc must pass it.  Siblings nested inside
  the same arc share one detour column, so the bypass charge depends on the
  nesting *height* of an arc's subtree, not on its depth (a depth-based
  ``2*l`` charge over-estimates for branching nesting patterns and is not
  admissible);
* border cost: each untouched border is charged to the cheapest top-level
  segment that can reach it.  A free end at row p pays p to the bottom and
  W - p to the top; an arc from row i to row j pays 2i and 2(W - j), since
  its path must come back; the kink edge labelled 1 under a left edge
  labelled 2 joins it at the very next vertex and reaches nothing.  With
  nothing occupied the whole width is charged, and a state whose untouched
  border no segment can reach is ``UNREACHABLE``;
* extension cost: columns still needed to reach length L >= W, less the
  columns the connection detours already guarantee (an arc of reach R forces
  paths R columns past the cut-line, so charging those columns again would
  over-estimate).  Without a free end every extension column costs two
  steps, out and back.

The bound is mirror-symmetric on start-of-column keys (row p <-> W - p, arc
ends swapped), which the sweeps rely on: they cap the sum of a state and its
mirror image with the bound of one of the two keys.
"""

from __future__ import annotations

from .signatures import EMPTY, LOWER, UPPER

#: ``n_add`` of a state that leaves an untouched border no segment can
#: reach: it can never complete.
UNREACHABLE = 1 << 30


def additional_steps_mid(
    key: int,
    r: int,
    width: int,
    bottom: bool,
    top: bool,
    column: int,
) -> int:
    """n_add for a state right after the kink move at row ``r`` of column
    ``column``; r = -1 is the column boundary, before the first kink move.

    ``key``'s low 2*(width+2) bits hold the slots (higher bits, the border
    flags, are ignored): 0..r are the new right-pointing edges (future
    end-point at row = slot, one column past the cut), slot r+1 the vertical
    kink edge (future end-point at row r+1), slots r+2..width+1 the remaining
    left edges (future end-point at row = slot - 1).  The mapped positions
    are exact.  ``bottom`` and ``top`` are the border-touch flags.  One
    evaluation reads each slot once, and the kink slot at most once more,
    so its cost is O(W).

    The connection cost is column-aware.  An arc's reach is the number of
    columns past the cut-line its path is forced: at least 0 when both ends
    sit in the old column, at least 1 otherwise (a new-column or mixed end
    already starts one column over), and always one more than the largest
    reach among the segments it directly encloses: an enclosed arc counts
    with its own reach, an enclosed free end with 1 in the new column and 0
    otherwise.  The horizontal charge is 2 * reach minus one already-paid
    column hop per new-column end (2 for a both-new arc, 1 for a mixed arc,
    0 for a both-old arc).  Only a lower end can be new, and side-by-side
    segments share a detour column, so the charge follows subtree reach, not
    nesting depth.

    The border cost charges each untouched border to the cheapest top-level
    segment that can reach it: a free end at row p pays p to the bottom and
    W - p to the top, an arc from row i to row j pays 2i and 2(W - j) on top
    of its connection cost.  The kink edge labelled 1 under a left edge
    labelled 2 joins it at the next vertex and reaches nothing.
    """
    cost = 0
    depth = 0
    has_free = False
    lstack = 0  # bit per open arc: 1 if its lower end is a right-pointing edge
    rstack = 0  # 6 bits per open arc: 1 + max reach of enclosed segments
    top_reach = 0
    low = 0  # row of the open top-level arc's lower end
    # the cheapest top-level segment's steps to the bottom and top border
    to_bottom = to_top = UNREACHABLE
    nslots = width + 2
    for slot in range(nslots):
        e = (key >> (2 * slot)) & 3
        if e == EMPTY:
            continue
        pos = slot if slot <= r + 1 else slot - 1
        if e == LOWER:
            if not depth:
                low = pos
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
            else:
                if reach > top_reach:
                    top_reach = reach
                # a kink 1 under a left-edge 2 is joined at the next vertex
                if slot != r + 2 or (key >> (2 * (r + 1))) & 3 != LOWER:
                    to_bottom = min(to_bottom, 2 * low)
                    to_top = min(to_top, 2 * (width - pos))
        else:
            has_free = True
            if depth:
                # the enclosing arc passes beyond the end-point's column
                child = 2 if slot <= r else 1
                if child > (rstack & 63):
                    rstack = (rstack & ~63) | child
            else:
                to_bottom = min(to_bottom, pos)
                to_top = min(to_top, width - pos)
    new_any = 1 if key & ((1 << (2 * (r + 1))) - 1) else 0
    reached = column + new_any
    credit = max(0, top_reach - new_any)
    if key & ((1 << (2 * nslots)) - 1):
        if to_bottom == UNREACHABLE and not (bottom and top):
            return UNREACHABLE  # no segment can reach an untouched border
        trip = 1 if has_free else 2
        if not bottom:
            cost += to_bottom
        if not top:
            cost += to_top
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
) -> int:
    """The bound at a column boundary, on the start-of-column ``key``.

    A name of its own, so that the two prune sites can be timed apart
    (``bench/tracer.py`` wraps each).
    """
    return additional_steps_mid(key, -1, width, bottom, top, column)
