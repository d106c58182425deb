"""Lower-bound admissibility and cost of the prune test.

The central property is admissibility: the bound must never exceed the true
number of steps any real walk still needs.  It is checked here by replaying
every spanning walk of small boxes through the scan and comparing the bound
at every intermediate state against the walk's actual remaining step count.
"""

from functools import lru_cache

import pytest

from sawenum.engine import sweep
from sawenum.pruning import UNREACHABLE, additional_steps_mid
from sawenum.signatures import EMPTY, FREE, LOWER, UPPER, mirror

from keys import valid_keys
from slot_reads import slot_reads
from walk_replay import replay, spanning_walks


def n_add(rows, bottom, top, column):
    """The bound on a column boundary (row -1) for a row string; the
    start-of-column key has the empty kink slot 0, row q at slot q + 1.
    Touched borders leave out the border cost and a column >= width the
    extension cost, so the cases below isolate their terms."""
    key = 0
    for q, ch in enumerate(rows):
        key |= int(ch) << (2 * (q + 1))
    return additional_steps_mid(key, -1, len(rows) - 1, bottom, top, column)


def connection_cost(rows):
    return n_add(rows, True, True, len(rows) - 1)


def mid_add(slots, r, bottom, top, column):
    """The bound right after the kink move at row ``r``, for a string of
    slots 0..W+1: 0..r new right-pointing edges, r+1 the kink edge, the rest
    left edges."""
    key = 0
    for q, ch in enumerate(slots):
        key |= int(ch) << (2 * q)
    return additional_steps_mid(key, r, len(slots) - 2, bottom, top, column)


class TestConnectionCost:
    def test_single_arc(self):
        # an innermost arc from i to j needs j - i edges and no detour
        assert connection_cost("12") == 1
        assert connection_cost("1002") == 3

    def test_nested_arcs_add_detours(self):
        # inner (1,2) costs 1; outer (0,3) costs 3 + 2 for bypassing it
        assert connection_cost("1122") == 6
        # a chain of three pays 1, 3 + 2, 5 + 4
        assert connection_cost("111222") == 15

    def test_sequential_arcs(self):
        assert connection_cost("1212") == 2

    def test_siblings_share_a_detour_column(self):
        # (1,2) and (3,4) cost 1 each; the outer (0,5) bypasses both side-by-
        # side inner arcs with a single two-step detour, not one per sibling
        assert connection_cost("112122") == 1 + 1 + 5 + 2

    def test_enclosed_free_end_forces_a_detour(self):
        # the end-point at row 1 is on the walk, so the arc (0,3) must pass
        # it one column over: 3 + 2
        assert connection_cost("1302") == 3 + 2
        # it counts as a child of reach 0: inner (1,3) 2 + 2, outer (0,5)
        # 5 + 4
        assert connection_cost("113202") == 4 + 9

    def test_new_column_free_end_forces_a_wider_detour(self):
        # W = 4 after row 2: the both-new arc (0,2) must pass the new end at
        # row 1, which sits a column over already: reach 2, so 2 up and one
        # hop out and back
        assert mid_add("132000", 2, True, True, 4) == 2 + 2
        # W = 3 after row 1: the mixed arc from row 0 (new) to row 2 (left
        # edge) around the new end at row 1: 2 up, 2 out, 1 back
        assert mid_add("13020", 1, True, True, 3) == 2 + 3


class TestBorderCost:
    def test_touched_borders_cost_nothing(self):
        assert n_add("30003", True, True, 4) == 0

    def test_untouched_borders_cost_the_gap(self):
        # occupied band is rows 1..2, free edge present: one step per row
        assert n_add("03300", False, False, 4) == 1 + 2

    def test_no_free_edge_doubles_the_dip(self):
        # both endpoints placed: every excursion must return to the cut-line
        # (on top of the arc's connection cost 1)
        assert n_add("01200", False, False, 4) == 1 + 2 * 1 + 2 * 2
        assert n_add("01200", True, False, 4) == 1 + 2 * 2

    def test_each_border_goes_to_the_cheapest_segment(self):
        # top border: the free end at row 0 pays 4 rows, the arc (2,3) pays
        # one row there and back (on top of its connection cost 1)
        assert n_add("30120", True, False, 4) == 1 + 2
        # bottom border: the free end at row 4 pays 4, the arc (0,1) nothing
        assert n_add("12003", False, True, 4) == 1

    def test_enclosed_segments_reach_no_border(self):
        # the free end at row 1 is inside the arc (0,3), so only the arc can
        # reach the top: (3 + 2) + 2 * 1
        assert n_add("13020", True, False, 4) == 5 + 2

    def test_joined_kink_pair_reaches_nothing(self):
        # W = 3 after row 0: the kink 1 and the left-edge 2 above it meet at
        # the next vertex, so the new free end at row 0 must reach the top
        assert mid_add("31200", 0, True, False, 3) == 3
        # with nothing else left, an untouched border can never be reached
        assert mid_add("0120", 0, True, False, 2) == UNREACHABLE
        assert mid_add("0120", 0, True, True, 2) == 0

    def test_empty_signature_needs_full_span(self):
        assert n_add("00000", False, False, 4) == 4
        assert n_add("00000", True, True, 4) == 0
        # the untouched seed pays border and extension at once
        assert n_add("00000", False, False, 0) == 4 + 4


class TestExtensionCost:
    def test_columns_remaining(self):
        assert n_add("300000", True, True, 2) == 3
        assert n_add("300000", True, True, 7) == 0

    def test_nesting_detours_reach_forward(self):
        # an arc of reach R forces paths R columns past the cut-line, so
        # those columns are not charged again (connection cost 15 as above)
        assert n_add("1112223", True, True, 3) == 15 + 1
        assert n_add("1112223", True, True, 5) == 15

    def test_no_free_edge_doubles(self):
        assert n_add("120000", True, True, 2) == 1 + 2 * 3


class TestShouldPrune:
    def test_threshold(self):
        # the shortest spanning walks need n_cur + n_add == n_max steps
        # exactly; the sweep drops only degrees with n_cur + n_add > n_max.
        # (The bound assumes length >= width, so only those columns count.)
        for width, length in ((1, 2), (2, 2), (2, 3)):
            n_max = width + length
            pruned = sweep(width, length, n_max)
            full = sweep(width, length, n_max, prune=False)
            assert pruned[length][n_max]
            assert pruned[width:] == full[width:]


class TestBoundaryBound:
    def test_visit_count_is_linear_in_width(self):
        reads = []
        for width in (3, 7, 11):
            _, (n,) = slot_reads(additional_steps_mid, 0, -1, width, False,
                                 False, 0)
            assert 0 < n <= 8 * width + 16
            reads.append(n)
        # evenly spaced widths: a linear count grows by equal steps
        assert reads[1] - reads[0] == reads[2] - reads[1]

    @pytest.mark.parametrize("width", range(7))
    def test_is_mirror_symmetric(self, width):
        # the sweeps sum a state and its mirror image at column boundaries
        # and bound the sum by one of the two keys: both must give the same
        fb = 2 * (width + 2)
        for key in valid_keys(width + 2):
            if key & 3 != EMPTY:
                continue
            image = mirror(key, width)
            bottom, top = bool(key >> fb & 1), bool(key >> fb & 2)
            for column in range(width + 2):
                assert (additional_steps_mid(key, -1, width, bottom, top,
                                             column)
                        == additional_steps_mid(image, -1, width, top,
                                                bottom, column))


@lru_cache(maxsize=None)
def _true_remaining(width, length, n_max):
    """Map each (state, kind, position) visited by any real walk to the
    smallest number of steps that walk still needed there.

    kind 'boundary' states use the start-of-column layout (after the shift);
    kind 'mid' states are taken right after the kink move at their row.
    """
    best = {}
    for walk in spanning_walks(width, length, n_max):
        total = len(walk) - 1
        used = 0
        for before, r, c, k, after in replay(walk, width):
            if r == 0:
                key = ("boundary", c, before)
                best[key] = min(best.get(key, total), total - used)
            used += k
            if after is not None and r < width:
                key = ("mid", r, min(c, width), after)
                best[key] = min(best.get(key, total), total - used)
    return best


@pytest.mark.parametrize("width,length,n_max", [(1, 3, 9), (2, 2, 9), (2, 3, 10)])
def test_bounds_are_admissible(width, length, n_max):
    """The bound never exceeds a real walk's remaining step count, on a
    column boundary (row -1) or after a kink move."""
    fb = 2 * (width + 2)
    for key, remaining in _true_remaining(width, length, n_max).items():
        kind = key[0]
        state = key[-1]
        bottom = bool(state & (1 << fb))
        top = bool(state & (2 << fb))
        if kind == "boundary":
            _, column, _ = key
            r = -1
        else:
            _, r, column, _ = key
        bound = additional_steps_mid(
            state & ((1 << fb) - 1), r, width, bottom, top, column
        )
        assert bound <= remaining, (key, bound, remaining)


@pytest.mark.slow
def test_bounds_are_admissible_wider_box():
    test_bounds_are_admissible(3, 3, 12)


def _reference_bound(key, r, width, bottom, top, column, enclosed_ends=True,
                     per_segment=True, joined_kink=True):
    """``additional_steps_mid`` built segment by segment from the matched
    arcs.  Each flag turns one tightening off: ``enclosed_ends`` (a free end
    inside an arc widens the arc's detour), ``per_segment`` (each untouched
    border goes to the cheapest top-level segment rather than the occupied
    band's edge, times 2 without a free end) and ``joined_kink`` (the kink 1
    under a left-edge 2 reaches no border).  All three off is the bound
    before these rules."""
    slots = [(key >> (2 * s)) & 3 for s in range(width + 2)]

    def pos(s):
        return s if s <= r + 1 else s - 1

    def new(s):
        return s <= r

    segs = []  # [lower slot, upper slot, enclosing arc's index]; free: lo == hi
    open_arcs = []
    for s, e in enumerate(slots):
        parent = open_arcs[-1] if open_arcs else None
        if e == LOWER:
            open_arcs.append(len(segs))
            segs.append([s, None, parent])
        elif e == UPPER:
            segs[open_arcs.pop()][1] = s
        elif e == FREE:
            segs.append([s, s, parent])
    if not segs:
        return (0 if bottom and top else width) + max(0, width - column)
    reach = {}
    for i in reversed(range(len(segs))):  # an arc's children follow it
        lo, hi, _ = segs[i]
        if lo == hi:
            continue
        kids = [reach[j] if segs[j][0] != segs[j][1] else int(new(segs[j][0]))
                for j in range(i + 1, len(segs)) if segs[j][2] == i
                and (enclosed_ends or segs[j][0] != segs[j][1])]
        reach[i] = max([int(new(lo))] + [k + 1 for k in kids])
    cost = sum(pos(hi) - pos(lo) + 2 * reach[i] - new(lo) - new(hi)
               for i, (lo, hi, _) in enumerate(segs) if lo != hi)
    outer = [i for i, sg in enumerate(segs) if sg[2] is None]
    top_reach = max([reach.get(i, 0) for i in outer])
    new_any = any(slots[:r + 1])
    trip = 2 if all(lo != hi for lo, hi, _ in segs) else 1
    extension = max(0, width - column - max(top_reach, int(new_any)))
    if per_segment:
        to_bottom, to_top = [], []
        for i in outer:
            lo, hi, _ = segs[i]
            if lo == hi:
                to_bottom.append(pos(lo))
                to_top.append(width - pos(lo))
            elif not joined_kink or (lo, hi) != (r + 1, r + 2):
                to_bottom.append(2 * pos(lo))
                to_top.append(2 * (width - pos(hi)))
        if not (bottom and top) and not to_bottom:
            return UNREACHABLE
        border = ((0 if bottom else min(to_bottom))
                  + (0 if top else min(to_top)))
    else:
        rows = [pos(s) for s, e in enumerate(slots) if e]
        border = trip * ((0 if bottom else min(rows))
                         + (0 if top else width - max(rows)))
    return cost + border + trip * extension


@pytest.mark.parametrize("width", range(6))
def test_bound_matches_segment_reference(width):
    fb = 2 * (width + 2)
    for flagged in valid_keys(width + 2):
        key = flagged & ((1 << fb) - 1)
        bottom, top = bool(flagged >> fb & 1), bool(flagged >> fb & 2)
        for r in range(-1, width):
            if r == -1 and key & 3 != EMPTY:
                continue
            for column in (0, width // 2, width):
                args = (key, r, width, bottom, top, column)
                assert additional_steps_mid(*args) == _reference_bound(*args)


RULES = ("enclosed_ends", "per_segment", "joined_kink")


@pytest.mark.slow
def test_each_rule_raises_the_bound():
    """On the states of every real walk of the 3 x 3 box, the bound equals
    the segment reference, never falls below the bound without the rules,
    and each rule alone raises it on some state, so the admissibility replay
    of that box checks all of them (on the smaller boxes the joined kink
    pair never raises it)."""
    width, length, n_max = 3, 3, 12
    fb = 2 * (width + 2)
    raised = dict.fromkeys(RULES, 0)
    for kind, *where, state in _true_remaining(width, length, n_max):
        r = -1 if kind == "boundary" else where[0]
        args = (state & ((1 << fb) - 1), r, width, bool(state & (1 << fb)),
                bool(state & (2 << fb)), where[-1])
        bound = additional_steps_mid(*args)
        assert bound == _reference_bound(*args)
        old = _reference_bound(*args, **dict.fromkeys(RULES, False))
        assert old <= bound
        for rule in RULES:
            if bound > _reference_bound(*args, **{rule: False}):
                assert bound > old
                raised[rule] += 1
    assert all(raised.values()), raised
