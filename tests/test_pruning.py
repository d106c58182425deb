"""Lower-bound admissibility and cost of the prune test.

The central property is admissibility: the bound must never exceed the true
number of steps any real walk still needs.  It is checked here by replaying
every spanning walk of small boxes through the scan and comparing the bound
at every intermediate state against the walk's actual remaining step count.
"""

import pytest

from sawenum.engine import sweep
from sawenum.modseries import DEFAULT_MODULI
from sawenum.pruning import additional_steps_mid

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
            pruned = sweep(width, length, n_max, DEFAULT_MODULI)
            full = sweep(width, length, n_max, DEFAULT_MODULI, prune=False)
            assert any(pruned[length].residues(n_max))
            for c in range(width, length + 1):
                for d in range(n_max + 1):
                    assert pruned[c].residues(d) == full[c].residues(d)


class TestBoundaryBound:
    def test_visit_count_is_linear_in_width(self):
        for width in (3, 7, 11):
            visits = [0, 0]
            additional_steps_mid(0, -1, width, False, False, 0, visits)
            assert visits[1] == 1
            assert visits[0] <= 8 * width + 16


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
