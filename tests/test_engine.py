"""The kink-move transition generator and the column sweep.

The strongest check replays every spanning walk of a small box through the
scan and verifies that each of its state transitions is generated by
``transitions`` with the correct step weight, and that its final step is
reported as a completion.
"""

import pytest

from sawenum import engine
from sawenum.engine import (
    EngineFault,
    field_bits,
    kink_update,
    packed_min_degree,
    seed,
    sweep,
    transitions,
    unpack_coefficients,
)
from sawenum.modseries import DEFAULT_MODULI
from sawenum.oracle import box_spanning_counts
from sawenum.signatures import Signature, encode

from walk_replay import replay, shift_boundary, spanning_walks


def key_of(s, bottom=False, top=False):
    return encode(Signature.from_string(s, bottom, top))


class TestPackedPolynomials:
    def test_field_bits_floor(self):
        assert field_bits(0) == 64
        assert field_bits(43) % 8 == 0
        assert field_bits(43) >= int(1.5 * 43) + 32

    def test_unpack_round_trip(self):
        bits = field_bits(5)
        coeffs = [3, 0, 7, 1, 0, 12]
        packed = sum(c << (bits * d) for d, c in enumerate(coeffs))
        assert unpack_coefficients(packed, bits, 5) == coeffs
        assert packed_min_degree(packed, bits) == 0
        assert packed_min_degree(packed >> bits, bits) == 1


class TestTransitions:
    def test_empty_lattice_stays_empty(self):
        targets, completes = transitions(0, 0, 2, first_col=False)
        assert targets == ((0, 0),) and not completes

    def test_walk_starts_only_in_first_column(self):
        targets, _ = transitions(0, 1, 2, first_col=True)
        keys = dict(targets)
        assert keys[0] == 0
        # single free edge up or right, or a fully free arc
        assert keys[key_of("0300")] == 1
        assert keys[key_of("0030")] == 1
        assert keys[key_of("0330")] == 2

    def test_adjacent_arc_partners_join(self):
        # '1' below '2' on the kink: the arc closes without new edges
        key = key_of("1200", bottom=False, top=False)
        targets, completes = transitions(key, 0, 2, first_col=False)
        assert not completes  # borders untouched: not a legal spanning walk
        key = key_of("1200", bottom=True, top=True)
        targets, completes = transitions(key, 0, 2, first_col=False)
        assert completes and targets == ()

    def test_completion_requires_empty_remainder(self):
        key = key_of("1230", bottom=True, top=True)
        targets, completes = transitions(key, 0, 2, first_col=False)
        assert not completes
        assert (key_of("0030", True, True), 0) in targets

    def test_forbidden_kink_raises(self):
        with pytest.raises(EngineFault):
            transitions(key_of("1100"), 0, 2, first_col=False)

    def test_single_edge_continues_or_turns(self):
        key = key_of("0100")
        targets, _ = transitions(key, 0, 2, first_col=False)
        keys = dict(targets)
        assert keys[key_of("1000", bottom=True)] == 1  # along the row
        assert keys[key_of("0100", bottom=True)] == 1  # upward

    def test_free_end_may_terminate(self):
        key = key_of("0300")
        targets, completes = transitions(key, 0, 2, first_col=False)
        assert not completes
        assert (key_of("0000", bottom=True), 0) not in targets  # empty remainder
        targets, completes = transitions(
            key_of("0300", bottom=True, top=True), 0, 2, first_col=False
        )
        assert completes

    def test_splice_into_enclosing_arc(self):
        # new vertex sits inside arc (0, 3): inserting both edges splits it
        key = key_of("1002")
        targets, _ = transitions(key, 1, 2, first_col=False)
        keys = dict(targets)
        assert keys[key_of("1212")] == 2

    def test_arc_below_flips_its_upper_end(self):
        # arc (0, 1) lies fully below the site at row 2: inserting both new
        # edges relabels the arc's upper end as a lower end
        key = key_of("12000")
        targets, _ = transitions(key, 2, 3, first_col=False)
        keys = dict(targets)
        assert keys[key_of("11220")] == 2

    def test_weights_are_zero_one_or_two_new_edges(self):
        for key, r in [(0, 0), (key_of("0100"), 0), (key_of("1002"), 1)]:
            for _tk, k in transitions(key, r, 2, first_col=True)[0]:
                assert 0 <= k <= 2


class TestKinkUpdate:
    def test_invariant_checking_passes_on_real_sweeps(self):
        bits = field_bits(7)
        mask = (1 << (bits * 8)) - 1
        states = seed()
        for r in range(3):
            states, _ = kink_update(states, 2, r, True, bits, mask,
                                    check_invariants=True)
        assert states


class TestSweepLedger:
    @pytest.mark.parametrize("width,length", [(1, 1), (1, 2), (1, 3), (2, 2)])
    def test_ledger_matches_oracle_boxes(self, width, length):
        n_max = width + 3 * length
        ledger = sweep(width, length, n_max, DEFAULT_MODULI)
        oracle = box_spanning_counts(width, length, n_max)
        got = [2 * r for r in
               (ledger[length].coeffs[0][d] for d in range(n_max + 1))]
        assert got == list(oracle.values)[: n_max + 1]

    def test_width_zero_counts_straight_segments(self):
        # a 0 x L box is spanned only by the straight L-step walk; the ledger
        # counts undirected edge sets, so exactly one completion per column
        ledger = sweep(0, 4, 12, DEFAULT_MODULI)
        assert unpack_like(ledger[3])[3] == 1
        assert sum(unpack_like(ledger[3])) == 1

    def test_rejects_overflowing_width(self):
        with pytest.raises(ValueError):
            sweep(40, 40, 10, DEFAULT_MODULI)

    def test_prune_visits_instrumentation(self):
        visits = [0, 0]
        sweep(2, 3, 9, DEFAULT_MODULI, prune_visits=visits)
        assert visits[1] > 0
        assert visits[0] <= (2 + 2) * visits[1]


def unpack_like(poly):
    return [poly.coeffs[0][d] for d in range(poly.n_max + 1)]


@pytest.mark.parametrize("width,length,n_max", [(1, 2, 7), (2, 2, 9), (2, 3, 10)])
def test_every_real_walk_is_generated(width, length, n_max):
    """Replay: each spanning walk's exact state chain must be produced by
    ``transitions`` step by step, with the step weight equal to the number of
    newly attached edges, ending in a completion."""
    walks = spanning_walks(width, length, n_max)
    assert walks, "test box too small"
    for walk in walks:
        chain = replay(walk, width)
        for before, r, c, k, after in chain:
            targets, completes = transitions(before, r, width, c == 0)
            if after is None:
                assert completes, (walk, r, c)
                break
            engine_targets = dict(
                (shift_boundary(tk, width), kk) if r == width else (tk, kk)
                for tk, kk in targets
            )
            assert after in engine_targets, (walk, r, c)
            assert engine_targets[after] == k, (walk, r, c)


@pytest.mark.slow
def test_every_real_walk_is_generated_wider():
    test_every_real_walk_is_generated(3, 3, 12)

