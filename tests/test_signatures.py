"""Signature algebra on packed keys: reachability, the mirror image, and the
invariants of the test helper ``keys``."""

from math import comb

import pytest

from sawenum.signatures import (EMPTY, FREE, LOWER, UPPER, accessible_targets,
                                mirror)

from keys import is_valid_key, key, valid_keys


class TestValidate:
    def test_valid_examples(self):
        for s in ("0000", "1122", "1212", "3003", "10320"):
            assert is_valid_key(key(s), len(s)), s
        assert not is_valid_key(key("0000") | 1 << 10, 4)  # past the flags

    def test_unbalanced_rejected(self):
        assert not is_valid_key(key("112"), 3)
        assert not is_valid_key(key("221"), 3)

    def test_too_many_free_edges_rejected(self):
        assert not is_valid_key(key("333"), 3)
        assert not is_valid_key(key("303003"), 6)

    def test_all_valid_signatures_agree_with_validate(self):
        # the keys is_valid_key accepts, counted independently: f free ends
        # in n slots leave a balanced word of 0/1/2 in the other n - f,
        # counted by the Motzkin numbers; times four flag settings
        motzkin = [1, 1, 2, 4, 9, 21, 51]
        for n in range(1, 7):
            want = 4 * sum(comb(n, f) * motzkin[n - f] for f in range(3))
            assert len(set(valid_keys(n))) == want


def _arcs(slots):
    """Each lower end paired with the upper end where the depth it opens
    returns to zero."""
    arcs = []
    for lo, e in enumerate(slots):
        if e == LOWER:
            depth = 0
            for hi in range(lo, len(slots)):
                depth += (slots[hi] == LOWER) - (slots[hi] == UPPER)
                if depth == 0:
                    break
            arcs.append((lo, hi))
    return arcs


def _face(arcs, p):
    """The innermost arc enclosing doubled position ``p``, or None."""
    return min((a for a in arcs if 2 * a[0] < p < 2 * a[1]),
               key=lambda a: a[1] - a[0], default=None)


class TestAccessibleTargets:
    def test_open_arc_is_reachable(self):
        assert accessible_targets(key("1002"), 1) == ([(0, 3)], [])

    def test_free_edge_hidden_inside_arc_is_blocked(self):
        # the free edge at 1 sits inside arc (0, 3); from the gap above slot
        # 4 the arc has exactly one endpoint in between, so the free edge is
        # unreachable
        arcs, frees = accessible_targets(key("130200"), 4)
        assert 1 not in frees
        assert (0, 3) in arcs

    def test_arc_endpoint_between_site_and_target_blocks(self):
        # arc (1, 4) separates the free edge at 0 from the gap above slot 2
        # (endpoint 1 is in between, endpoint 4 is not) but is itself
        # reachable
        arcs, frees = accessible_targets(key("31002"), 2)
        assert 0 not in frees
        assert (1, 4) in arcs

    def test_free_edges_never_block(self):
        _, frees = accessible_targets(key("30300"), 3)
        assert frees == [0, 2]

    def test_only_innermost_enclosing_arc_reachable(self):
        # from a gap between nested arcs only the innermost enclosing arc is
        # reachable; the outer one is screened by the inner one
        arcs, _ = accessible_targets(key("110022"), 2)
        assert (1, 4) in arcs
        assert (0, 5) not in arcs

    def test_matches_planar_faces_exhaustively(self):
        # planarity: a path right of the cut-line from the gap reaches a
        # free end when both lie in the same face of the arcs, and an arc
        # when the gap lies just inside it or in the face just outside it
        pairs = 0
        for nslots in range(2, 9):
            for k in valid_keys(nslots):
                if k >> (2 * nslots):
                    continue  # the flags play no part
                slots = [(k >> (2 * i)) & 3 for i in range(nslots)]
                arcs = _arcs(slots)
                for r in range(nslots - 1):
                    if slots[r] or slots[r + 1]:
                        continue
                    face = _face(arcs, 2 * r + 1)
                    got_arcs, got_frees = accessible_targets(k, r)
                    assert sorted(got_arcs) == [
                        a for a in arcs
                        if face in (a, _face(arcs, 2 * a[0] - 1))], (k, r)
                    assert got_frees == [
                        f for f, e in enumerate(slots)
                        if e == FREE and _face(arcs, 2 * f) == face], (k, r)
                    pairs += 1
        assert pairs == 3077  # (key, row) pairs, none skipped


class TestMirror:
    """The reflection y -> W - y of start-of-column keys, under which the
    sweeps merge states at column boundaries."""

    def test_example(self):
        # width 3: slot j <-> slot 5 - j, arc labels swapped, free end kept
        assert mirror(key("01203", bottom=True), 3) == key("03012", top=True)

    @pytest.mark.parametrize("width", range(7))
    def test_is_an_involution_on_boundary_signatures(self, width):
        nslots = width + 2
        fb = 2 * nslots
        for k in valid_keys(nslots):
            if k & 3 != EMPTY:
                continue  # slot 0 is the empty kink slot at a boundary
            image = mirror(k, width)
            assert is_valid_key(image, nslots)
            assert image & 3 == EMPTY
            assert image >> fb == (k >> fb & 1) << 1 | k >> (fb + 1)
            assert mirror(image, width) == k
