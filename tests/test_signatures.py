"""Signature algebra: packing, arc matching, reachability, invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sawenum.signatures import (
    EMPTY,
    FREE,
    LOWER,
    UPPER,
    Signature,
    SignatureError,
    accessible_targets,
    all_valid_signatures,
    decode,
    encode,
    is_valid,
    match_arcs,
    mirror,
    validate,
)


def sig(s, bottom=False, top=False):
    return Signature.from_string(s, bottom, top)


class TestEncodeDecode:
    def test_round_trip_exhaustive_small_widths(self):
        for num_edges in range(1, 7):
            seen = set()
            for s in all_valid_signatures(num_edges):
                key = encode(s)
                assert key not in seen, "encoding must be injective"
                seen.add(key)
                assert decode(key, num_edges) == s

    def test_flags_are_separate_bits(self):
        s = sig("0110", bottom=True, top=False)
        t = sig("0110", bottom=False, top=True)
        assert encode(s) != encode(t)
        assert decode(encode(s), 4).bottom_touched
        assert not decode(encode(s), 4).top_touched

    def test_bad_edge_state_rejected(self):
        with pytest.raises(SignatureError):
            encode(Signature((0, 7)))

    def test_key_out_of_range_rejected(self):
        with pytest.raises(SignatureError):
            decode(1 << 10, 3)
        with pytest.raises(SignatureError):
            decode(-1, 3)

    @given(st.integers(1, 8), st.data())
    def test_round_trip_random(self, num_edges, data):
        edges = tuple(
            data.draw(st.sampled_from((EMPTY, LOWER, UPPER, FREE)))
            for _ in range(num_edges)
        )
        s = Signature(edges, data.draw(st.booleans()), data.draw(st.booleans()))
        assert decode(encode(s), num_edges) == s


class TestMatchArcs:
    def test_nested_pair(self):
        arcs = match_arcs(sig("1122"))
        assert arcs == [(0, 3, 0), (1, 2, 1)]

    def test_sequential_pairs_have_level_zero(self):
        assert match_arcs(sig("1212")) == [(0, 1, 0), (2, 3, 0)]

    def test_free_and_empty_ignored(self):
        assert match_arcs(sig("301020")) == [(2, 4, 0)]

    def test_unbalanced_raises(self):
        with pytest.raises(SignatureError):
            match_arcs(sig("12121"))
        with pytest.raises(SignatureError):
            match_arcs(sig("212"))

    @given(st.integers(1, 6), st.data())
    def test_arcs_are_noncrossing_with_consistent_levels(self, n, data):
        sigs = [s for s in all_valid_signatures(n)
                if not s.bottom_touched and not s.top_touched]
        s = data.draw(st.sampled_from(sigs))
        arcs = match_arcs(s)
        for a in arcs:
            assert s.edges[a.lower] == LOWER and s.edges[a.upper] == UPPER
            # level = number of arcs strictly enclosing this one
            enclosing = sum(
                1 for b in arcs if b.lower < a.lower and b.upper > a.upper
            )
            assert a.level == enclosing
            for b in arcs:
                crossed = a.lower < b.lower < a.upper < b.upper
                assert not crossed, "arcs must be non-crossing"


class TestValidate:
    def test_valid_examples(self):
        for s in ("0000", "1122", "1212", "3003", "10320"):
            assert is_valid(sig(s)), s

    def test_unbalanced_rejected(self):
        assert validate(sig("112")) is not None
        assert validate(sig("221")) is not None

    def test_too_many_free_edges_rejected(self):
        assert validate(sig("333")) is not None
        assert validate(sig("303003")) is not None

    def test_all_valid_signatures_agree_with_validate(self):
        listed = {encode(s) for s in all_valid_signatures(4)}
        brute = set()
        for key in range(1 << (2 * 4 + 2)):
            try:
                s = decode(key, 4)
            except SignatureError:
                continue
            if is_valid(s):
                brute.add(key)
        assert listed == brute


class TestAccessibleTargets:
    def test_open_arc_is_reachable(self):
        arcs, frees = accessible_targets(sig("1002"), 1.5)
        assert arcs == [(0, 3, 0)] and frees == []

    def test_free_edge_hidden_inside_arc_is_blocked(self):
        # the free edge at 1 sits inside arc (0, 3); from site 3.5 the arc has
        # exactly one endpoint in between, so the free edge is unreachable
        arcs, frees = accessible_targets(sig("13020"), 3.5)
        assert 1 not in frees
        assert (0, 3, 0) in arcs

    def test_arc_endpoint_between_site_and_target_blocks(self):
        # arc (1, 4) separates the free edge at 0 from site 2.5 (endpoint 1 is
        # in between, endpoint 4 is not) but is itself reachable
        arcs, frees = accessible_targets(sig("31002"), 2.5)
        assert 0 not in frees
        assert (1, 4, 0) in arcs

    def test_free_edges_never_block(self):
        _, frees = accessible_targets(sig("3030"), 3.5)
        assert frees == [0, 2]

    def test_only_innermost_enclosing_arc_reachable(self):
        # from a site between nested arcs only the innermost enclosing arc is
        # reachable; the outer one is screened by the inner one
        arcs, _ = accessible_targets(sig("110022"), 2.5)
        assert (1, 4, 1) in arcs
        assert (0, 5, 0) not in arcs


class TestMirror:
    """The reflection y -> W - y of start-of-column keys, under which the
    sweeps merge states at column boundaries."""

    def test_example(self):
        # width 3: slot j <-> slot 5 - j, arc labels swapped, free end kept
        key = encode(sig("01203", bottom=True))
        assert decode(mirror(key, 3), 5) == sig("03012", top=True)

    @pytest.mark.parametrize("width", range(7))
    def test_is_an_involution_on_boundary_signatures(self, width):
        for s in all_valid_signatures(width + 2):
            if s.edges[0] != EMPTY:
                continue  # slot 0 is the empty kink slot at a boundary
            key = encode(s)
            image = decode(mirror(key, width), width + 2)
            assert is_valid(image)
            assert image.edges[0] == EMPTY
            assert image.bottom_touched == s.top_touched
            assert image.top_touched == s.bottom_touched
            assert mirror(encode(image), width) == key
