"""Brute-force ground truth: walk counts, box spanning counts, metric sums."""

import pytest

from sawenum.oracle import box_spanning_counts, count_walks, metric_sums

# walk counts by length on the square lattice (directed, modulo translation)
KNOWN_COUNTS = [1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292]


class TestCountWalks:
    def test_known_values(self):
        assert list(count_walks(11).values) == KNOWN_COUNTS

    def test_matches_unoptimized_dfs(self):
        # independent check without the symmetry trick
        n_max = 6
        counts = [0] * (n_max + 1)
        counts[0] = 1
        occ = {(0, 0)}

        def rec(x, y, depth):
            if depth == n_max:
                return
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                p = (x + dx, y + dy)
                if p not in occ:
                    counts[depth + 1] += 1
                    occ.add(p)
                    rec(p[0], p[1], depth + 1)
                    occ.remove(p)

        rec(0, 0, 0)
        assert list(count_walks(n_max).values) == counts

    def test_metadata(self):
        t = count_walks(3)
        assert t.is_exact and t.metadata["quantity"] == "count"


class TestBoxSpanningCounts:
    def test_single_cell_column(self):
        # 0 x 1 box: only the one-step horizontal walk (both directions)
        t = box_spanning_counts(0, 1, 3)
        assert list(t.values) == [0, 2, 0, 0]

    def test_unit_square(self):
        # 1 x 1 box: spanning needs >= 2 steps; 2-step walks are the 4 corner
        # paths x 2 directions = 8
        t = box_spanning_counts(1, 1, 4)
        assert t.values[0] == 0 and t.values[1] == 0
        assert t.values[2] == 8
        # 3 steps: 4 U-shapes x 2 directions
        assert t.values[3] == 8
        # 4 steps would revisit a vertex on the 2 x 2 grid
        assert t.values[4] == 0

    def test_width_greater_than_length_rejected(self):
        with pytest.raises(ValueError):
            box_spanning_counts(2, 1, 5)

    def test_counts_are_directed(self):
        # every undirected spanning edge set is counted exactly twice
        t = box_spanning_counts(1, 2, 7)
        assert all(v % 2 == 0 for v in t.values)


class TestMetricSums:
    def test_one_step_walks(self):
        e, g, m = metric_sums(1)
        # four 1-step walks, each with squared end-to-end distance 1
        assert e.values[1] == 4
        # squared radius of gyration 1/4 each, times (n+1)^2 c_n = 16
        assert g.values[1] == 4
        # mean squared monomer-end distance 1/2, times (n+1) c_n = 8
        assert m.values[1] == 4

    def test_two_step_mean_distance(self):
        e, _, _ = metric_sums(2)
        c2 = count_walks(2).values[2]
        assert e.values[2] * 3 == 8 * c2  # <R^2_e>_2 = 8/3

    def test_matches_direct_sums(self):
        # independent direct enumeration of all walks up to n = 5
        n_max = 5
        e = [0] * (n_max + 1)
        g = [0] * (n_max + 1)
        m2 = [0] * (n_max + 1)
        occ = {(0, 0)}

        def rec(path):
            n = len(path) - 1
            if n >= 1:
                ex, ey = path[-1]
                e[n] += ex * ex + ey * ey
                sx = sum(p[0] for p in path)
                sy = sum(p[1] for p in path)
                sq = sum(p[0] ** 2 + p[1] ** 2 for p in path)
                g[n] += (n + 1) * sq - sx * sx - sy * sy
                m2[n] += sum(
                    (p[0] ** 2 + p[1] ** 2)
                    + ((ex - p[0]) ** 2 + (ey - p[1]) ** 2)
                    for p in path
                )
            if n == n_max:
                return
            x, y = path[-1]
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                p = (x + dx, y + dy)
                if p not in occ:
                    occ.add(p)
                    path.append(p)
                    rec(path)
                    path.pop()
                    occ.remove(p)

        rec([(0, 0)])
        te, tg, tm = metric_sums(n_max)
        assert list(te.values) == e
        assert list(tg.values) == g
        assert [2 * v for v in tm.values] == m2


@pytest.mark.parametrize("oracle", [
    count_walks, metric_sums, lambda n_max: box_spanning_counts(1, 2, n_max)])
def test_negative_n_max_is_refused(oracle):
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        oracle(-1)
