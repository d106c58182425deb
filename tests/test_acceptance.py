"""Acceptance gate: the eleven top-level correctness criteria.

Each test prints one PASS line on success (pytest shows the failure
otherwise), so `pytest -v tests/test_acceptance.py` reads as a checklist.
Criterion 8 consumes the shipped long series in data/; regenerate it with
scripts/generate_series.py (the committed run took 181 CPU-s with the
compiled kernel, about 1.6 minutes on two cores; see the README's "Long
series").
"""

from fractions import Fraction
from pathlib import Path

import pytest

from sawenum import analysis, engine, flm, oracle
from sawenum.cli import main as cli_main
from sawenum.flm import RunPlan, box_counts, enumerate_series
from sawenum.modseries import DEFAULT_MODULI, crt_reconstruct, read_series

from slot_reads import sample_sweep_reads

DATA = Path(__file__).resolve().parent.parent / "data"

X_C = 0.379052277752
GAMMA = 43 / 32


def ok(msg):
    print(f"PASS: {msg}")


def exact(table):
    return table.to_exact().values


class TestCriterion01OracleEquivalence:
    def test_wmax4_matches_brute_force(self):
        got = exact(enumerate_series(RunPlan(w_max=4)))
        want = list(oracle.count_walks(9).values)
        assert got == want
        ok("criterion 1a: wmax=4 series equals brute force for n <= 9")

    @pytest.mark.slow
    def test_wmax8_matches_brute_force(self):
        got = exact(enumerate_series(RunPlan(w_max=8)))
        want = list(oracle.count_walks(17).values)
        assert got == want
        ok("criterion 1b: wmax=8 series equals brute force for n <= 17")


class TestCriterion02BoxEquivalence:
    @pytest.mark.slow
    def test_all_boxes_up_to_3_by_6(self):
        for width in range(4):
            for length in range(width, 7):
                got = box_counts(width, length, 13)
                want = list(
                    oracle.box_spanning_counts(width, length, 13).values
                )
                assert got == want, (width, length)
        ok("criterion 2: box ledgers equal oracle for W<=3, L<=6, n<=13")


class TestCriterion03PruningSoundness:
    @pytest.mark.parametrize("w_max", [2, 3, 4])
    def test_pruned_equals_unpruned(self, w_max):
        pruned = enumerate_series(RunPlan(w_max=w_max))
        unpruned = enumerate_series(RunPlan(w_max=w_max, prune=False))
        assert pruned.values == unpruned.values
        ok(f"criterion 3: pruned == unpruned for wmax={w_max}")


class TestCriterion04OverlapConsistency:
    @pytest.mark.slow
    def test_wmax12_and_13_agree(self):
        k = 12
        small = enumerate_series(RunPlan(w_max=k)).values
        large = enumerate_series(RunPlan(w_max=k + 1)).values
        assert small == large[: 2 * k + 2]
        ok(f"criterion 4: wmax={k} and {k + 1} agree on n <= {2 * k + 1}")


class TestCriterion05CrtFixture:
    def test_published_counts_reconstruct(self):
        fixtures = {
            72: 11107224538074654820152678182884,
            79: 10194710293557466193787900071923676,
        }
        for n, value in fixtures.items():
            residues = [value % m for m in DEFAULT_MODULI]
            assert crt_reconstruct(residues, DEFAULT_MODULI) == value
        ok("criterion 5: published c_72/c_79 reconstruct from residues")


class TestCriterion06ParallelDeterminism:
    @pytest.mark.slow
    def test_workers_1_vs_8_byte_identical(self, tmp_path):
        a = tmp_path / "w1.series"
        b = tmp_path / "w8.series"
        assert cli_main(["enumerate", "--wmax", "10", "--workers", "1",
                         "-o", str(a)]) == 0
        assert cli_main(["enumerate", "--wmax", "10", "--workers", "8",
                         "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ok("criterion 6: wmax=10 output byte-identical for 1 and 8 workers")


class TestCriterion07SyntheticRecovery:
    def test_power_law_location_and_exponent(self):
        coeffs = [Fraction(1)]
        for n in range(1, 30):
            coeffs.append(coeffs[-1] * 3 * (Fraction(3, 2) + n - 1) / n)
        est = analysis.singularity_estimate(
            coeffs, analysis.balanced_spec(1, 0, 30)
        )
        assert abs(est.x - Fraction(1, 3)) < 1e-8
        assert abs(est.exponent - 1.5) < 1e-8
        ok("criterion 7: (1-3x)^(-3/2) gives x_c=1/3, exponent 3/2")


class TestCriterion08GeneratedSeriesAnalysis:
    @pytest.mark.slow
    def test_da_scan_on_43_term_series(self):
        path = DATA / "saw_counts_n43.series"
        assert path.exists(), (
            "long series missing; run scripts/generate_series.py --wmax 21"
        )
        table = read_series(path)
        assert len(table) == 44
        estimates = analysis.da_scan(table.values, orders=(2,))
        assert estimates, "all approximants defective"
        mean_x, _, mean_exp, _ = analysis.summarize_estimates(estimates)
        assert abs(mean_x - X_C) < 5e-7, mean_x
        assert abs(mean_exp - GAMMA) < 5e-3, mean_exp
        ok("criterion 8: 43-term series gives x_c and gamma at tolerance")


class TestCriterion09MetricOracle:
    @pytest.mark.slow
    def test_integrality_and_small_n_values(self):
        e, g, m = oracle.metric_sums(14)
        for t in (e, g, m):
            assert all(isinstance(v, int) for v in t.values)
        c = oracle.count_walks(14).values
        # <R^2_e>_2 = 8/3 and <R^2_g>_1 = 1/4
        assert Fraction(e.values[2], c[2]) == Fraction(8, 3)
        assert Fraction(g.values[1], 4 * c[1]) == Fraction(1, 4)
        ok("criterion 9: metric series exact to n=14 with known means")


class TestCriterion10UniversalRatio:
    def test_cscps_combination_vanishes(self):
        r = analysis.universal_ratios(0.771182, 0.1081975, 0.339043)
        assert abs(r.f) < 1.5e-5
        ok("criterion 10: F from published amplitudes within 1.5e-5 of 0")


class TestCriterion11PruningCost:
    @pytest.mark.slow
    def test_n_add_visits_linear_in_width(self, monkeypatch):
        """No evaluation of the prune bound reads more than 8W + 16 slots.

        A slot read is a line event on a line of
        ``pruning.additional_steps_mid`` that shifts a slot out of the key
        (``tests/slot_reads.py``), counted from outside the library in every
        16th evaluation at both prune sites of the w_max = 10 sweeps.
        """
        reads = sample_sweep_reads(monkeypatch, 16)
        w_max = 10
        for width in range(w_max + 1):
            reads.clear()
            engine.sweep(width, 2 * w_max - width + 1, 2 * w_max + 1)
            assert reads and max(reads) > 0
            assert max(reads) <= 8 * max(width, 1) + 16, (width, max(reads))
        ok("criterion 11: slots the n_add bound reads per evaluation "
           "bounded by 8W + 16")
