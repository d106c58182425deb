"""Rectangle assembly: full-plane series from per-width sweeps."""

import pytest

from sawenum import ckernel, engine, flm, oracle
from sawenum.flm import RunPlan, assemble, box_counts, enumerate_series
from sawenum.modseries import (DEFAULT_MODULI, TruncatedPolynomial,
                               crt_reconstruct)

from test_generate_series import reduced

needs_compiler = pytest.mark.skipif(
    not ckernel.available(), reason="no C compiler to build the kernel")


def exact(table):
    return table.to_exact().values


class TestRunPlan:
    def test_n_max(self):
        assert RunPlan(w_max=4).n_max == 9

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            RunPlan(w_max=-1)

    def test_rejects_non_coprime_moduli(self):
        with pytest.raises(ValueError):
            RunPlan(w_max=2, moduli=(6, 10))


class TestEnumerate:
    @pytest.mark.parametrize("w_max", [0, 1, 2, 3])
    def test_matches_oracle(self, w_max):
        n_max = 2 * w_max + 1
        got = exact(enumerate_series(RunPlan(w_max=w_max)))
        want = list(oracle.count_walks(n_max).values)
        assert got == want

    def test_c0_is_one(self):
        assert exact(enumerate_series(RunPlan(w_max=0)))[0] == 1

    @pytest.mark.parametrize("w_max", [2, 3])
    def test_pruning_soundness(self, w_max):
        pruned = enumerate_series(RunPlan(w_max=w_max))
        unpruned = enumerate_series(RunPlan(w_max=w_max, prune=False))
        assert pruned.values == unpruned.values

    def test_workers_produce_identical_values(self):
        one = enumerate_series(RunPlan(w_max=3, workers=1))
        four = enumerate_series(RunPlan(w_max=3, workers=4))
        assert one.values == four.values

    def test_overlap_between_adjacent_cutoffs(self):
        small = exact(enumerate_series(RunPlan(w_max=2)))
        large = exact(enumerate_series(RunPlan(w_max=3)))
        assert small == large[: len(small)]

    def test_single_modulus_run_agrees(self):
        default = exact(enumerate_series(RunPlan(w_max=3)))
        single = enumerate_series(RunPlan(w_max=3, moduli=(2**61 - 1,)))
        assert [v[0] for v in single.values] == default

    def test_assemble_matches_enumerate(self):
        from sawenum import engine

        plan = RunPlan(w_max=3)
        ledgers = [
            [TruncatedPolynomial.from_integers(plan.moduli, plan.n_max, col)
             for col in engine.sweep(w, 2 * plan.w_max - w + 1, plan.n_max)]
            for w in range(plan.w_max + 1)
        ]
        assert assemble(ledgers, plan).values == enumerate_series(plan).values


class TestBoxCounts:
    @pytest.mark.parametrize("width,length", [(1, 2), (2, 2), (2, 3)])
    def test_matches_oracle_boxes(self, width, length):
        n_max = width + 3 * length
        poly = box_counts(width, length, n_max)
        got = [
            crt_reconstruct(poly.residues(d), poly.moduli)
            for d in range(n_max + 1)
        ]
        want = list(oracle.box_spanning_counts(width, length, n_max).values)
        assert got == want

    def test_rejects_wide_boxes(self):
        with pytest.raises(ValueError):
            box_counts(3, 2, 11)

    def test_minimum_degree_spans_the_box(self):
        poly = box_counts(2, 3, 12)
        first = next(
            d for d in range(13)
            if any(poly.residues(d))
        )
        assert first == 2 + 3


def force_engine(monkeypatch):
    """Act as if no C compiler were found, and fail if the kernel runs."""
    def no_kernel(*args, **kwargs):
        raise AssertionError("the compiled kernel ran")

    monkeypatch.setattr(ckernel, "available", lambda: False)
    monkeypatch.setattr(ckernel, "sweep_residues", no_kernel)


class TestSweepChoice:
    """``flm._sweep`` runs the compiled kernel when a C compiler is found and
    the Python engine otherwise; both must give the same ledgers."""

    @pytest.mark.parametrize("w_max", range(7))
    def test_engine_fallback_matches_oracle_and_kernel(self, monkeypatch,
                                                        w_max):
        on_kernel = enumerate_series(RunPlan(w_max=w_max))
        force_engine(monkeypatch)
        on_engine = enumerate_series(RunPlan(w_max=w_max))
        assert on_engine.values == on_kernel.values
        assert exact(on_engine) == list(oracle.count_walks(2 * w_max + 1).values)

    @pytest.mark.parametrize("width,length", [(1, 2), (2, 2), (2, 3)])
    def test_engine_fallback_box_matches_oracle(self, monkeypatch, width,
                                                length):
        force_engine(monkeypatch)
        n_max = width + 3 * length
        poly = box_counts(width, length, n_max)
        got = [crt_reconstruct(poly.residues(d), poly.moduli)
               for d in range(n_max + 1)]
        want = list(oracle.box_spanning_counts(width, length, n_max).values)
        assert got == want

    @needs_compiler
    @pytest.mark.parametrize("width,length", [(3, 40), (4, 40), (1, 90)])
    def test_kernel_covers_long_boxes(self, width, length):
        # the CLI's default n_max of these boxes (123, 124 and 271) once
        # overflowed the kernel's fixed degree window or its 8-bit degree
        # fields
        n_max = width + 3 * length
        ledger, stats = flm._sweep(width, length, n_max, DEFAULT_MODULI)
        assert stats["kernel"] == "c"
        want = engine.sweep(width, length, n_max)
        assert [p.coeffs for p in ledger] == reduced(want, DEFAULT_MODULI)
        assert box_counts(width, length, n_max).coeffs == reduced(
            [[2 * v for v in want[length]]], DEFAULT_MODULI)[0]

    @needs_compiler
    def test_kernel_adds_safely_near_two_to_the_64(self):
        # counts of this sweep reach 2**79, so residues modulo the largest
        # prime below 2**64 fill the word and their sums wrap past it
        moduli = (2**64 - 59,)
        ledger, stats = flm._sweep(3, 30, 100, moduli)
        assert stats["kernel"] == "c"
        want = engine.sweep(3, 30, 100)
        # the engine counts exactly, past the 64-bit words the kernel uses
        assert max(max(col) for col in want) > 2**64
        assert [p.coeffs for p in ledger] == reduced(want, moduli)

    @pytest.mark.parametrize("width,l_max,n_max",
                             [(-1, 3, 10), (2, -1, 10), (2, 3, -1), (29, 29, 10)])
    def test_bad_sizes_are_refused_before_either_sweep(self, width, l_max,
                                                       n_max):
        with pytest.raises(ValueError):
            flm._sweep(width, l_max, n_max, DEFAULT_MODULI)

    @pytest.mark.parametrize("moduli", [(2**64 + 13,), (2**62, 2**64 + 1)])
    def test_moduli_beyond_a_machine_word_run_on_the_engine(self, moduli):
        table = enumerate_series(RunPlan(w_max=4, moduli=moduli))
        got = [crt_reconstruct(v, moduli) for v in table.values]
        assert got == list(oracle.count_walks(9).values)
        assert flm._sweep(2, 3, 9, moduli)[1] == {"kernel": "python"}
        # ctypes would silently cut such a modulus to 64 bits
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            ckernel.sweep_residues(2, 3, 9, moduli)
