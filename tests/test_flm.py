"""Rectangle assembly: full-plane series from per-width sweeps."""

from pathlib import Path

import pytest

from sawenum import ckernel, engine, flm, oracle
from sawenum.flm import RunPlan, assemble, box_counts, enumerate_series
from sawenum.modseries import SeriesTable, read_series

SERIES_N43 = Path(__file__).resolve().parent.parent / "data" / \
    "saw_counts_n43.series"

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

    def test_rejects_a_width_past_the_key_layout(self):
        assert RunPlan(w_max=flm.MAX_WIDTH).n_max == 57
        with pytest.raises(ValueError,
                           match="width 29 overflows the packed key layout"):
            RunPlan(w_max=29)

    def test_sweep_size(self):
        # width w sweeps rectangles up to 2*w_max - w + 1 long, to N = 9
        plan = RunPlan(w_max=4)
        assert [plan.sweep_size(w) for w in (0, 1, 4)] == [
            (9, 9), (8, 9), (5, 9)]


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

    def test_assemble_matches_enumerate(self):
        plan = RunPlan(w_max=3)
        ledgers = [engine.sweep(w, 2 * plan.w_max - w + 1, plan.n_max)
                   for w in range(plan.w_max + 1)]
        assert assemble(ledgers, plan).values == enumerate_series(plan).values

    def test_the_pool_has_no_more_workers_than_widths(self, monkeypatch):
        # a fake pool records its size and maps in this process, so the
        # 100,000 workers asked for are never started
        sizes = []

        class Pool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        import multiprocessing
        from types import SimpleNamespace

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=Pool))
        many = enumerate_series(RunPlan(w_max=3, workers=100_000))
        assert sizes == [4]
        assert many.values == enumerate_series(RunPlan(w_max=3)).values


class TestAssemble:
    PLAN = RunPlan(w_max=4)

    @staticmethod
    def ledgers(plan, more_columns=0, more_degrees=0):
        return [flm._sweep(w, plan.n_max - w + more_columns,
                           plan.n_max + more_degrees)[0]
                for w in range(plan.w_max + 1)]

    def test_longer_ledgers_are_accepted(self):
        # columns past N - w and degrees past N hold nothing of c_0..c_N
        got = assemble(self.ledgers(self.PLAN, 2, 3), self.PLAN).values
        assert got == enumerate_series(self.PLAN).values
        assert got[6:] == [780, 2172, 5916, 16268]

    def test_a_missing_width_is_refused(self):
        with pytest.raises(ValueError, match="3 ledgers for the 5 widths"):
            assemble(self.ledgers(self.PLAN)[:3], self.PLAN)

    def test_a_missing_column_is_refused(self):
        ledgers = self.ledgers(self.PLAN)
        ledgers[2] = ledgers[2][:-1]
        with pytest.raises(ValueError,
                           match="width-2 ledger has 7 columns, not 8"):
            assemble(ledgers, self.PLAN)

    def test_a_missing_degree_is_refused(self):
        ledgers = [[column[:5] for column in ledger]
                   for ledger in self.ledgers(self.PLAN)]
        with pytest.raises(ValueError, match="column 0 of the width-0 ledger "
                           "has 5 degrees, not 10"):
            assemble(ledgers, self.PLAN)

    def test_a_count_off_by_one_is_refused(self):
        # the count enters c_9 four times over, so c_9 = 0 (mod 8)
        ledgers = self.ledgers(self.PLAN)
        ledgers[2][4][9] += 1
        with pytest.raises(ValueError, match=r"4 \(mod 8\) fails at n = 9"):
            assemble(ledgers, self.PLAN)


class TestCheckCounts:
    def test_the_committed_series_keeps_every_invariant(self):
        table = read_series(SERIES_N43)
        assert len(table) == 44
        flm.check_counts(table)

    @pytest.mark.parametrize("n,value,invariant", [
        (30, lambda c: c[30] + 1, r"c_n = 4 \(mod 8\)"),
        (30, lambda c: c[29], r"c_\(n-1\) < c_n"),
        (1, lambda c: 12, r"c_n <= 4\*3\^\(n-1\)"),
        # 4*3^39 = 4 (mod 8) and exceeds c_1*c_39
        (40, lambda c: 4 * 3 ** 39, r"c_\(m\+n\) <= c_m\*c_n")])
    def test_a_broken_invariant_names_the_first_bad_n(self, n, value,
                                                      invariant):
        table = read_series(SERIES_N43)
        table.values[n] = value(table.values)
        with pytest.raises(ValueError, match=f"{invariant} fails at n = {n}$"):
            flm.check_counts(table)

    def test_a_series_of_another_quantity_is_not_checked(self):
        flm.check_counts(SeriesTable([1, 4, 13]))
        flm.check_counts(SeriesTable([1, 4, 13], metadata={
            "quantity": "box_count"}))


class TestBoxCounts:
    @pytest.mark.parametrize("width,length", [(1, 2), (2, 2), (2, 3)])
    def test_matches_oracle_boxes(self, width, length):
        n_max = width + 3 * length
        want = list(oracle.box_spanning_counts(width, length, n_max).values)
        assert box_counts(width, length, n_max) == want

    def test_rejects_wide_boxes(self):
        with pytest.raises(ValueError):
            box_counts(3, 2, 11)

    def test_minimum_degree_spans_the_box(self):
        first = next(d for d, v in enumerate(box_counts(2, 3, 12)) if v)
        assert first == 2 + 3


def force_engine(monkeypatch):
    """Act as if no C compiler were found, and fail if the kernel runs."""
    def no_kernel(*args, **kwargs):
        raise AssertionError("the compiled kernel ran")

    monkeypatch.setattr(ckernel, "available", lambda: False)
    monkeypatch.setattr(ckernel, "sweep", no_kernel)


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
        want = list(oracle.box_spanning_counts(width, length, n_max).values)
        assert box_counts(width, length, n_max) == want

    @needs_compiler
    @pytest.mark.parametrize("width,length", [(3, 40), (4, 40), (1, 90)])
    def test_kernel_covers_long_boxes(self, width, length):
        # the CLI's default n_max of these boxes (123, 124 and 271) once
        # overflowed the kernel's fixed degree window or its 8-bit degree
        # fields
        n_max = width + 3 * length
        ledger, stats = flm._sweep(width, length, n_max)
        assert stats["kernel"] == "c"
        want = engine.sweep(width, length, n_max)
        assert ledger == want
        assert box_counts(width, length, n_max) == [2 * v for v in want[length]]

    @needs_compiler
    def test_kernel_adds_safely_near_two_to_the_64(self):
        # counts of this sweep reach 2**79, so the kernel widens its state
        # counts to 128 bits, whose sums carry from the low word into the
        # high one
        ledger, stats = flm._sweep(3, 30, 100)
        assert stats["kernel"] == "c"
        assert stats["wide_rows"] > 0
        want = engine.sweep(3, 30, 100)
        assert max(max(col) for col in want) > 2**64
        assert ledger == want

    @pytest.mark.parametrize("width,l_max,n_max",
                             [(-1, 3, 10), (2, -1, 10), (2, 3, -1), (29, 29, 10)])
    def test_bad_sizes_are_refused_before_either_sweep(self, width, l_max,
                                                       n_max):
        with pytest.raises(ValueError):
            flm._sweep(width, l_max, n_max)
