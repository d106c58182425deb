"""Differential approximants, amplitude fits and universal ratios."""

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import mpmath
from hypothesis import assume, given
from hypothesis import strategies as st

import bisection
from sawenum import analysis
from sawenum.analysis import (
    MODEL_EXPONENTS,
    AnalysisError,
    DASpec,
    SingularityEstimate,
    _leading_solves,
    _smallest_positive_root,
    _solve_exact,
    amplitude_fit,
    amplitude_trajectory,
    balanced_spec,
    consistent_estimates,
    da_scan,
    differential_approximant,
    singularity_estimate,
    summarize_estimates,
    universal_ratios,
)
from sawenum.modseries import read_series

DATA = Path(__file__).resolve().parent.parent / "data"


def power_law_series(mu, gamma, n_terms, amplitude=1):
    """Exact coefficients of amplitude * (1 - mu*x)^(-gamma)."""
    c = [Fraction(amplitude)]
    for n in range(1, n_terms):
        c.append(c[-1] * mu * (gamma + n - 1) / n)
    return c


class TestDASpec:
    def test_unknown_count(self):
        # Q degrees (2, 2) minus the normalized q_{K,0}, plus p_0..p_1
        assert DASpec((2, 2), 1).unknowns == 6 - 1 + 2
        assert DASpec((1, 1)).order == 1

    def test_balanced_spec_uses_requested_terms(self):
        spec = balanced_spec(2, 0, 30)
        assert spec.order == 2
        assert spec.unknowns <= 30

    def test_balanced_spec_rejects_tiny_series(self):
        with pytest.raises(AnalysisError):
            balanced_spec(3, 10, 5)


class TestDifferentialApproximant:
    def test_first_order_exact_recovery(self):
        # (1 - 3x)^(-3/2) satisfies (1 - 3x) F' = (9/2) F exactly
        coeffs = power_law_series(3, Fraction(3, 2), 30)
        est = singularity_estimate(coeffs, DASpec((1, 1)))
        assert abs(est.x - Fraction(1, 3)) < 1e-10
        assert abs(est.exponent - 1.5) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_pure_power_law_recovered_at_any_order(self, order):
        coeffs = power_law_series(2, Fraction(43, 32), 30, amplitude=5)
        spec = balanced_spec(order, 0, 30)
        est = singularity_estimate(coeffs, spec)
        assert abs(est.x - 0.5) < 1e-10
        assert abs(est.exponent - 43 / 32) < 1e-9

    def test_inhomogeneous_term_is_used(self):
        # F = (1 - 2x)^(-1) + polynomial background
        coeffs = power_law_series(2, Fraction(1), 30)
        coeffs[0] += 7
        coeffs[3] += 5
        est = singularity_estimate(coeffs, balanced_spec(1, 4, 30))
        assert abs(est.x - 0.5) < 1e-10
        assert abs(est.exponent - 1.0) < 1e-9

    def test_too_few_terms_raises(self):
        with pytest.raises(AnalysisError):
            differential_approximant([1, 2, 3], DASpec((3, 3, 3, 3), 2))

    def test_missing_positive_root_raises(self):
        # (1 + 2x)^(-1): only a negative real singularity
        coeffs = power_law_series(-2, Fraction(1), 20)
        with pytest.raises(AnalysisError):
            singularity_estimate(coeffs, DASpec((1, 1)))

    def test_order_zero_fits_but_has_no_exponent(self):
        # Q_0 F = P is a rational (Pade-like) fit, but the exponent needs
        # Q_{K-1}, which an order-0 approximant does not have
        coeffs = power_law_series(3, Fraction(2), 20)
        spec = DASpec((3,), 2)
        q_polys, p_poly = differential_approximant(coeffs, spec)
        assert len(q_polys) == 1 and len(p_poly) == 3
        with pytest.raises(AnalysisError, match="order 0 must be at least 1"):
            singularity_estimate(coeffs, spec)


class TestDaScan:
    def test_zero_spread_on_synthetic_series(self):
        coeffs = power_law_series(3, Fraction(3, 2), 30)
        estimates = da_scan(coeffs, orders=(1, 2), pdegrees=(0, 2))
        assert estimates
        mx, sx, ml, sl = summarize_estimates(estimates)
        assert abs(mx - 1 / 3) < 1e-9 and sx < 1e-9
        assert abs(ml - 1.5) < 1e-8 and sl < 1e-8

    def test_spurious_roots_do_not_move_the_summary(self):
        spec = DASpec((10, 10, 10), 0)
        good = [SingularityEstimate(0.379052 + 1e-7 * (i % 5 - 2),
                                    1.3438 + 1e-4 * (i % 3 - 1), spec, 30 + i)
                for i in range(17)]
        # the bulk's own tails stay, though they lie far outside three
        # robust sigma (1.4826 median absolute deviations) of the median
        good += [SingularityEstimate(0.3790533, 1.34414, spec, 47),
                 SingularityEstimate(0.3790507, 1.34416, spec, 48)]
        # smaller positive roots of Q_K taken for the physical one
        spurious = [SingularityEstimate(x, lam, spec, 50 + i)
                    for i, (x, lam) in enumerate([(0.073, -85.7), (0.262, 1.42),
                                                  (0.306, 17.1), (0.326, 17.2),
                                                  (0.355, 6.67)])]
        estimates = good[:7] + spurious + good[7:]
        assert consistent_estimates(estimates) == good
        mx, sx, ml, sl = summarize_estimates(estimates)
        assert abs(mx - 0.379052) < 1e-7 and sx < 5e-7
        assert abs(ml - 1.3438) < 1e-4 and sl < 2e-4

    def test_windows_with_a_p_part_start_at_x0(self, monkeypatch):
        # a window whose equations start above x^0 leaves p_0 without one
        tried = []

        def spy(q_polys, spec, last_n):
            tried.append((spec, last_n))
            raise AnalysisError("not solved here")

        # every fitted window, shared elimination or not, is estimated here
        monkeypatch.setattr(analysis, "_estimate", spy)
        coeffs = read_series(DATA / "saw_counts_n43.series").values
        pdegrees = (-1, 0, 2, 4)
        assert da_scan(coeffs, orders=(2, 3), pdegrees=pdegrees) == []
        with_p = [(s, n) for s, n in tried if s.pdegree >= 0]
        assert with_p and all(s.unknowns == n + 1 for s, n in with_p)
        windows = len(range((3 * 43) // 4, 44)) * 2  # per P degree
        assert len(with_p) < windows * 3  # some windows were not tried
        assert sum(s.pdegree == -1 for s, _ in tried) == windows

    @pytest.mark.parametrize("orders", [(2, 0), (-1,)])
    def test_orders_below_one_are_refused(self, orders):
        coeffs = power_law_series(3, Fraction(3, 2), 30)
        with pytest.raises(AnalysisError, match="must be at least 1"):
            da_scan(coeffs, orders=orders, pdegrees=(0,))

    @pytest.mark.parametrize("pdegrees", [(-2,), (0, -3)])
    def test_p_degrees_below_minus_one_are_refused(self, pdegrees):
        coeffs = power_law_series(3, Fraction(3, 2), 30)
        with pytest.raises(AnalysisError, match="must be at least -1"):
            da_scan(coeffs, orders=(2,), pdegrees=pdegrees)

    @pytest.mark.parametrize("min_last_n", [-1, -6])
    def test_a_negative_first_window_is_refused(self, min_last_n):
        coeffs = power_law_series(3, Fraction(3, 2), 30)
        with pytest.raises(AnalysisError, match="at least 1 term, not"):
            da_scan(coeffs, orders=(2,), pdegrees=(0,), min_last_n=min_last_n)

    def test_identical_estimates_keep_zero_spread(self):
        e = SingularityEstimate(0.25, 1.5, DASpec((3, 3)), 12)
        assert consistent_estimates([e] * 6) == [e] * 6
        assert summarize_estimates([e] * 6) == (0.25, 0.0, 1.5, 0.0)

    def test_summarize_rejects_empty(self):
        with pytest.raises(AnalysisError):
            summarize_estimates([])


def reference_solve(matrix, rhs):
    """Gauss-Jordan over Fraction; (solution or None, pivot columns).

    Free variables are set to zero, as in the solver under test.
    """
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
         for i, row in enumerate(matrix)]
    pivots: dict[int, int] = {}  # column -> pivot row
    prow = 0
    for col in range(n):
        pivot = next((r for r in range(prow, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[prow], a[pivot] = a[pivot], a[prow]
        inv = 1 / a[prow][col]
        a[prow] = [v * inv for v in a[prow]]
        for r in range(n):
            if r != prow and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[prow])]
        pivots[col] = prow
        prow += 1
    if any(a[r][n] for r in range(prow, n)):
        return None, set(pivots)
    sol = [Fraction(0)] * n
    for col, r in pivots.items():
        sol[col] = a[r][n]
    return sol, set(pivots)


def residual(matrix, rhs, sol):
    return [sum(Fraction(a) * x for a, x in zip(row, sol)) - b
            for row, b in zip(matrix, rhs)]


INTEGERS = st.integers(-6, 6)
FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def systems(draw, entries, min_size=1):
    n = draw(st.integers(min_size, 6))
    row = st.lists(entries, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(row)


@st.composite
def rank_deficient(draw, entries):
    """(matrix, x0): rows are combinations of fewer than n basis rows."""
    n = draw(st.integers(2, 6))
    vec = st.lists(entries, min_size=n, max_size=n)
    basis = draw(st.lists(vec, min_size=1, max_size=n - 1))
    weights = st.lists(entries, min_size=len(basis), max_size=len(basis))
    matrix = []
    for w in (draw(weights) for _ in range(n)):
        matrix.append([sum(u * b[j] for u, b in zip(w, basis))
                       for j in range(n)])
    return matrix, draw(vec)


class TestSolveExact:
    """The fraction-free solver against a Fraction Gauss-Jordan reference."""

    @given(systems(INTEGERS))
    def test_integer_systems_match_reference(self, system):
        matrix, rhs = system
        assert _solve_exact(matrix, rhs) == reference_solve(matrix, rhs)[0]

    @given(systems(FRACTIONS))
    def test_fraction_systems_match_reference(self, system):
        matrix, rhs = system
        assert _solve_exact(matrix, rhs) == reference_solve(matrix, rhs)[0]

    @given(systems(INTEGERS, min_size=2), st.integers(1, 6))
    def test_zero_leading_entry_needs_a_row_swap(self, system, lead):
        matrix, rhs = system
        matrix[0][0] = 0
        matrix[-1][0] = lead
        sol = _solve_exact(matrix, rhs)
        assert sol == reference_solve(matrix, rhs)[0]
        if sol is not None:
            assert not any(residual(matrix, rhs, sol))

    def test_row_swap_example(self):
        assert _solve_exact([[0, 2], [3, 1]], [4, 5]) == [1, 2]

    @given(rank_deficient(INTEGERS))
    def test_consistent_rank_deficient_systems_zero_free_variables(
            self, system):
        matrix, x0 = system
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        sol = _solve_exact(matrix, rhs)
        ref, pivots = reference_solve(matrix, rhs)
        assert len(pivots) < len(matrix)
        assert sol is not None and sol == ref
        assert not any(residual(matrix, rhs, sol))
        assert all(sol[c] == 0 for c in range(len(sol)) if c not in pivots)

    def test_free_columns_are_zero(self):
        assert _solve_exact([[1, 2], [2, 4]], [3, 6]) == [3, 0]
        assert _solve_exact([[0, 1], [0, 2]], [1, 2]) == [0, 1]
        assert _solve_exact([[0, 0], [0, 0]], [0, 0]) == [0, 0]

    @given(systems(FRACTIONS, min_size=2),
           st.fractions(min_value=-4, max_value=4).filter(bool),
           st.fractions(min_value=-4, max_value=4).filter(bool))
    def test_inconsistent_systems_return_none(self, system, k, delta):
        matrix, rhs = system
        matrix[-1] = [k * v for v in matrix[0]]
        rhs[-1] = k * rhs[0] + delta
        assert _solve_exact(matrix, rhs) is None
        assert reference_solve(matrix, rhs)[0] is None

    def test_inconsistent_examples(self):
        assert _solve_exact([[1, 2], [2, 4]], [3, 7]) is None
        assert _solve_exact([[0, 0], [0, 0]], [0, 1]) is None



def fit_system(coeffs, spec, last_n):
    """The whole fitting system of ``spec``: (matrix, rhs, number of Q
    unknowns), one row per equation x^m (m = last_n - unknowns + 1 ..
    last_n), Q unknowns q_{i,j} (without q_{K,0}) first, then p_0 .. p_M."""
    k = spec.order
    cols = [(i, j) for i, d in enumerate(spec.qdegrees) for j in range(d + 1)
            if (i, j) != (k, 0)]
    matrix, rhs = [], []
    for m in range(last_n - spec.unknowns + 1, last_n + 1):
        row = [(m - j) ** i * coeffs[m - j] if m >= j else 0
               for i, j in cols]
        row += [-1 if p == m else 0 for p in range(spec.pdegree + 1)]
        matrix.append(row)
        rhs.append(-(m**k) * coeffs[m])
    return matrix, rhs, len(cols)


def fit_solution(coeffs, spec, last_n, block_only=False):
    """The unknowns (q then p) of the fit by the Gauss-Jordan reference, or
    None if inconsistent.  ``block_only`` solves the Q block (the rows
    below P's degree) alone and recovers p from its top rows."""
    matrix, rhs, npq = fit_system(coeffs, spec, last_n)
    if not block_only:
        return reference_solve(matrix, rhs)[0]
    top = spec.pdegree + 1
    q = reference_solve([row[:npq] for row in matrix[top:]], rhs[top:])[0]
    if q is None:
        return None
    return q + [sum(a * v for a, v in zip(row, q)) - r
                for row, r in zip(matrix[:top], rhs[:top])]


def flatten(fit, spec):
    """``differential_approximant``'s (q_polys, p_poly) as one unknown list."""
    q_polys, p_poly = fit
    flat = [c for poly in q_polys for c in poly]
    del flat[sum(d + 1 for d in spec.qdegrees[:-1])]  # q_{K,0} = 1
    return flat + p_poly


class TestBlockSolve:
    """An inhomogeneous fit from x^0 returns the whole system's solution,
    also when its Q block is singular and has another particular solution
    of its own."""

    def test_singular_q_block_falls_back_to_the_whole_system(self):
        coeffs = power_law_series(2, Fraction(1), 30)
        coeffs[0] += 7
        coeffs[3] += 5
        spec = balanced_spec(1, 4, 30)
        assert spec.unknowns == 30  # equations from x^0 to x^29
        whole = fit_solution(coeffs, spec, 29)
        block = fit_solution(coeffs, spec, 29, block_only=True)
        assert whole is not None and block is not None
        assert block != whole
        got = differential_approximant(coeffs, spec)
        assert flatten(got, spec) == whole

    @given(st.integers(1, 2), st.integers(0, 3), st.integers(1, 3),
           st.data())
    def test_fit_equals_the_whole_system_solve(self, order, pdeg, d, data):
        # small entries make singular Q blocks common
        n_terms = (order + 1) * d + order + pdeg + 1
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n_terms,
                                    max_size=n_terms))
        spec = balanced_spec(order, pdeg, n_terms)
        assert spec.unknowns == n_terms  # equations from x^0
        want = fit_solution(coeffs, spec, n_terms - 1)
        try:
            got = differential_approximant(coeffs, spec)
        except AnalysisError:
            assert want is None
        else:
            assert flatten(got, spec) == want


def fractions(solution):
    """A solution of ``_leading_solves``, integers over a common
    denominator, as Fractions."""
    scaled, d = solution
    return [Fraction(v, d) for v in scaled]


def leading(matrix, rhs, s):
    """The leading s x s block of a system."""
    return [row[:s] for row in matrix[:s]], rhs[:s]


def per_window_scan(coeffs, orders, pdegrees, min_last_n):
    """``da_scan`` with one ``singularity_estimate`` per window."""
    out = []
    for last_n in range(min_last_n, len(coeffs)):
        for order in orders:
            for pdeg in pdegrees:
                try:
                    spec = balanced_spec(order, pdeg, last_n + 1)
                    if pdeg >= 0 and spec.unknowns < last_n + 1:
                        continue
                    out.append(singularity_estimate(coeffs, spec, last_n))
                except AnalysisError:
                    continue
    return out


@pytest.fixture
def fitted_alone(monkeypatch):
    """The windows ``da_scan`` hands to ``singularity_estimate``."""
    windows = []
    estimate = analysis.singularity_estimate

    def spy(coeffs, spec, last_n):
        windows.append((spec, last_n))
        return estimate(coeffs, spec, last_n)

    monkeypatch.setattr(analysis, "singularity_estimate", spy)
    return windows


class TestSharedElimination:
    """One elimination of a family's largest system solves every nonsingular
    leading block as ``_solve_exact`` solves that block alone; a window with
    a singular block goes to the whole-system fit."""

    def test_leading_blocks_match_solve_exact(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 12)
            bound = rng.choice([1, 2, 1000])  # small entries: singular blocks
            matrix = [[rng.randint(-bound, bound) for _ in range(n)]
                      for _ in range(n)]
            rhs = [rng.randint(-bound, bound) for _ in range(n)]
            got = _leading_solves(matrix, rhs, range(1, n + 1))
            for s in range(1, n + 1):
                block, b = leading(matrix, rhs, s)
                # solved exactly when the block is nonsingular
                assert (s in got) == (len(reference_solve(block, b)[1]) == s)
                if s in got:
                    assert fractions(got[s]) == _solve_exact(block, b)

    def test_a_singular_prefix_is_left_out(self):
        rng = random.Random(7)
        swapped = 0
        for _ in range(100):
            n = rng.randint(3, 10)
            s0 = rng.randint(2, n - 1)
            matrix = [[rng.randint(-50, 50) for _ in range(n)]
                      for _ in range(n)]
            matrix[s0 - 1][:s0] = matrix[0][:s0]  # block s0 is singular
            rhs = [rng.randint(-50, 50) for _ in range(n)]
            got = _leading_solves(matrix, rhs, range(1, n + 1))
            assert s0 not in got
            for s, x in got.items():
                assert fractions(x) == _solve_exact(*leading(matrix, rhs, s))
            swapped += any(s > s0 for s in got)
        assert swapped  # larger blocks, pivoted past row s0 - 1, still solved

    def test_a_solution_with_a_zero_is_kept(self):
        matrix = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        rhs = [2, 3, 8]  # the solution is (1, 0, 2)
        assert _solve_exact(matrix, rhs) == [1, 0, 2]
        got = _leading_solves(matrix, rhs, [1, 2, 3])
        assert {s: fractions(x) for s, x in got.items()} == {
            1: [1], 2: [Fraction(3, 5), Fraction(4, 5)], 3: [1, 0, 2]}

    def test_scan_equals_one_fit_per_window(self, fitted_alone):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(10, 22)
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            args = ((1, 2), (-1, 0, 1, 2), n // 2)
            assert da_scan(coeffs, *args) == per_window_scan(coeffs, *args)
        assert fitted_alone  # some windows took the per-window fit

    def test_a_singular_q_block_takes_the_whole_system_solve(self,
                                                             fitted_alone):
        coeffs = power_law_series(2, Fraction(1), 30)
        coeffs[0] += 7
        coeffs[3] += 5
        spec = balanced_spec(1, 4, 30)
        got = da_scan(coeffs, orders=(1,), pdegrees=(4,), min_last_n=29)
        assert fitted_alone == [(spec, 29)]
        assert got == [singularity_estimate(coeffs, spec, 29)]

    def test_the_committed_scan_needs_no_per_window_fit(self, fitted_alone):
        coeffs = read_series(DATA / "saw_counts_n43.series").values
        assert len(da_scan(coeffs, orders=(2, 3))) == 42
        # homogeneous windows from x^0 included: their c_0 row forces
        # q_{0,0} = 0, a zero in the unique solution of a nonsingular block
        pdegrees = (-1, 0, 2, 4, 6, 8, 10)
        for orders, count in (((1,), 48), ((2, 3), 66), ((2, 3, 4), 92)):
            assert len(da_scan(coeffs, orders, pdegrees)) == count
        assert fitted_alone == []


#: (x, exponent, Q degrees, P degree, last_n) of every estimate of
#: da_scan(orders=(2,)) on data/saw_counts_n43.series, as computed by the
#: Fraction Gauss-Jordan solver the fraction-free one replaced.
DA_SCAN_N43_ORDER2 = [
    (0.37905177246225846, 1.3435199429987694, (10, 10, 10), 0, 32),
    (0.37905169368762387, 1.3435063508556535, (8, 8, 8), 6, 32),
    (0.3790516880240249, 1.3434999558662053, (9, 9, 9), 4, 33),
    (0.37905327619952, 1.3441366885922779, (7, 7, 7), 10, 33),
    (0.3790517288843597, 1.3435044474928315, (10, 10, 10), 2, 34),
    (0.379052048667461, 1.3436042422993737, (8, 8, 8), 8, 34),
    (0.3790514907755678, 1.3434162158586893, (11, 11, 11), 0, 35),
    (0.3790519408352857, 1.3435789465901193, (9, 9, 9), 6, 35),
    (0.3790523338216552, 1.3436877326760701, (10, 10, 10), 4, 36),
    (0.3790519702085121, 1.3435860838727482, (8, 8, 8), 10, 36),
    (0.37905196852144274, 1.3435854111779326, (11, 11, 11), 2, 37),
    (0.3790519529414886, 1.3435802403714314, (9, 9, 9), 8, 37),
    (0.2622181699073815, 1.419521280932802, (12, 12, 12), 0, 38),
    (0.3790519636920595, 1.3435837095548444, (10, 10, 10), 6, 38),
    (0.07260488498413244, -85.73661866289834, (11, 11, 11), 4, 39),
    (0.32577391568340763, 17.18405736493742, (9, 9, 9), 10, 39),
    (0.3790520704637049, 1.3436194658646765, (12, 12, 12), 2, 40),
    (0.3790518147012229, 1.3435530420260713, (10, 10, 10), 8, 40),
    (0.3790521504936444, 1.3436598678970706, (13, 13, 13), 0, 41),
    (0.37905211430019436, 1.3436427262528907, (11, 11, 11), 6, 41),
    (0.30589851931872925, 17.11765968394478, (12, 12, 12), 4, 42),
    (0.37905218748164965, 1.3436746857448705, (10, 10, 10), 10, 42),
    (0.3790507025982765, 1.344163913953556, (13, 13, 13), 2, 43),
    (0.355210475253696, 6.666947234689369, (11, 11, 11), 8, 43),
]


def test_da_scan_on_committed_series_is_unchanged():
    coeffs = read_series(DATA / "saw_counts_n43.series").values
    got = [repr((e.x, e.exponent, e.spec, e.last_n))
           for e in da_scan(coeffs, orders=(2,))]
    want = [repr((x, lam, DASpec(q, p), n))
            for x, lam, q, p, n in DA_SCAN_N43_ORDER2]
    assert got == want


#: (x, exponent, Q degrees, P degree, last_n) of every estimate of
#: da_scan(orders=(2, 3)) on data/saw_counts_n43.series, as computed when
#: x_c came from mpmath.polyroots, before exact root isolation replaced it.
DA_SCAN_N43_ORDERS23 = [
    (0.37905177246225846, 1.3435199429987694, (10, 10, 10), 0, 32),
    (0.37905169368762387, 1.3435063508556535, (8, 8, 8), 6, 32),
    (0.3790516880240249, 1.3434999558662053, (9, 9, 9), 4, 33),
    (0.37905327619952, 1.3441366885922779, (7, 7, 7), 10, 33),
    (0.3790517780569427, 1.3435289714192051, (7, 7, 7, 7), 2, 33),
    (0.3790517381641007, 1.3435152453979322, (6, 6, 6, 6), 6, 33),
    (0.37905187037939087, 1.3435583031429563, (5, 5, 5, 5), 10, 33),
    (0.3790517288843597, 1.3435044474928315, (10, 10, 10), 2, 34),
    (0.379052048667461, 1.3436042422993737, (8, 8, 8), 8, 34),
    (0.3790514907755678, 1.3434162158586893, (11, 11, 11), 0, 35),
    (0.3790519408352857, 1.3435789465901193, (9, 9, 9), 6, 35),
    (0.37905173926379626, 1.3435055940589764, (8, 8, 8, 8), 0, 35),
    (0.3790517500091774, 1.343516993763602, (7, 7, 7, 7), 4, 35),
    (0.3790520007071897, 1.3435932300811433, (6, 6, 6, 6), 8, 35),
    (0.3790523338216552, 1.3436877326760701, (10, 10, 10), 4, 36),
    (0.3790519702085121, 1.3435860838727482, (8, 8, 8), 10, 36),
    (0.37905196852144274, 1.3435854111779326, (11, 11, 11), 2, 37),
    (0.3790519529414886, 1.3435802403714314, (9, 9, 9), 8, 37),
    (0.3790519855450457, 1.3435919284687248, (8, 8, 8, 8), 2, 37),
    (0.3790519605055596, 1.3435827622842418, (7, 7, 7, 7), 6, 37),
    (0.3790519638151988, 1.3435844755306294, (6, 6, 6, 6), 10, 37),
    (0.2622181699073815, 1.419521280932802, (12, 12, 12), 0, 38),
    (0.3790519636920595, 1.3435837095548444, (10, 10, 10), 6, 38),
    (0.07260488498413244, -85.73661866289834, (11, 11, 11), 4, 39),
    (0.32577391568340763, 17.18405736493742, (9, 9, 9), 10, 39),
    (0.3790517465929506, 1.3435240546910907, (9, 9, 9, 9), 0, 39),
    (0.3790517586585918, 1.3435403464554323, (8, 8, 8, 8), 4, 39),
    (0.3260394236958186, 7.660083660161961, (7, 7, 7, 7), 8, 39),
    (0.3790520704637049, 1.3436194658646765, (12, 12, 12), 2, 40),
    (0.3790518147012229, 1.3435530420260713, (10, 10, 10), 8, 40),
    (0.3790521504936444, 1.3436598678970706, (13, 13, 13), 0, 41),
    (0.37905211430019436, 1.3436427262528907, (11, 11, 11), 6, 41),
    (0.1461318800466258, 34.63300839367713, (9, 9, 9, 9), 2, 41),
    (0.3504056639073672, 13.262828677759883, (8, 8, 8, 8), 6, 41),
    (0.3790521282129133, 1.3436455464832717, (7, 7, 7, 7), 10, 41),
    (0.30589851931872925, 17.11765968394478, (12, 12, 12), 4, 42),
    (0.37905218748164965, 1.3436746857448705, (10, 10, 10), 10, 42),
    (0.3790507025982765, 1.344163913953556, (13, 13, 13), 2, 43),
    (0.355210475253696, 6.666947234689369, (11, 11, 11), 8, 43),
    (0.3433939967971771, 6.97316753018818, (10, 10, 10, 10), 0, 43),
    (0.26910549909886944, 12.456177198551147, (9, 9, 9, 9), 4, 43),
    (0.3505908334339807, 7.718526989548093, (8, 8, 8, 8), 8, 43),
]


def digest(results) -> str:
    """SHA-256 of the reprs of ``results``, one per line, as
    ``scripts/bench.py`` records them."""
    return hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


def test_da_scan_orders_2_3_on_committed_series_is_unchanged():
    coeffs = read_series(DATA / "saw_counts_n43.series").values
    estimates = da_scan(coeffs, orders=(2, 3))
    got = [repr((e.x, e.exponent, e.spec, e.last_n)) for e in estimates]
    want = [repr((x, lam, DASpec(q, p), n))
            for x, lam, q, p, n in DA_SCAN_N43_ORDERS23]
    assert got == want
    assert digest(estimates) == (
        "96a4df3d611b9f89d0203247355688857fbef4d6b4c0c7bb6e4f28c208dd1adc")


def test_da_scan_order_1_on_committed_series_is_unchanged():
    """Order-1 approximants, whose Q_1 has degree about 20, as recorded
    when x_c was isolated by a Sturm chain."""
    coeffs = read_series(DATA / "saw_counts_n43.series").values
    estimates = da_scan(coeffs, orders=(1,), pdegrees=(-1, 0, 2, 4, 6, 8, 10))
    assert len(estimates) == 48
    assert digest(estimates) == (
        "1b51d4dcfd5aa2c098e135e3651d2489dcc2777058fc4ebf39528144ae46fba1")


def test_an_exponent_near_zero_is_rounded_once_from_its_exact_value():
    """An order-1 window of the 44-term series whose exponent cancels to
    about 1e-30, where a 30-digit evaluation keeps about one correct digit.
    The estimate must be the exponent at the dyadic root, evaluated here
    at 100 digits, rounded once."""
    coeffs = read_series(DATA / "saw_counts_n43.series").values
    spec = DASpec((18, 18))
    got = singularity_estimate(coeffs, spec, 36)
    (q0, q1), _ = differential_approximant(coeffs, spec, 36)
    root, _ = _smallest_positive_root(analysis._integer_row(q1),
                                      analysis.ROOT_BITS)
    with mpmath.workdps(100):
        x = mpmath.mpf(root.numerator) / root.denominator

        def value(poly):
            return mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                   for c in reversed(poly)], x)

        want = value(q0) / (x * value([j * c for j, c in enumerate(q1)][1:]))
        assert abs(want) < 1e-29
        assert (got.x, got.exponent) == (float(x), float(want))


def poly_product(factors):
    """Integer coefficients (lowest degree first) of a product of factors."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def reference_smallest_positive_root(factors, dps=50):
    """Smallest positive real root of the product of ``factors`` and its
    multiplicity, or None.

    Each factor has simple roots, and mpmath.polyroots finds its roots at
    ``dps`` digits; a root whose imaginary part is below 1e-20 counts as
    real.  Complex roots of the factors below have imaginary parts of 1e-7
    or more, and distinct real roots lie more than 1e-30 apart, so the
    multiplicity is the number of factors with a root within 1e-40.
    """
    roots = []
    with mpmath.workdps(dps):
        for f in factors:
            for r in mpmath.polyroots(list(reversed(f)), extraprec=dps):
                r = mpmath.mpc(r)
                if abs(r.imag) < 1e-20 and r.real > 0:
                    roots.append(r.real)
        if not roots:
            return None
        best = min(roots)
        return best, sum(abs(r - best) < 1e-40 for r in roots)


def assert_root_matches(factors, bits):
    got = _smallest_positive_root(poly_product(factors), bits)
    want = reference_smallest_positive_root(factors)
    if want is None:
        assert got is None
        return
    assert got is not None
    (root, multiple), (want_root, multiplicity) = got, want
    assert multiple == (multiplicity > 1)
    assert root.denominator & (root.denominator - 1) == 0  # dyadic
    with mpmath.workdps(60):
        x = mpmath.mpf(root.numerator) / root.denominator
        assert abs(x - want_root) <= want_root * (mpmath.ldexp(1, -bits)
                                                  + mpmath.mpf(10) ** -45)


SIGNS = st.sampled_from([1, -1])


@st.composite
def linear_factors(draw):
    """s * (a x - b): the rational root b / a, which may be 0 or negative."""
    a, b, s = draw(st.integers(1, 12)), draw(st.integers(-12, 12)), draw(SIGNS)
    return [-s * b, s * a]


@st.composite
def irreducible_quadratics(draw):
    """s * (a x^2 + b x + c) with a discriminant that is not a square."""
    a, b, c, s = (draw(st.integers(1, 9)), draw(st.integers(-9, 9)),
                  draw(st.integers(-9, 9).filter(bool)), draw(SIGNS))
    disc = b * b - 4 * a * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    return [s * c, s * b, s * a]


def near_pair(num, den, scale):
    """(den x - num)^2 + (den / scale)^2 times scale^2: the complex pair
    num / den +- i / scale."""
    return [num * num * scale**2 + den**2, -2 * num * den * scale**2,
            den * den * scale**2]


FACTORS = st.lists(st.one_of(linear_factors(), irreducible_quadratics()),
                   min_size=1, max_size=6)


class TestSmallestPositiveRoot:
    """Exact root isolation against mpmath.polyroots on each known factor."""

    @given(FACTORS, st.integers(1, 6), st.sampled_from([123, 4, 40, 200]))
    def test_products_of_factors_match_reference(self, factors, content,
                                                 bits):
        assert_root_matches(factors + [[content]], bits)

    def test_negative_roots_only(self):
        factors = [[1, 1], [3, 2], [1, 1, 1], [2, 0, 1]]
        assert _smallest_positive_root(poly_product(factors), 123) is None
        assert reference_smallest_positive_root(factors) is None

    def test_root_at_zero_is_not_positive(self):
        assert _smallest_positive_root([0, 0, 1, 1], 123) is None
        assert _smallest_positive_root([0, 1, 0, 1], 123) is None
        assert_root_matches([[0, 1], [-1, 3]], 123)
        assert_root_matches([[0, 1], [0, -1], [5, 2], [-7, 2]], 123)

    def test_double_root(self):
        assert_root_matches([[-1, 3], [-1, 3], [-2, 1]], 123)
        assert_root_matches([[5, -7], [-5, 7], [-7, 1, 2], [1, 1]], 123)
        assert_root_matches([[2, -5]] * 3 + [[-1, 0, 1]] * 2, 123)
        # triple roots: g = (3x - 1)^2 keeps its sign across 1/3, and
        # r = gcd(p / g, g) = 3x - 1 changes it
        assert_root_matches([[-1, 3]] * 3 + [[-2, 1]], 123)
        assert_root_matches([[-2, 0, 1]] * 3 + [[-5, 1], [1, 1, 1]], 40)

    def test_only_a_larger_root_is_repeated(self):
        # gcd(p, p') = 3x - 2 vanishes above the smallest root 1/2
        assert_root_matches([[-1, 2], [-2, 3], [-2, 3]], 123)
        assert_root_matches([[-2, 3], [-1, 2], [-2, 3], [-1, 0, 1]], 123)
        root, multiple = _smallest_positive_root(
            poly_product([[-1, 2], [-2, 3], [-2, 3]]), 123)
        assert abs(root - Fraction(1, 2)) < Fraction(1, 2 ** 120)
        assert not multiple

    def test_exact_dyadic_root(self):
        p = poly_product([[-3, 8], [-5, 1]])
        assert _smallest_positive_root(p, 123) == (Fraction(3, 8), False)
        p = poly_product([[-3, 8], [-3, 8], [1, 0, 1]])
        assert _smallest_positive_root(p, 123) == (Fraction(3, 8), True)

    def test_remainder_sequence_with_a_degree_gap(self):
        # x^5 + a x^2 + b x + c: the first remainder has degree 2, so the
        # next pseudo-remainder carries lc^3 with a negative lc
        for factors in ([[-1, 1, 1], [-1, 1], [2, 0, 1]],
                        [[1, -3, 1, 0, 0, 1]], [[1, -5, 3, 0, 0, 1]]):
            assert_root_matches(factors, 123)

    def test_roots_closer_than_2_to_the_minus_90(self):
        scale = 3 << 91
        a = (1 << 91) // 4 + 1
        close = [[-a, scale], [-(a + 1), scale]]
        for factors in (close, close[::-1], close + [[-1, 1]],
                        close + [[1, -7, 3]]):
            assert_root_matches(factors, 123)
        got, multiple = _smallest_positive_root(poly_product(close), 123)
        assert abs(got - Fraction(a, scale)) < Fraction(1, scale) / 4
        assert not multiple

    def test_a_root_at_the_right_end_of_a_cell_with_one_inside(self):
        # (0, 1] holds 7/10 and ends at the root 1; (1/4, 1/2] holds 9/20
        # and ends at the root 1/2; a double root at the end is not the
        # root inside
        for factors in ([[-1, 1], [-7, 10]], [[-1, 1], [-7, 10], [1, 1, 1]],
                        [[-1, 2], [-9, 20]], [[-9, 20], [-1, 2], [-1, 1]],
                        [[-1, 1], [-1, 1], [-7, 10]]):
            for bits in (4, 123):
                assert_root_matches(factors, bits)
        root, multiple = _smallest_positive_root(
            poly_product([[-1, 1], [-7, 10]]), 123)
        assert abs(root - Fraction(7, 10)) < Fraction(1, 2 ** 122)
        assert not multiple

    def test_smallest_root_past_the_cell_2_to_4(self):
        for factors in ([[-11, 1], [-13, 1]], [[-23, 2], [-13, 1], [1, 0, 1]],
                        [[-1000, 7], [3, 1]], [[-5, 1], [21, -1, 1]]):
            assert_root_matches(factors, 123)
        assert _smallest_positive_root([-5, 1], 123) == (5, False)

    def test_complex_pair_within_1e_6_of_the_smallest_root(self):
        for factors in ([[-1, 3], near_pair(1, 3, 10**6)],
                        [[-1, 3], near_pair(10**6 - 3, 3 * 10**6, 10**7)],
                        [[-3, 8], near_pair(3 * 10**6 - 8, 8 * 10**6, 10**6)],
                        [near_pair(1, 3, 10**6), [-1, 3], [-1, 3]]):
            for bits in (4, 40, 123):
                assert_root_matches(factors, bits)

    def test_a_leading_coefficient_the_certificate_prime_divides(self):
        prime = analysis.CERTIFICATE_PRIME
        for factors, multiple in (([[-2, 1], [1, 0, prime]], False),
                                  ([[-1, 3], [-1, 3], [-2 * prime, prime]],
                                   True),
                                  ([[prime], [-1, 3], [-2, 1]], False)):
            p = poly_product(factors)
            assert not analysis._squarefree_certified(p)
            assert_root_matches(factors, 123)
            assert _smallest_positive_root(p, 123)[1] == multiple
        assert analysis._squarefree_certified(poly_product([[-1, 3], [-2, 1]]))


def assert_bisection_root(p, bits):
    got = _smallest_positive_root(p, bits)
    assert got == bisection.smallest_positive_root(p, bits)
    return got


@st.composite
def dyadic_factors(draw):
    """s * (2^j x - m): a dyadic root m / 2^j, possibly on a fine grid."""
    j, s = draw(st.integers(0, 130)), draw(SIGNS)
    return [-s * draw(st.integers(-3, 3 << j)), s << j]


class TestNewtonRefinement:
    """Newton refinement lands on the dyadic that bisection returns."""

    @given(st.lists(st.integers(-60, 60), min_size=2, max_size=10)
           .filter(lambda p: p[-1]), st.sampled_from([4, 40, 123, 200]))
    def test_random_integer_polynomials(self, p, bits):
        assert_bisection_root(p, bits)

    @given(st.lists(st.one_of(dyadic_factors(), linear_factors(),
                              irreducible_quadratics()), min_size=1,
                    max_size=4), st.sampled_from([4, 40, 123, 200]))
    def test_products_with_dyadic_roots(self, factors, bits):
        assert_bisection_root(poly_product(factors), bits)

    def test_dyadic_roots_on_every_level(self):
        # m / 2^j for j up to past the last level: hit at a midpoint, at the
        # end of a predicted cell, or too fine to be hit
        for j in range(0, 135, 3):
            for m in (1, 3, (1 << j) - 1, 5 << max(0, j - 4)):
                for extra in ([[1, 0, 1]], [[-7, 3]], [[-1, 0, 7]]):
                    for bits in (4, 123):
                        assert_bisection_root(
                            poly_product([[-m, 1 << j]] + extra), bits)

    def test_exact_dyadic_root(self):
        assert assert_bisection_root([-3, 8], 123) == (Fraction(3, 8), False)

    def test_smallest_root_above_one(self):
        # (x - 3)(x - 5): the bracket doubles to (2, 4]
        got = assert_bisection_root(poly_product([[-3, 1], [-5, 1]]), 123)
        assert got == (Fraction(3), False)
        assert_bisection_root(poly_product([[-7, 2], [-5, 1]]), 123)
        assert_bisection_root(poly_product([[-3, 0, 1], [-9, 1]]), 123)

    def test_zero_slope_at_a_midpoint(self):
        # 125 (2x - 3)^3 - 1: p'(3/2) = 0 at the first midpoint of (1, 2]
        p = [v * 125 for v in poly_product([[-3, 2]] * 3)]
        p[0] -= 1
        root, _ = assert_bisection_root(p, 123)
        assert abs(root - Fraction(8, 5)) < Fraction(1, 1 << 122)

    def test_isolated_below_the_last_level(self):
        # a complex pair within 1e-6 of the root makes Descartes' rule split
        # the cells far below where bisection to 4 bits stops
        x = (3 << 17) + 1  # x / 2^20 is not the right end of that cell
        for factors in ([[-1, 3], near_pair(1, 3, 10**6)],
                        [[-3, 8], near_pair(3 * 10**6 - 8, 8 * 10**6, 10**6)],
                        [[-x, 1 << 20], near_pair(x - 1, 1 << 20, 10**7)],
                        [[-1, 2], near_pair(10**6 - 2, 2 * 10**6, 10**6)]):
            for bits in (4, 40, 123, 200):
                assert_bisection_root(poly_product(factors), bits)
        got, _ = assert_bisection_root(
            poly_product([[-x, 1 << 20], near_pair(x - 1, 1 << 20, 10**7)]), 4)
        assert got == Fraction(49, 128)  # the midpoint of (24/64, 25/64]

    def test_multiple_root(self):
        root, multiple = assert_bisection_root(
            poly_product([[-2, 0, 1], [-2, 0, 1], [-3, 1]]), 123)
        assert multiple and abs(root**2 - 2) < Fraction(1, 1 << 120)
        root, multiple = assert_bisection_root(
            poly_product([[-1, 3], [-1, 3], [-2, 1]]), 123)
        assert multiple and abs(root - Fraction(1, 3)) < Fraction(1, 1 << 124)


class TestAmplitudeFit:
    def test_exact_on_single_term_ansatz(self):
        mu = 1 / 0.379052277752
        e1, e2 = MODEL_EXPONENTS["count"]
        coeffs = [0] + [
            1.25 * mu**n * n ** (11 / 32) for n in range(1, 30)
        ]
        fit = amplitude_fit(coeffs, mu, e1, e2, k=1, m=0)
        assert abs(fit.leading - 1.25) < 1e-12

    def test_exact_on_multi_term_ansatz(self):
        mu = 2.6381585
        e1, e2 = MODEL_EXPONENTS["count"]
        a = (1.17, -0.5, 0.3)
        b = (0.2,)
        coeffs = [0.0]
        for n in range(1, 40):
            lead = a[0] + a[1] / n + a[2] / n**1.5
            alt = (-1) ** n * n ** (float(e2 - e1)) * b[0]
            coeffs.append(mu**n * n ** float(e1) * (lead + alt))
        fit = amplitude_fit(coeffs, mu, e1, e2, k=3, m=1)
        for got, want in zip(fit.a, a):
            assert abs(got - want) < 1e-9
        assert abs(fit.b[0] - b[0]) < 1e-9

    def test_count_trajectory_on_committed_series_is_unchanged(self):
        coeffs = read_series(DATA / "saw_counts_n43.series").values
        fits = amplitude_trajectory(coeffs, 1 / 0.379052277752,
                                    *MODEL_EXPONENTS["count"], 3, 1)
        assert len(fits) == 16
        assert digest(fits) == (
            "61d340c80270821a8b6ee930075321fe8f82f547c04c962ef3ab0888335b12fa")

    def test_trajectory_is_indexed_by_last_n(self):
        mu = 2.0
        e1, e2 = MODEL_EXPONENTS["count"]
        coeffs = [0] + [mu**n * n ** float(e1) for n in range(1, 25)]
        fits = amplitude_trajectory(coeffs, mu, e1, e2, 1, 0)
        assert [f.last_n for f in fits] == sorted({f.last_n for f in fits})
        assert all(abs(f.leading - 1) < 1e-10 for f in fits)

    def test_rejects_bad_shape(self):
        with pytest.raises(AnalysisError):
            amplitude_fit([1, 2, 3], 2.0, 1.0, 0.0, k=0, m=0)

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_rejects_nonpositive_mu(self, mu):
        coeffs = [0] + [2**n for n in range(1, 25)]
        for fit in (amplitude_fit, amplitude_trajectory):
            with pytest.raises(AnalysisError, match="mu must be positive"):
                fit(coeffs, mu, 1.0, 0.0, 1, 0)


class TestUniversalRatios:
    def test_paper_scale_amplitudes_sit_on_the_identity(self):
        r = universal_ratios(0.771182, 0.1081975, 0.339043)
        assert abs(r.f) < 1.5e-5

    def test_direct_substitution_zero(self):
        # E/C = 1/4 and D = 0 make F vanish identically
        r = universal_ratios(1.0, 0.0, 0.25)
        assert r.f == 0.0

    def test_algebraic_identity_zero(self):
        c, e = 2.0, 1.4
        d = c * (91 / 246) * (2 * e / c - 0.5)
        assert abs(universal_ratios(c, d, e).f) < 1e-12

    def test_invariant_under_common_rescaling(self):
        r1 = universal_ratios(0.7, 0.1, 0.3)
        r2 = universal_ratios(7.0, 1.0, 3.0)
        assert math.isclose(r1.f, r2.f, rel_tol=1e-12)
