"""Series analysis: differential approximants, asymptotic fits, ratios.

A differential approximant represents a truncated series F(x) as a solution
of an inhomogeneous linear ODE

    sum_{i=0..K} Q_i(x) (x d/dx)^i F(x) = P(x),

whose polynomial coefficients are fitted exactly to the highest available
series coefficients.  The fit is one square linear system, solved in
integers by fraction-free (Bareiss) elimination: each row is scaled once to
integers, every elimination step divides exactly, and back-substitution
gives the solution as integers over one common denominator, the last pivot.
The estimates use it as it is; only ``differential_approximant`` forms
Fractions.  ``da_scan`` eliminates once per family: the windows of
one order whose Q blocks start at the same equation have nested blocks,
each the leading block of the next once the columns are ordered by
generation, so one elimination of the largest solves every nonsingular one.
A window's whole system is nonsingular exactly when its Q block is, and then
both have the same unique solution.  A window with a singular block is
fitted on its own, from its whole system.  On the benchmark's 28-term series
the sum of n^3 over the eliminated n x n systems drops from 241,472 to
59,736 per 16-window scan by the shared elimination.  Singularities of F
are estimated by the roots of Q_K; the critical exponent at a root x* of
multiplicity one is

    lambda = Q_{K-1}(x*) / (x* Q_K'(x*)) - K + 1.

The physical singularity x_c is the smallest positive root of Q_K, located
exactly on Q_K's integer coefficients.  A gcd taken modulo a prime almost
always proves Q_K squarefree; Descartes' rule of signs, on Taylor shifts
and halvings of Q_K, isolates the root in a dyadic cell; exact Newton
steps, each cell they jump to certified by two signs, refine it to the
dyadic that sign bisection to ``ROOT_BITS`` bits gives.  The exponent is
evaluated there by integer Horner passes as one exact Fraction, and each of
the two is rounded to a float only once.

Amplitude fits solve for the leading amplitudes of the standard asymptotic
form with analytic and half-integer correction terms plus an antiferromagnetic
(alternating) background term.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

#: Relative precision, in bits, of the dyadic root of Q_K: the 103-bit
#: mantissa of 30 significant digits plus 20 guard bits.
ROOT_BITS = 123

#: (leading exponent, alternating-term exponent) of the coefficient
#: asymptotics for each quantity: count c_n, then the three metric series.
MODEL_EXPONENTS = {
    "count": (Fraction(11, 32), Fraction(-3, 2)),
    "r2e": (Fraction(59, 32), Fraction(-3, 2)),
    "r2m": (Fraction(91, 32), Fraction(1)),
    "r2g": (Fraction(123, 32), Fraction(2)),
}


class AnalysisError(ValueError):
    """Defective approximant or unsolvable fit."""


class DASpec(NamedTuple):
    """Shape of one differential approximant.

    ``qdegrees[i]`` is the degree of Q_i (i = 0..K); ``pdegree`` is the degree
    of the inhomogeneous polynomial P, or -1 for a homogeneous approximant.
    """

    qdegrees: tuple[int, ...]
    pdegree: int = -1

    @property
    def order(self) -> int:
        return len(self.qdegrees) - 1

    @property
    def unknowns(self) -> int:
        # q_{K,0} is fixed to 1 by normalization
        return sum(d + 1 for d in self.qdegrees) - 1 + (self.pdegree + 1)


class SingularityEstimate(NamedTuple):
    """Physical-singularity estimate from one approximant."""

    x: float
    exponent: float
    spec: DASpec
    last_n: int  # index of the highest series coefficient used


def _integer_row(values) -> list[int]:
    """``values`` (ints or Fractions) scaled by the lcm of their denominators;
    a row of ints is returned as it is."""
    if all(type(v) is int for v in values):
        return values
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _bareiss(a) -> list[int | None]:
    """Reduce the integer rows ``a`` to row echelon form in place.

    ``a`` has n rows of at least n + 1 entries; the first n columns are
    eliminated by Bareiss's fraction-free elimination (Math. Comp. 22 (1968)
    565): every update ``(p*a - f*b) // prev`` is an exact integer division,
    because every entry stays a minor of the rows.  Columns are scanned in
    order and the first nonzero row at or below the current one is the
    pivot; a column without one is free and leaves ``prev`` as it is.
    Returns, for each column, the row its pivot was taken from (before the
    swap), or None for a free column.
    """
    n = len(a)
    pivots: list[int | None] = []
    prow = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(prow, n) if a[r][col]), None)
        pivots.append(pivot)
        if pivot is None:
            continue  # free column
        a[prow], a[pivot] = a[pivot], a[prow]
        top = a[prow][col:]
        p = top[0]
        for r in range(prow + 1, n):
            row = a[r]
            f = row[col]
            row[col:] = [(p * v - f * w) // prev
                         for v, w in zip(row[col:], top)]
        prev = p
        prow += 1
    return pivots


def _back_substitute(a, cols, size: int, rhs: int) -> tuple[list[int], int]:
    """The ``size`` unknowns x of the echelon rows ``a``, free ones zero, as
    the integers ``d * x`` and their common denominator ``d``.

    Row r of ``a`` has its pivot in column ``cols[r]`` and its right-hand
    side in column ``rhs``.  The substitution stays in integers by solving
    for ``d * x``, where ``d``, the last pivot, is the determinant of the
    pivot block up to sign.
    """
    prev = a[len(cols) - 1][cols[-1]] if cols else 1
    scaled = [0] * size  # prev * solution
    for r in reversed(range(len(cols))):
        row = a[r]
        acc = prev * row[rhs]
        for c in cols[r + 1:]:
            acc -= row[c] * scaled[c]
        scaled[cols[r]] = acc // row[cols[r]]
    return scaled, prev


def _solve_exact(matrix, rhs):
    """Exact solution of a square rational system; None if inconsistent.

    Each augmented row is scaled once to integers and reduced by
    :func:`_bareiss`.  Rank-deficient but consistent systems (the series
    satisfies a smaller exact ODE, so the fit has spare freedom) get the
    particular solution with every free unknown set to zero.  The columns
    are scanned in order, and a column is free when it depends on the
    columns before it, so which unknowns are free, and so that solution,
    depends on the column order; for a given order it is unique, whatever
    the elimination method.
    """
    n = len(matrix)
    a = [_integer_row([*row, b]) for row, b in zip(matrix, rhs)]
    cols = [c for c, r in enumerate(_bareiss(a)) if r is not None]
    if any(row[n] for row in a[len(cols):]):
        return None  # inconsistent
    scaled, d = _back_substitute(a, cols, n, n)
    return [Fraction(v, d) for v in scaled]


def _leading_solves(matrix, rhs, sizes) -> dict[int, tuple[list[int], int]]:
    """Solutions of the nonsingular leading s x s blocks of a square system,
    each as :func:`_back_substitute` gives it: integers over a common
    denominator.

    For each s in ``sizes`` the block is the first s rows and columns of
    ``matrix`` with the first s entries of ``rhs``.  The whole system is
    reduced once by :func:`_bareiss`.  Every entry it forms is a minor of
    the rows, so a nonsingular block always finds its first s pivots among
    its own first s rows, and a singular one never does.  Rows are only
    updated below the pivot row and each column independently, so then
    those rows (columns < s and the right-hand side) are exactly what
    eliminating the block alone gives, and back-substitution solves it.
    A singular block is left out.
    """
    n = len(matrix)
    a = [_integer_row([*row, b]) for row, b in zip(matrix, rhs)]
    reach = []  # reach[c]: the last row among the pivots of columns 0..c
    last = -1
    for r in _bareiss(a):
        last = n if r is None else max(last, r)
        reach.append(last)
    return {s: _back_substitute(a, range(s), s, n)
            for s in sizes if reach[s - 1] < s}


def _equations(coeffs, k: int, cols, rows):
    """The Q part of the equations of x^m for m in ``rows``, as (matrix,
    rhs): the coefficient (m - j)^i c_{m-j} of each Q unknown q_{i,j},
    (i, j) in ``cols``, and the normalized term q_{K,0} = 1 of order ``k``
    moved to the right-hand side, -m^K c_m."""
    matrix = [[(m - j) ** i * coeffs[m - j] if m >= j else 0
               for i, j in cols] for m in rows]
    return matrix, [-(m**k) * coeffs[m] for m in rows]


def _q_polys(k: int, cols, values, one):
    """Q_0..Q_K from the ``values`` of the Q unknowns ``cols``, each
    polynomial's (i, j) listed in increasing j, with q_{K,0} = ``one``, the
    scale of ``values``."""
    q_polys = [[] for _ in range(k)] + [[one]]
    for (i, _), v in zip(cols, values):
        q_polys[i].append(v)
    return q_polys


def differential_approximant(coeffs, spec: DASpec, last_n: int | None = None):
    """Fit the ODE to the series; returns (q_polys, p_poly) as Fractions.

    ``coeffs`` are the series coefficients c_0..c_N (ints or Fractions); the
    ``spec.unknowns`` equations match the coefficients of x^m for the highest
    usable m ending at ``last_n`` (default: the last coefficient).

    The equation of x^m reads ``Q(m) . q - p_m = r_m`` (see
    :func:`_equations`), with p_m absent above P's degree.  The unknowns
    are ordered q_{i,j} by i, then j, then p_0..p_M, and the whole system
    is solved by :func:`_solve_exact`.  A rank-deficient fit gets the
    particular solution whose free unknowns, picked in that order, are
    zero.
    """
    if last_n is None:
        last_n = len(coeffs) - 1
    if last_n >= len(coeffs):
        raise AnalysisError(f"series has no coefficient {last_n}")
    k = spec.order
    n_eq = spec.unknowns
    if last_n + 1 < n_eq:
        raise AnalysisError(
            f"need {n_eq} coefficients, have {last_n + 1}"
        )
    rows = range(last_n - n_eq + 1, last_n + 1)
    cols = [(i, j) for i, d in enumerate(spec.qdegrees) for j in range(d + 1)
            if (i, j) != (k, 0)]
    matrix, rhs = _equations(coeffs, k, cols, rows)
    for m, row in zip(rows, matrix):
        row += [-1 if p == m else 0 for p in range(spec.pdegree + 1)]
    sol = _solve_exact(matrix, rhs)
    if sol is None:
        raise AnalysisError("singular fitting system (defective approximant)")
    return _q_polys(k, cols, sol, Fraction(1)), sol[len(cols):]


def _poly_derivative(poly):
    return [c * j for j, c in enumerate(poly)][1:]


def _sign_at(poly, num: int, k: int) -> int:
    """Sign of the integer polynomial ``poly`` at ``num / 2**k``.

    Polynomials are coefficient lists, lowest degree first.  Horner's rule
    runs on the value times ``2**(k * degree)``, which is an integer.
    """
    d = len(poly) - 1
    acc = poly[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (poly[i] << (k * (d - i)))
    return (acc > 0) - (acc < 0)


def _sign_changes(values) -> int:
    """Sign changes along ``values``, zeros skipped."""
    count = 0
    last = 0
    for v in values:
        if v:
            if last and (v < 0) != (last < 0):
                count += 1
            last = v
    return count


def _pseudo_remainder(a, b):
    """The remainder of ``lc(b)**(deg a - deg b + 1) * a`` divided by ``b``."""
    r = list(a)
    db = len(b) - 1
    lc = b[db]
    for _ in range(len(a) - db):
        f = r.pop()
        shift = len(r) - db
        r = [lc * v for v in r]
        for j in range(db):
            r[shift + j] -= f * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _primitive(p):
    """``p`` divided by its content, with a positive leading coefficient."""
    g = math.gcd(*p)
    if p and p[-1] < 0:
        g = -g
    return [v // g for v in p]


def _primitive_gcd(a, b):
    """gcd(a, b) of integer polynomials, primitive, by the primitive
    pseudo-remainder sequence."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return _primitive(a)


#: The prime of the squarefree certificate, 2**61 - 1.
CERTIFICATE_PRIME = (1 << 61) - 1


def _squarefree_certified(p) -> bool:
    """True when gcd(p, p') mod ``CERTIFICATE_PRIME`` is constant.

    The prime does not divide lc(p) (else the answer is False), so a
    nonconstant common factor of p and p' in Z[x] would keep its degree mod
    the prime and divide both there: true proves p squarefree.  False
    proves nothing.
    """
    q = CERTIFICATE_PRIME
    if p[-1] % q == 0:
        return False
    a = [v % q for v in p]
    b = [j * v % q for j, v in enumerate(p)][1:]
    while len(b) > 1:  # Euclid mod q: a, b = b, a mod b
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        while len(a) > db:
            f = a.pop() * inv % q
            shift = len(a) - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - f * b[j]) % q
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(b) == 1


def _taylor_shift(p):
    """Coefficients of p(x + 1)."""
    a = list(p)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _isolate(s) -> tuple[int, int, int, bool] | None:
    """The cell (lo/2**k, hi/2**k] of the smallest positive root of the
    squarefree integer polynomial ``s``, with a flag that is true when the
    root is hi itself and false when it lies inside; None without one.

    Descartes' rule bounds the roots of s in (lo, hi) by the sign changes of
    the coefficients of (x + 1)**d P(1/(x + 1)), where P(x) = s(lo + (hi -
    lo) x) maps the cell to (0, 1]; the two counts have the same parity, and
    the constant coefficient is P(1).  The top cells are (0, 1], (1, 2],
    (2, 4], ...; each is searched left half first, a half's P being
    2**d P(x/2), shifted by 1 for the right half.  A cell with no sign
    change has no root inside, so only its right end can be one, and a cell
    with one sign change and no root at its right end holds exactly one
    root.  The top cells stop once s(lo + x) has no sign change, so no root
    lies past lo; that happens by the time lo passes the real part of every
    root, within a Cauchy bound.
    """
    # top is P of the top cell (lo, 2 lo], or (0, 1]; scaled is s(lo x)
    top, lo, scaled = s, 0, s
    while _sign_changes(top):
        cells = [(top, lo, 2 * lo or 1, 0)]
        while cells:
            poly, a, b, k = cells.pop()
            counts = _taylor_shift(poly[::-1])
            changes = _sign_changes(counts)
            at_hi = counts[0] == 0
            if changes == 0:
                if at_hi:
                    return a, b, k, True
                continue
            if changes == 1 and not at_hi:
                return a, b, k, False
            d = len(poly) - 1
            left = [c << (d - i) for i, c in enumerate(poly)]
            a, b = 2 * a, 2 * b
            cells.append((_taylor_shift(left), (a + b) // 2, b, k + 1))
            cells.append((left, a, (a + b) // 2, k + 1))
        if lo:
            scaled = [c << i for i, c in enumerate(scaled)]
        top, lo = _taylor_shift(scaled), 2 * lo or 1
    return None


def _exact_quotient(a, b):
    """``a / b`` for integer polynomials where ``b`` divides ``a`` in Z[x]."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    return q


def _value_and_slope(poly, num: int, k: int) -> tuple[int, int]:
    """``p(x) * 2**(k * d)`` and ``p'(x) * 2**(k * (d - 1))`` at
    x = ``num / 2**k``, for the integer polynomial ``poly`` of degree d, in
    one Horner pass."""
    d = len(poly) - 1
    value, slope = poly[d], 0
    for i in range(d - 1, -1, -1):
        slope = slope * num + value
        value = value * num + (poly[i] << (k * (d - i)))
    return value, slope


#: A Newton step from within e of a simple root lands within about
#: M e^2 of it (M = |p''/2p'| there); the cell it jumps to is
#: 2**NEWTON_GUARD e^2 wide.  A step that misses its cell costs two signs.
NEWTON_GUARD = 4


def _refine(p, lo: int, hi: int, k: int, bits: int) -> Fraction:
    """The dyadic that bisection of (lo/2**k, hi/2**k] to ``bits`` bits
    returns for the one root x of the integer polynomial ``p`` in it.

    x is a simple root, lo is not a root, and neither is hi.  Bisection
    halves the cell holding x, keeping its width W = hi - lo on a finer grid
    at each level, until ``(hi - lo) << bits <= hi``, and returns the cell's
    midpoint, or x itself when x is the midpoint it tests.  Cells are
    aligned: at level j the cells are (t W, (t + 1) W] / 2**j, so this
    dyadic is fixed by x alone.

    Here each step still halves the cell by the sign of p at its midpoint,
    but the same Horner pass gives p' there, and a Newton step from it
    predicts x far more finely.  The cell of that prediction a few levels
    down (never past the last level, which follows from the cell's index) is
    certified by the signs of p at its two ends and then replaces the half
    cell.  So the loop always holds the cell bisection would hold at its
    level, and every cell it skips would not have ended bisection.  A zero
    sign at a midpoint or at a predicted cell's end is x, on the grid of a
    level at or above the last one, where bisection lands on it too.
    """
    sign_lo = _sign_at(p, lo, k)
    w = (hi - lo).bit_length() - 1  # W = 2**w
    last = (1 << bits) - 1  # the cell with index t is the last once t >= last
    while (hi - lo) << bits > hi:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        value, slope = _value_and_slope(p, mid, k)
        if value == 0:
            return Fraction(mid, 1 << k)
        if (value > 0) == (sign_lo > 0):
            lo = mid
        else:
            hi = mid
        if not slope:
            continue
        y = ((mid * slope - value) << k) // slope  # Newton step, scale 2**-2k
        if not lo << k < y <= hi << k:
            continue
        # the cell holding y at the deepest level the step is trusted to
        level = 2 * k - w - NEWTON_GUARD
        t = (y - 1) >> (2 * w + NEWTON_GUARD)
        if t >= last:  # back up to the first level whose cell is the last
            up = t.bit_length() - bits - (t >> (t.bit_length() - bits) != last)
            level -= up
            t >>= up
        if level <= k:
            continue
        s_lo = _sign_at(p, t << w, level)
        s_hi = _sign_at(p, (t + 1) << w, level)
        if s_lo == 0 or s_hi == 0:
            return Fraction((t + (s_lo != 0)) << w, 1 << level)
        if s_lo == sign_lo != s_hi:
            lo, hi, k = t << w, (t + 1) << w, level
    return Fraction(lo + hi, 1 << (k + 1))


def _smallest_positive_root(p, bits: int) -> tuple[Fraction, bool] | None:
    """Smallest positive real root of the integer polynomial ``p``, or None.

    ``p`` is a coefficient list, lowest degree first, with a nonzero leading
    coefficient.  The root is returned as a dyadic rational within a relative
    ``2**-bits`` of it (exactly the root when bisection lands on it), with a
    flag that is true when the root is a multiple root of ``p``.  Roots at 0
    are not positive and are divided out first.  Isolation runs on the
    squarefree part s = p / g, g = gcd(p, p'): almost always the modular
    certificate shows g constant, and only when it fails is g computed
    exactly.  :func:`_isolate` finds the root's cell by Descartes' rule and
    :func:`_refine` refines it.  The roots of r = gcd(s, g) are those of p
    of multiplicity above one, each simple, so the root is multiple exactly
    when r vanishes at the cell's right end or changes sign across it.

    The returned dyadic depends on the root and ``bits`` alone: the
    bisection :func:`_refine` stands for stops at the first aligned cell
    where ``(hi - lo) << bits <= hi``, and a cell isolated below that level
    is replaced by its ancestor there, whose midpoint is then the answer
    unless the root is that ancestor's right end.
    """
    while p[0] == 0:
        p = p[1:]
    if len(p) < 2:
        return None
    g = [1] if _squarefree_certified(p) else _primitive_gcd(
        p, _poly_derivative(p))
    s, r = p, None
    if len(g) > 1:  # repeated roots: go to the squarefree part
        s = _exact_quotient(p, g)
        r = _primitive_gcd(s, g)
    cell = _isolate(s)
    if cell is None:
        return None
    lo, hi, k, at_hi = cell
    multiple = r is not None and (
        _sign_at(r, hi, k) == 0 or _sign_at(r, lo, k) != _sign_at(r, hi, k))
    # cells are (t W, (t + 1) W] / 2**k, W = hi - lo, and bisection stops at
    # the first level where t >= 2**bits - 1; climb to it
    w, t, up = hi - lo, lo // (hi - lo), 0
    while up < k and t >> (up + 1) >= (1 << bits) - 1:
        up += 1
    if up:
        top = ((t >> up) + 1) * w  # the ancestor's right end, at level k - up
        if at_hi and hi == top << up:
            return Fraction(top, 1 << (k - up)), multiple
        return Fraction(2 * top - w, 1 << (k - up + 1)), multiple
    if at_hi:
        return Fraction(hi, 1 << k), multiple
    return _refine(s, lo, hi, k, bits), multiple


def singularity_estimate(
    coeffs,
    spec: DASpec,
    last_n: int | None = None,
) -> SingularityEstimate:
    """Physical singularity (smallest positive real root of Q_K, to
    ``ROOT_BITS`` bits) and the exponent exactly there, each rounded once.

    Raises AnalysisError for an order below 1, whose exponent would need a
    Q_{K-1} that does not exist, and for defective approximants: singular
    fit, Q_K constant, no positive real root, or a multiple root (a root of
    gcd(Q_K, Q_K'), or Q_K'(x*) = 0 at the dyadic root).
    """
    if spec.order < 1:
        raise AnalysisError(
            f"approximant order {spec.order} must be at least 1")
    if last_n is None:
        last_n = len(coeffs) - 1
    q_polys, _ = differential_approximant(coeffs, spec, last_n)
    scale = math.lcm(*(v.denominator for poly in q_polys for v in poly))
    return _estimate([[v.numerator * (scale // v.denominator) for v in poly]
                      for poly in q_polys], spec, last_n)


def _estimate(q_polys, spec: DASpec, last_n: int) -> SingularityEstimate:
    """The estimate of a fitted approximant, given its Q polynomials as
    integers on one scale.

    Q_K is divided by its content c for the root x* = num / 2**e.  Two
    Horner passes on integers give Q_{K-1}(x*) and Q_K'(x*), each times a
    power of two, so the exponent is formed as one exact Fraction.
    """
    k = spec.order
    qk = list(q_polys[k])
    while qk and qk[-1] == 0:
        qk.pop()
    if len(qk) < 2:
        raise AnalysisError("Q_K is constant; no singularity")
    content = math.gcd(*qk)
    qk = [v // content for v in qk]
    found = _smallest_positive_root(qk, ROOT_BITS)
    if found is None:
        raise AnalysisError("no positive real root of Q_K")
    root, multiple = found
    num, e = root.numerator, root.denominator.bit_length() - 1
    _, slope = _value_and_slope(qk, num, e)
    if multiple or slope == 0:
        raise AnalysisError("multiple root of Q_K")
    prev = q_polys[k - 1]
    value, _ = _value_and_slope(prev, num, e)
    # with the scale s of q_polys, value = s Q_{K-1}(x*) 2**(e deg Q_{K-1})
    # and c slope = s Q_K'(x*) 2**(e (deg Q_K - 1)), so lambda + K - 1 =
    # value 2**(e (deg Q_K - deg Q_{K-1})) / (num c slope)
    den = num * content * slope
    shift = e * (len(qk) - len(prev))
    if shift < 0:
        den <<= -shift
    else:
        value <<= shift
    lam = Fraction(value - (k - 1) * den, den)
    return SingularityEstimate(float(root), float(lam), spec, last_n)


def balanced_spec(order: int, pdegree: int, n_terms: int) -> DASpec:
    """The [d, d, ..., d; pdegree] spec using as close to n_terms coefficients
    as possible with equal Q degrees."""
    d = (n_terms - (pdegree + 1) - order) // (order + 1)
    if d < 1:
        raise AnalysisError("too few terms for this approximant shape")
    return DASpec(tuple([d] * (order + 1)), pdegree)


def da_scan(
    coeffs,
    orders=(2, 3),
    pdegrees=(0, 2, 4, 6, 8, 10),
    min_last_n: int | None = None,
) -> list[SingularityEstimate]:
    """All non-defective balanced approximants ending at each usable series
    coefficient >= min_last_n (default: use at least 3/4 of the series).

    An inhomogeneous window is tried only when its equations start at x^0.
    When ``balanced_spec`` rounds the Q degrees down, the equations start at
    some m > 0, the columns of p_0 .. p_{m-1} are zero and the fit has more
    equations than effective unknowns: a generic series makes it singular,
    and only an exactly D-finite one makes it consistent, but ill-posed.
    Homogeneous windows (``pdegree`` -1) have no P part and are always
    tried.  Every window whose Q block is nonsingular is fitted by the
    shared elimination of :func:`_family_fits`; the rest go through
    :func:`singularity_estimate`, which solves the whole system.  An order
    below 1, a P degree below -1 or a ``min_last_n`` below 0 or past the
    series' end raises AnalysisError before any window is fitted.  Each
    estimate's x_c and exponent are rounded to floats only once (see
    :func:`singularity_estimate`).
    """
    for order in orders:
        if order < 1:
            raise AnalysisError(
                f"approximant order {order} must be at least 1")
    for pdeg in pdegrees:
        if pdeg < -1:
            raise AnalysisError(
                f"inhomogeneous degree {pdeg} must be at least -1")
    n_max = len(coeffs) - 1
    if min_last_n is None:
        min_last_n = (3 * n_max) // 4
    if min_last_n < 0:
        raise AnalysisError(
            f"a window needs at least 1 term, not {min_last_n + 1}")
    if min_last_n > n_max:
        raise AnalysisError(
            f"the series has {n_max + 1} terms, fewer than the "
            f"{min_last_n + 1} asked for")
    windows = []
    for last_n in range(min_last_n, n_max + 1):
        for order in orders:
            for pdeg in pdegrees:
                try:
                    spec = balanced_spec(order, pdeg, last_n + 1)
                except AnalysisError:
                    continue
                if pdeg >= 0 and spec.unknowns < last_n + 1:
                    continue  # P's low coefficients have no equation
                windows.append((spec, last_n))
    fits = _family_fits(coeffs, windows)
    out = []
    for spec, last_n in windows:
        q_polys = fits.get((spec, last_n))
        try:
            if q_polys is None:
                out.append(singularity_estimate(coeffs, spec, last_n))
            else:
                out.append(_estimate(q_polys, spec, last_n))
        except AnalysisError:
            continue
    return out


def _family_fits(coeffs, windows) -> dict:
    """Q polynomials of the windows ``(spec, last_n)`` whose Q block is
    nonsingular, one elimination per family, keyed by window.  Each
    window's are integers on one scale, q_{K,0} being the common
    denominator of its solution.

    A window's Q block has one column per Q unknown q_{i,j} (j <= d, the
    balanced Q degree, without q_{K,0}) and one row per equation x^m from
    its first Q equation m0 (P's degree + 1, or the first equation of a
    homogeneous window) to last_n.  Its entries and right-hand side (see
    :func:`_equations`) do not depend on d.  So in a family, the windows of
    one order and one m0, with the columns ordered by j first, each block is
    the leading block of the largest one, which :func:`_leading_solves`
    eliminates once for all.  A nonsingular block's solution is unique, so
    it is the q of the window's whole system in any column order.  A window
    with a singular block is not in the result.
    """
    families: dict[tuple[int, int], list] = {}
    for spec, last_n in windows:
        size = spec.unknowns - spec.pdegree - 1
        families.setdefault((spec.order, last_n + 1 - size), []).append(
            (spec, last_n, size))
    fits = {}
    for (k, m0), members in families.items():
        top = max(spec.qdegrees[0] for spec, _, _ in members)
        cols = [(i, j) for j in range(top + 1) for i in range(k + 1)
                if (i, j) != (k, 0)]
        solved = _leading_solves(
            *_equations(coeffs, k, cols, range(m0, m0 + len(cols))),
            {size for _, _, size in members})
        for spec, last_n, size in members:
            if size in solved:
                scaled, d = solved[size]
                fits[spec, last_n] = _q_polys(k, cols, scaled, d)
    return fits


#: Estimates whose x_c lies further than this many standard deviations from
#: the mean are spurious; see consistent_estimates.
OUTLIER_CUT = 3.0


def _mean_std(v) -> tuple[float, float]:
    mean = sum(v) / len(v)
    return mean, math.sqrt(sum((u - mean) ** 2 for u in v) / len(v))


def consistent_estimates(estimates) -> list[SingularityEstimate]:
    """The estimates whose x_c agrees with the bulk of the scan.

    An approximant whose Q_K has a spurious positive root below the physical
    one reports that root as x_c, and a plain mean over the scan is dragged
    far from the bulk.  The rule is fixed, iterative sigma clipping on x_c:
    drop every estimate whose x_c lies more than ``OUTLIER_CUT`` standard
    deviations from the mean x_c of the estimates still kept, and repeat
    until none is dropped.  The exponent plays no part in the cut.  Some
    estimate always lies within one standard deviation of the mean, so the
    result is never empty; identical estimates have zero deviation and are
    all kept.  With ten estimates or fewer no value can lie more than three
    standard deviations out, so nothing is dropped.
    """
    keep = list(estimates)
    while keep:
        mean, std = _mean_std([e.x for e in keep])
        inside = [e for e in keep if abs(e.x - mean) <= OUTLIER_CUT * std]
        if len(inside) == len(keep):
            break
        keep = inside
    return keep


def estimate_spread(estimates) -> tuple[float, float, float, float]:
    """(mean x, std x, mean exponent, std exponent) over all ``estimates``."""
    if not estimates:
        raise AnalysisError("no estimates to summarize")
    mx, sx = _mean_std([e.x for e in estimates])
    ml, sl = _mean_std([e.exponent for e in estimates])
    return mx, sx, ml, sl


def summarize_estimates(estimates) -> tuple[float, float, float, float]:
    """(mean x, std x, mean exponent, std exponent) over the consistent
    estimates (see :func:`consistent_estimates`)."""
    return estimate_spread(consistent_estimates(estimates))


class AmplitudeFit(NamedTuple):
    """Solution of a square asymptotic fit ending at coefficient ``last_n``.

    ``a`` are the amplitudes of the leading (mu^n n^e1) part with term powers
    n^0, 1/n, 1/n^{3/2}, 1/n^2, 1/n^{5/2}, ...; ``b`` those of the alternating
    ((-1)^n mu^n n^e2) part with powers n^0, 1/n, 1/n^2, ...
    """

    a: list[float]
    b: list[float]
    e1: float
    e2: float
    mu: float
    last_n: int

    @property
    def leading(self) -> float:
        return self.a[0]


def _a_power(i: int) -> Decimal:
    # 0, -1, -3/2, -2, -5/2, ...: analytic plus half-integer corrections
    return Decimal(0) if i == 0 else Decimal(-(i + 1)) / 2


def _check_fit_args(mu: float, k: int, m: int) -> None:
    if k < 1 or m < 0:
        raise AnalysisError("need k >= 1 and m >= 0")
    if not 0 < mu < math.inf:
        raise AnalysisError("mu must be positive and finite")


def amplitude_fit(
    coeffs,
    mu: float,
    e1,
    e2,
    k: int,
    m: int,
    last_n: int | None = None,
) -> AmplitudeFit:
    """Fit ``k`` leading-part and ``m`` alternating-part amplitudes.

    Solves the square linear system matching c_n exactly at the ``k + m``
    indices ending at ``last_n``.  Its entries, each power of n as exp(p ln n),
    are computed to 40 significant digits with ``decimal``, which cover the
    wild dynamic range of mu^n; the system is then solved exactly.
    """
    if last_n is None:
        last_n = len(coeffs) - 1
    _check_fit_args(mu, k, m)
    size = k + m
    if last_n + 1 < size or last_n - size + 1 < 1:
        raise AnalysisError("not enough coefficients for this fit")
    with localcontext() as ctx:
        ctx.prec = 40
        mu_ = Decimal(mu)
        e1_, e2_ = (Decimal(e.numerator) / e.denominator
                    if isinstance(e, Fraction) else Decimal(e)
                    for e in (e1, e2))
        powers = [*map(_a_power, range(k))] + [e2_ - e1_ - j for j in range(m)]
        rows = []
        rhs = []
        for n in range(last_n - size + 1, last_n + 1):
            ln_n = Decimal(n).ln()
            row = [Fraction((p * ln_n).exp()) for p in powers]
            rows.append(row[:k] + [(-1) ** n * v for v in row[k:]])
            rhs.append(Fraction(Decimal(coeffs[n])
                                / (mu_**n * (e1_ * ln_n).exp())))
    sol = _solve_exact(rows, rhs)
    if sol is None:
        raise AnalysisError("singular amplitude fit")
    vals = [float(v) for v in sol]
    return AmplitudeFit(vals[:k], vals[k:], float(e1_), float(e2_),
                        float(mu), last_n)


def amplitude_trajectory(coeffs, mu, e1, e2, k, m):
    """AmplitudeFit at every usable ``last_n`` from 2/3 of the series on;
    for plotting a_0 versus 1/n.  Windows whose fit fails are skipped, but
    a bad ``k``, ``m`` or ``mu`` raises AnalysisError."""
    _check_fit_args(mu, k, m)
    n_max = len(coeffs) - 1
    fits = []
    for last_n in range(max(k + m + 1, (2 * n_max) // 3), n_max + 1):
        try:
            fits.append(amplitude_fit(coeffs, mu, e1, e2, k, m, last_n))
        except AnalysisError:
            continue
    return fits


class RatioReport(NamedTuple):
    """Universal amplitude ratios from the four critical amplitudes."""

    d_over_c: float
    e_over_c: float
    f: float  # predicted to vanish


def universal_ratios(c: float, d: float, e: float) -> RatioReport:
    """F = (246/91) D/C - 2 E/C + 1/2 from the three metric amplitudes.

    Raw asymptotic fits of the metric series yield the products AC, AD and AE
    with the walk-count amplitude A; divide those by A before calling."""
    doc = d / c
    eoc = e / c
    return RatioReport(doc, eoc, (246.0 / 91.0) * doc - 2.0 * eoc + 0.5)


def amplitude_report_rows(fits):
    """CSV rows (inv_n, a0_estimate) for an amplitude trajectory."""
    return [(repr(1.0 / f.last_n), repr(f.leading)) for f in fits]
