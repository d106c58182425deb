"""Root isolation by a Sturm chain and refinement by plain sign bisection,
the reference for ``analysis._smallest_positive_root``: it isolates by
Descartes' rule and refines by Newton steps, and must return the same
dyadic and the same multiple-root flag."""

from __future__ import annotations

import math
from fractions import Fraction

from sawenum.analysis import (
    _exact_quotient,
    _poly_derivative,
    _pseudo_remainder,
    _sign_at,
    _sign_changes,
)


def sturm_chain(p):
    """p, p', then negated pseudo-remainders, each divided by its content.

    The content's sign cancels the sign of the pseudo-remainder's factor
    ``lc**delta``, so each member is a positive multiple of the classical
    Sturm remainder and sign changes count distinct real roots.  The last
    member is gcd(p, p') up to a constant factor.
    """
    chain = [p, _poly_derivative(p)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_remainder(a, b)
        if not r:
            break
        g = math.gcd(*r)
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:  # odd delta
            g = -g
        chain.append([-v // g for v in r])
    return chain


def variations(chain, num: int, k: int) -> int:
    """Sign changes along the Sturm ``chain`` at ``num / 2**k``."""
    return _sign_changes(_sign_at(c, num, k) for c in chain)


def smallest_positive_root(p, bits: int) -> tuple[Fraction, bool] | None:
    """``analysis._smallest_positive_root(p, bits)``, by Sturm isolation and
    bisection.

    Roots at 0 are divided out.  The Sturm chain of the squarefree part s
    counts distinct roots in (lo, hi] as V(lo) - V(hi): the bracket doubles
    from (0, 1] until it holds a root, then halves until it holds exactly
    one, which is multiple in p exactly when g = gcd(p, p') has a root
    there too.  Bisection then keeps, at each level, the half on the side
    where s changes sign, until ``(hi - lo) << bits <= hi``, and returns the
    midpoint of that bracket, or the root itself when a tested point or the
    bracket's right end is a root.  A bracket isolated below that level is
    first replaced by its ancestor there.
    """
    while p[0] == 0:
        p = p[1:]
    if len(p) < 2:
        return None
    chain = sturm_chain(p)
    g = chain[-1]
    if len(g) > 1:
        content = math.gcd(*g)
        p = _exact_quotient(p, [v // content for v in g])
        chain = sturm_chain(p)

    v_lo = _sign_changes(c[0] for c in chain)
    if v_lo == _sign_changes(c[-1] for c in chain):
        return None
    lo, hi, k = 0, 1, 0
    v_hi = variations(chain, hi, k)
    while v_lo == v_hi:
        lo, v_lo = hi, v_hi
        hi *= 2
        v_hi = variations(chain, hi, k)
    while v_lo - v_hi > 1:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        v_mid = variations(chain, mid, k)
        if v_mid < v_lo:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    multiple = False
    if len(g) > 1:
        g_chain = sturm_chain(g)
        multiple = variations(g_chain, lo, k) > variations(g_chain, hi, k)
    at_hi = _sign_at(p, hi, k) == 0
    x = Fraction(hi, 1 << k)
    # climb while the parent bracket would already have ended bisection
    w = hi - lo
    while k and w << bits <= lo // (2 * w) * w + w:
        lo, k = lo // (2 * w) * w, k - 1
        hi = lo + w
    if at_hi and x == Fraction(hi, 1 << k):
        return x, multiple
    sign_lo = _sign_at(p, lo, k)
    while (hi - lo) << bits > hi:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        s = _sign_at(p, mid, k)
        if s == 0:
            return Fraction(mid, 1 << k), multiple
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return Fraction(lo + hi, 1 << (k + 1)), multiple
