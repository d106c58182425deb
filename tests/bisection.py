"""Root refinement by plain sign bisection, the reference for the Newton
refinement of ``analysis._smallest_positive_root``: the same Sturm
isolation, then one sign of the squarefree part per level."""

from __future__ import annotations

import math
from fractions import Fraction

from sawenum.analysis import (
    _exact_quotient,
    _sign_at,
    _sign_changes,
    _sturm_chain,
    _variations,
)


def smallest_positive_root(p, bits: int) -> tuple[Fraction, bool] | None:
    """``analysis._smallest_positive_root(p, bits)``, refined by bisection.

    After isolation, the bracket (lo, hi] holds one root, a simple root of
    the squarefree part s.  Each level doubles the scale and keeps the half
    on the side where s changes sign, until ``(hi - lo) << bits <= hi``;
    the midpoint of that bracket is returned, or the root itself when a
    tested point is a root.
    """
    while p[0] == 0:
        p = p[1:]
    if len(p) < 2:
        return None
    chain = _sturm_chain(p)
    g = chain[-1]
    if len(g) > 1:
        content = math.gcd(*g)
        p = _exact_quotient(p, [v // content for v in g])
        chain = _sturm_chain(p)

    v_lo = _sign_changes(c[0] for c in chain)
    if v_lo == _sign_changes(c[-1] for c in chain):
        return None
    lo, hi, k = 0, 1, 0
    v_hi = _variations(chain, hi, k)
    while v_lo == v_hi:
        lo, v_lo = hi, v_hi
        hi *= 2
        v_hi = _variations(chain, hi, k)
    while v_lo - v_hi > 1:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        v_mid = _variations(chain, mid, k)
        if v_mid < v_lo:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    multiple = False
    if len(g) > 1:
        g_chain = _sturm_chain(g)
        multiple = _variations(g_chain, lo, k) > _variations(g_chain, hi, k)
    if _sign_at(p, hi, k) == 0:
        return Fraction(hi, 1 << k), multiple
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
