"""Brute-force DFS ground truth: walk counts, box-restricted spanning counts
and metric sums.

Walks are directed vertex sequences counted up to translation, so c_1 = 4.
The full-plane enumerations exploit the eight lattice symmetries: every walk
of length >= 1 is the image of a canonical representative (first step east,
first vertical step - if any - north) under exactly 8 symmetries, except the
straight walk whose orbit has size 4.  Everything else is plain depth-first
search with an occupancy grid; this module trades speed for obviousness.
"""

from __future__ import annotations

import sys

from .modseries import SeriesTable


def _meta(quantity: str, n_max: int) -> dict:
    return {"lattice": "square", "quantity": quantity, "nmax": str(n_max),
            "method": "dfs"}


def count_walks(n_max: int) -> SeriesTable:
    """Exact c_0..c_n_max by direct enumeration."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    c = [0] * (n_max + 1)
    c[0] = 1
    if n_max >= 1:
        u = [0] * (n_max + 1)  # canonical walks containing a vertical step
        size = 2 * n_max + 3
        occ = bytearray(size * size)
        start = (n_max + 1) * size + (n_max + 1)
        first = start + size  # one step east; east/west move by +-size
        occ[start] = 1
        occ[first] = 1
        sys.setrecursionlimit(max(10000, sys.getrecursionlimit()))

        def rec(pos: int, depth: int, vert: bool) -> None:
            if vert:
                u[depth] += 1
            if depth == n_max:
                return
            d1 = depth + 1
            q = pos + size
            if not occ[q]:
                occ[q] = 1
                rec(q, d1, vert)
                occ[q] = 0
            q = pos - size
            if not occ[q]:
                occ[q] = 1
                rec(q, d1, vert)
                occ[q] = 0
            q = pos + 1  # north; first vertical step must go north
            if not occ[q]:
                occ[q] = 1
                rec(q, d1, True)
                occ[q] = 0
            if vert:
                q = pos - 1
                if not occ[q]:
                    occ[q] = 1
                    rec(q, d1, True)
                    occ[q] = 0

        rec(first, 1, False)
        for n in range(1, n_max + 1):
            c[n] = 4 * (2 * u[n] + 1)
    return SeriesTable(c, None, _meta("count", n_max))


def box_spanning_counts(width: int, length: int, n_max: int) -> SeriesTable:
    """Counts, by number of steps, of directed walks whose bounding box is
    exactly ``width`` cells high and ``length`` cells long.

    Requires ``width <= length``.  A walk with that exact span fits the
    (length+1) x (width+1) vertex grid in a single translation, so summing the
    DFS over all start vertices counts each directed walk exactly once.
    """
    if width > length:
        raise ValueError("box_spanning_counts requires width <= length")
    if width < 0:
        raise ValueError("width must be non-negative")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    counts = [0] * (n_max + 1)
    nx, ny = length + 1, width + 1
    occ = [[False] * ny for _ in range(nx)]
    sys.setrecursionlimit(max(10000, sys.getrecursionlimit()))

    def rec(x, y, depth, xmin, xmax, ymin, ymax):
        if depth and xmax - xmin == length and ymax - ymin == width:
            counts[depth] += 1
        if depth == n_max:
            return
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            px, py = x + dx, y + dy
            if 0 <= px < nx and 0 <= py < ny and not occ[px][py]:
                occ[px][py] = True
                rec(px, py, depth + 1,
                    min(xmin, px), max(xmax, px), min(ymin, py), max(ymax, py))
                occ[px][py] = False

    for sx in range(nx):
        for sy in range(ny):
            occ[sx][sy] = True
            rec(sx, sy, 0, sx, sx, sy, sy)
            occ[sx][sy] = False
    return SeriesTable(
        counts, None,
        {"lattice": "square", "quantity": "box_count", "width": str(width),
         "length": str(length), "nmax": str(n_max), "method": "dfs"})


def metric_sums(n_max: int) -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Integer coefficient series for the three metric generating functions.

    Coefficient of x^n is, summed over all n-step walks with omega_0 at the
    origin:

    * end-to-end:  |omega_n|^2
    * gyration:    (n+1) * sum_i |omega_i|^2 - |sum_i omega_i|^2
                   (equals sum_{i<j} (omega_i - omega_j)^2, so the (n+1)^2 c_n
                   prefactor of the mean is already absorbed)
    * monomer:     sum_i ((omega_0-omega_i)^2 + (omega_n-omega_i)^2) / 2

    All three are exact integers; the monomer series is accumulated doubled
    and halved at the end, with a consistency check.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    e = [0] * (n_max + 1)
    g = [0] * (n_max + 1)
    m2 = [0] * (n_max + 1)  # doubled monomer sums
    if n_max >= 1:
        size = 2 * n_max + 3
        occ = bytearray(size * size)
        mid = n_max + 1
        start = mid * size + mid
        occ[start] = 1
        occ[start + size] = 1
        sys.setrecursionlimit(max(10000, sys.getrecursionlimit()))

        # sums over canonical (east-first, north-first-vertical) walks, x2 for
        # the reflection; the straight walk is added analytically afterwards.
        def rec(x, y, depth, sx, sy, sq, vert):
            r2 = x * x + y * y
            if vert:
                e[depth] += 2 * r2
                g[depth] += 2 * ((depth + 1) * sq - sx * sx - sy * sy)
                m2[depth] += 2 * (2 * sq + (depth + 1) * r2
                                  - 2 * (x * sx + y * sy))
            if depth == n_max:
                return
            d1 = depth + 1
            pos = (x + mid) * size + (y + mid)
            for dx, dy, dpos, v in ((1, 0, size, vert), (-1, 0, -size, vert),
                                    (0, 1, 1, True), (0, -1, -1, True)):
                if dy < 0 and not vert:
                    continue
                q = pos + dpos
                if not occ[q]:
                    px, py = x + dx, y + dy
                    occ[q] = 1
                    rec(px, py, d1, sx + px, sy + py,
                        sq + px * px + py * py, v)
                    occ[q] = 0

        rec(1, 0, 1, 1, 0, 1, False)
        for n in range(1, n_max + 1):
            # straight east walk of length n: positions (0,0)..(n,0)
            s1 = n * (n + 1) // 2
            sq = n * (n + 1) * (2 * n + 1) // 6
            e[n] += n * n
            g[n] += (n + 1) * sq - s1 * s1
            m2[n] += 2 * sq + (n + 1) * n * n - 2 * n * s1
        for n in range(n_max + 1):
            e[n] *= 4
            g[n] *= 4
            m2[n] *= 4
            if m2[n] % 2:
                raise ArithmeticError(f"monomer sum at n={n} is not an integer")
    return (
        SeriesTable(e, None, _meta("r2e", n_max)),
        SeriesTable(g, None, _meta("r2g", n_max)),
        SeriesTable([v // 2 for v in m2], None, _meta("r2m", n_max)),
    )
