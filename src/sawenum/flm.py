"""Assemble the infinite-lattice walk series from rectangle sweeps.

Rectangles W cells high and L cells long with W <= L <= 2*W_max - W + 1 are
enumerated by one sweep per width (each completion is attributed to the column
where it occurs); rectangles with L > W are counted twice for the transposed
orientation.  The result is c_n, the number of walks per lattice vertex,
correct for n <= N = 2*W_max + 1.

Every sweep goes through :func:`_sweep`, the one place that picks the sweep
implementation: the compiled kernel (``ckernel``) when a C compiler is found,
else the Python engine (``engine.sweep``), which is the reference the kernel
is tested against.  ``engine`` is imported only on that fallback branch, so a
run on the kernel never loads it, nor the ``pruning`` and ``signatures``
modules it needs.  Both return the same exact ledger, so the series is
assembled from exact integers; residues are only an output format (see
``modseries``).
"""

from __future__ import annotations

from . import ckernel
from .modseries import SeriesTable

ALGORITHM_VERSION = "1"

#: the widest sweep whose states the packed key layout holds: two bits for
#: each of the W + 2 edge slots, plus the two border flags, in 62 bits
MAX_WIDTH = 28


def check_sweep_args(width: int, l_max: int, n_max: int) -> None:
    """Reject a negative size or a sweep whose states the packed key layout
    cannot hold.  Both sweeps share the layout and call this first."""
    if width < 0 or l_max < 0 or n_max < 0:
        raise ValueError("width, l_max and n_max must be non-negative")
    if width > MAX_WIDTH:
        raise ValueError(f"width {width} overflows the packed key layout")


class RunPlan:
    """Parameters of an assembly run.  N = 2*w_max + 1.

    Its widest sweep is checked when it is made, so a ``w_max`` past what
    the packed key layout holds is refused before any width is swept.
    """

    __slots__ = ("w_max", "workers", "prune")

    def __init__(self, w_max: int, workers: int = 1, prune: bool = True):
        if w_max < 0:
            raise ValueError("w_max must be non-negative")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, not {workers}")
        self.w_max = w_max
        self.workers = workers
        self.prune = prune
        check_sweep_args(w_max, *self.sweep_size(w_max))

    @property
    def n_max(self) -> int:
        return 2 * self.w_max + 1

    def sweep_size(self, width: int) -> tuple[int, int]:
        """``(l_max, n_max)`` of the sweep of ``width``: rectangles up to
        2*w_max - width + 1 long, walks up to N steps."""
        return self.n_max - width, self.n_max


def _sweep(width: int, l_max: int, n_max: int, prune: bool = True):
    """Exact completion ledger ``[column][degree]`` of one width, and the
    sweep's stats: ``kernel`` ("c" or "python") and, for the compiled
    kernel, the stats of ``ckernel.sweep``."""
    check_sweep_args(width, l_max, n_max)
    if ckernel.available():
        ledger, stats = ckernel.sweep(width, l_max, n_max, prune)
        return ledger, {"kernel": "c", **stats}
    from . import engine

    return engine.sweep(width, l_max, n_max, prune), {"kernel": "python"}


def _sweep_job(args):
    return _sweep(*args)[0]


def enumerate_series(plan: RunPlan) -> SeriesTable:
    """Exact series c_0..c_N for the given plan.  c_0 = 1 by convention."""
    jobs = [(w, *plan.sweep_size(w), plan.prune)
            for w in range(plan.w_max + 1)]
    if plan.workers > 1 and len(jobs) > 1:
        import multiprocessing

        # no more processes than widths, whatever --workers asks for
        workers = min(plan.workers, len(jobs))
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            ledgers = pool.map(_sweep_job, jobs)
    else:
        ledgers = [_sweep_job(j) for j in jobs]
    return assemble(ledgers, plan)


def assemble(ledgers, plan: RunPlan) -> SeriesTable:
    """Combine per-width completion ledgers into the full series.

    ``ledgers[w]`` must be the exact ledger ``[column][degree]`` of width
    ``w`` for columns 0..N - w and degrees 0..N at least; exposed separately
    so long runs can compute widths one process at a time and assemble from
    cached ledgers.  Columns past N - w and degrees past N are ignored: a
    walk spanning a box w high and L long takes at least w + L steps.
    Raises ValueError when a width, column or degree is missing, which
    would otherwise leave its counts out of the series, and refuses a
    series that breaks an invariant of walk counts (:func:`check_counts`).
    """
    n_max = plan.n_max
    if len(ledgers) < plan.w_max + 1:
        raise ValueError(f"{len(ledgers)} ledgers for the {plan.w_max + 1} "
                         f"widths 0..{plan.w_max}")
    acc = [0] * (n_max + 1)
    for w in range(plan.w_max + 1):
        ledger = ledgers[w]
        if len(ledger) < n_max - w + 1:
            raise ValueError(f"the width-{w} ledger has {len(ledger)} "
                             f"columns, not {n_max - w + 1}")
        for col in range(w, n_max - w + 1):
            column = ledger[col]
            if len(column) < n_max + 1:
                raise ValueError(f"column {col} of the width-{w} ledger has "
                                 f"{len(column)} degrees, not {n_max + 1}")
            # symmetry factor for the transposed rectangle, times the
            # direction factor (the sweep builds each walk once as an edge
            # set; c_n counts both traversal directions)
            factor = 2 * (1 if col == w else 2)
            for d in range(n_max + 1):
                acc[d] += factor * column[d]
    acc[0] = 1
    meta = {
        "lattice": "square",
        "quantity": "count",
        "wmax": str(plan.w_max),
        "nmax": str(n_max),
        "pruning": "on" if plan.prune else "off",
        "algorithm-version": ALGORITHM_VERSION,
    }
    table = SeriesTable(acc, None, meta)
    check_counts(table)
    return table


def check_counts(table: SeriesTable) -> None:
    """Refuse an exact ``quantity: count`` series that breaks an invariant
    of square-lattice walk counts; any other series passes unchecked.

    For n >= 1: c_n = 4 (mod 8), as the 8 lattice symmetries move every walk
    but the 4 straight ones, which form one orbit; c_(n-1) < c_n;
    c_n <= 4*3^(n-1); and c_(m+n) <= c_m*c_n, as a walk of m + n steps
    splits into walks of m and n steps.  Raises ValueError naming the first
    n at which one breaks.
    """
    if table.metadata.get("quantity") != "count":
        return
    c = table.values
    for n in range(1, len(c)):
        checks = (
            (c[n] % 8 == 4, "c_n = 4 (mod 8)"),
            (c[n - 1] < c[n], "c_(n-1) < c_n"),
            (c[n] <= 4 * 3 ** (n - 1), "c_n <= 4*3^(n-1)"),
            (all(c[n] <= c[m] * c[n - m] for m in range(1, n // 2 + 1)),
             "c_(m+n) <= c_m*c_n"),
        )
        for holds, invariant in checks:
            if not holds:
                raise ValueError(f"not a walk count series: {invariant} "
                                 f"fails at n = {n}")


def box_counts(width: int, length: int, n_max: int) -> list[int]:
    """Exact spanning-walk counts c_0..c_n_max for the exact ``width`` x
    ``length`` box, by the pruned sweep.

    Exposed for testing against the brute-force oracle; the minimum nonzero
    degree is at least width + length.
    """
    if width > length:
        raise ValueError("box_counts requires width <= length")
    ledger, _ = _sweep(width, length, n_max)
    # direction factor: both traversal orders
    return [2 * v for v in ledger[length]]
