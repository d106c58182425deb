"""Assemble the infinite-lattice walk series from rectangle sweeps.

Rectangles W cells high and L cells long with W <= L <= 2*W_max - W + 1 are
enumerated by one sweep per width (each completion is attributed to the column
where it occurs); rectangles with L > W are counted twice for the transposed
orientation.  The result is c_n, the number of walks per lattice vertex,
correct for n <= N = 2*W_max + 1.

Every sweep goes through :func:`_sweep`, the one place that picks the sweep
implementation: the compiled kernel (``ckernel``) when a C compiler is found
and every modulus fits a machine word, else the Python engine
(``engine.sweep``), which is the reference the kernel is tested against.  The
kernel counts modulo the moduli and the engine counts exact integers, which
``_sweep`` reduces, so both give the same ledger of residue records.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ckernel, engine
from .modseries import DEFAULT_MODULI, SeriesTable, TruncatedPolynomial, check_coprime

ALGORITHM_VERSION = "1"


@dataclass(frozen=True)
class RunPlan:
    """Parameters of an assembly run.  N = 2*w_max + 1."""

    w_max: int
    moduli: tuple[int, ...] = DEFAULT_MODULI
    workers: int = 1
    prune: bool = True

    def __post_init__(self):
        if self.w_max < 0:
            raise ValueError("w_max must be non-negative")
        check_coprime(self.moduli)

    @property
    def n_max(self) -> int:
        return 2 * self.w_max + 1


def _sweep(width: int, l_max: int, n_max: int, moduli, prune: bool = True):
    """Completion ledger of one width, one ``TruncatedPolynomial`` of residues
    modulo ``moduli`` per column, and the sweep's stats: ``kernel`` ("c" or
    "python") and, for the compiled kernel, the stats of
    ``ckernel.sweep_residues``."""
    engine.check_sweep_args(width, l_max, n_max)
    # a modulus of 2**64 or more does not fit the kernel's machine words
    if ckernel.available() and max(moduli) < 2**64:
        rows, stats = ckernel.sweep_residues(width, l_max, n_max, moduli, prune)
        ledger = [TruncatedPolynomial(moduli, n_max, col) for col in rows]
        return ledger, {"kernel": "c", **stats}
    ledger = [TruncatedPolynomial.from_integers(moduli, n_max, col)
              for col in engine.sweep(width, l_max, n_max, prune=prune)]
    return ledger, {"kernel": "python"}


def _sweep_job(args):
    return _sweep(*args)[0]


def enumerate_series(plan: RunPlan) -> SeriesTable:
    """Residue series c_0..c_N for the given plan.  c_0 = 1 by convention."""
    jobs = [
        (w, 2 * plan.w_max - w + 1, plan.n_max, plan.moduli, plan.prune)
        for w in range(plan.w_max + 1)
    ]
    if plan.workers > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(plan.workers) as pool:
            ledgers = pool.map(_sweep_job, jobs)
    else:
        ledgers = [_sweep_job(j) for j in jobs]
    return assemble(ledgers, plan)


def assemble(ledgers, plan: RunPlan) -> SeriesTable:
    """Combine per-width completion ledgers into the full series.

    ``ledgers[w]`` must be the sweep result for width ``w`` truncated at the
    plan's N; exposed separately so long runs can compute widths one process
    at a time and assemble from cached ledgers.
    """
    n_max = plan.n_max
    moduli = plan.moduli
    acc = [[0] * len(moduli) for _ in range(n_max + 1)]
    for w, ledger in zip(range(plan.w_max + 1), ledgers):
        for col in range(w, len(ledger)):
            poly = ledger[col]
            # symmetry factor for the transposed rectangle, times the
            # direction factor (the sweep builds each walk once as an edge
            # set; c_n counts both traversal directions)
            factor = 2 * (1 if col == w else 2)
            for mi, m in enumerate(moduli):
                for d, v in enumerate(poly.coeffs[mi][: n_max + 1]):
                    if v:
                        acc[d][mi] = (acc[d][mi] + factor * v) % m
    acc[0] = [1 % m for m in moduli]
    meta = {
        "lattice": "square",
        "quantity": "count",
        "wmax": str(plan.w_max),
        "nmax": str(n_max),
        "pruning": "on" if plan.prune else "off",
        "algorithm-version": ALGORITHM_VERSION,
    }
    return SeriesTable([tuple(v) for v in acc], moduli, meta)


def box_counts(width: int, length: int, n_max: int,
               moduli=DEFAULT_MODULI) -> TruncatedPolynomial:
    """Spanning-walk counts of up to ``n_max`` steps for the exact ``width``
    x ``length`` box, by the pruned sweep.

    Exposed for testing against the brute-force oracle; the minimum nonzero
    degree is at least width + length.
    """
    if width > length:
        raise ValueError("box_counts requires width <= length")
    ledger, _ = _sweep(width, length, n_max, moduli)
    # direction factor: both traversal orders
    doubled = [[2 * v % m for v in row]
               for row, m in zip(ledger[length].coeffs, moduli)]
    return TruncatedPolynomial(moduli, n_max, doubled)
