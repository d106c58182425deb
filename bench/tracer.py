"""Spans around sawenum's layer boundaries, installed from outside the package.

``install()`` replaces module attributes of the running interpreter with
timing wrappers; nothing under ``src/`` changes.  Calls that happen once per
kink move or less (``engine.sweep``, ``engine.kink_update``, assembly, series
I/O, the analysis solve) get one span each.  The per-state prune bounds and the
memo-miss ``accessible_targets`` calls run millions of times, so consecutive
calls are folded into one span per phase: it spans the first call's start to
the last call's end, and carries the summed busy time and the call count.

A span is ``(name, start, end, parent, busy, calls)`` with times in seconds
since ``install()``; ``parent`` indexes the enclosing span, or is None.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

from sawenum import analysis, cli, engine, flm, modseries

MID = "pruning.mid"
BOUNDARY = "pruning.boundary"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phases: dict[str, list[float]] = {}
        self.errors: Counter = Counter()
        self.killed: Counter = Counter()
        self.state_rows = 0
        self.poly_bits = 0
        self.peak_states = 0
        self.bytes_written = 0

    # -- span bookkeeping -------------------------------------------------

    def _flush(self) -> None:
        """Close the pending folded phases as children of the open span."""
        parent = self.stack[-1] if self.stack else None
        for name, (start, end, busy, calls) in self.phases.items():
            self.spans.append([name, start - self.origin, end - self.origin,
                               parent, busy, int(calls)])
        self.phases.clear()

    def _open(self, name: str) -> int:
        self._flush()
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter() - self.origin, None,
                           parent, 0.0, 1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        end = perf_counter() - self.origin
        self._flush()
        span = self.spans[idx]
        span[2] = end
        span[4] = end - span[1]
        self.stack.pop()

    def span(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self._close(idx)
        return wrapper

    def folded(self, name: str, fn):
        phases = self.phases

        @wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
            phase = phases.get(name)
            if phase is None:
                phases[name] = [t0, t1, t1 - t0, 1]
            else:
                phase[1] = t1
                phase[2] += t1 - t0
                phase[3] += 1
            return out
        return wrapper

    def kink_update(self, fn):
        """Span per kink move, plus the counts the prune ratios derive from.

        Each prune phase (the boundary bound before a column, the mid bound
        after a kink move) ends where the next kink move starts, so the
        states that phase dropped are its evaluations minus this call's input.
        """
        inner = self.span("engine.kink_update", fn)

        @wraps(fn)
        def wrapper(states, *args):
            t0 = perf_counter()
            n_in = len(states)
            for name in (MID, BOUNDARY):
                phase = self.phases.get(name)
                if phase is not None:
                    self.killed[name] += int(phase[3]) - n_in
            self.state_rows += n_in
            self.poly_bits += sum(p.bit_length() for p in states.values())
            t1 = perf_counter()
            self.phases[BOOKKEEPING] = [t0, t1, t1 - t0, 1]
            out = inner(states, *args)
            self.peak_states = max(self.peak_states, n_in, len(out[0]))
            return out
        return wrapper

    def write_series(self, fn):
        inner = self.span("modseries.write_series", fn)

        @wraps(fn)
        def wrapper(table, path):
            inner(table, path)
            self.bytes_written += os.path.getsize(path)
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        self._flush()
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_busy: dict[str, float] = defaultdict(float)
        top_busy = 0.0
        for name, _start, _end, parent, b, c in self.spans:
            busy[name] += b
            calls[name] += c
            if parent is None:
                top_busy += b
            else:
                child_busy[self.spans[parent][0]] += b
        memo = engine._transitions.cache_info()
        lookups = memo.hits + memo.misses
        approximants = calls["analysis.singularity_estimate"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "engine.sweep_s": busy["engine.sweep"],
            "engine.sweep_self_s":
                busy["engine.sweep"] - child_busy["engine.sweep"],
            "engine.kink_update_s": busy["engine.kink_update"],
            "engine.kink_update_calls": calls["engine.kink_update"],
            "engine.state_rows": self.state_rows,
            "engine.peak_states": self.peak_states,
            "engine.poly_bits_mean": ratio(self.poly_bits, self.state_rows),
            "engine.transitions_hits": memo.hits,
            "engine.transitions_misses": memo.misses,
            "engine.transitions_hit_ratio": ratio(memo.hits, lookups),
            "engine.transitions_entries": memo.currsize,
            "signatures.accessible_targets_s":
                busy["signatures.accessible_targets"],
            "signatures.accessible_targets_calls":
                calls["signatures.accessible_targets"],
            "pruning.mid_s": busy[MID],
            "pruning.mid_calls": calls[MID],
            "pruning.mid_kill_ratio": ratio(self.killed[MID], calls[MID]),
            "pruning.boundary_s": busy[BOUNDARY],
            "pruning.boundary_calls": calls[BOUNDARY],
            "pruning.boundary_kill_ratio":
                ratio(self.killed[BOUNDARY], calls[BOUNDARY]),
            "flm.assemble_s": busy["flm.assemble"],
            "modseries.from_integers_s": busy["modseries.from_integers"],
            "modseries.to_exact_s": busy["modseries.to_exact"],
            "modseries.write_series_s": busy["modseries.write_series"],
            "modseries.bytes_written": self.bytes_written,
            "analysis.da_scan_s": busy["analysis.da_scan"],
            "analysis.approximant_s": busy["analysis.differential_approximant"],
            "analysis.roots_s": busy["analysis.singularity_estimate"]
                - child_busy["analysis.singularity_estimate"],
            "analysis.approximants": approximants,
            "analysis.defective_ratio": ratio(
                self.errors["analysis.singularity_estimate"], approximants),
            "trace.bookkeeping_s": busy[BOOKKEEPING],
            "trace.coverage": ratio(top_busy, wall_s),
        }

    def dump(self, path) -> None:
        self._flush()
        keys = ("name", "start", "end", "parent", "busy", "calls")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def install() -> Tracer:
    """Wrap the layer entry points of this interpreter's sawenum modules."""
    t = Tracer()
    engine.sweep = t.span("engine.sweep", engine.sweep)
    engine.kink_update = t.kink_update(engine.kink_update)
    # engine imported these by name, so its own references are the ones
    # its loops call
    engine.additional_steps_mid = t.folded(MID, engine.additional_steps_mid)
    engine.additional_steps_packed = t.folded(
        BOUNDARY, engine.additional_steps_packed)
    engine.accessible_targets = t.folded(
        "signatures.accessible_targets", engine.accessible_targets)
    poly = modseries.TruncatedPolynomial
    poly.from_integers = classmethod(
        t.span("modseries.from_integers", poly.from_integers.__func__))
    modseries.SeriesTable.to_exact = t.span(
        "modseries.to_exact", modseries.SeriesTable.to_exact)
    cli.write_series = t.write_series(cli.write_series)
    flm.assemble = t.span("flm.assemble", flm.assemble)
    analysis.da_scan = t.span("analysis.da_scan", analysis.da_scan)
    analysis.singularity_estimate = t.span(
        "analysis.singularity_estimate", analysis.singularity_estimate)
    analysis.differential_approximant = t.span(
        "analysis.differential_approximant", analysis.differential_approximant)
    return t
