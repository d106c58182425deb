"""Slot reads of the prune bound, counted from outside the library.

``pruning.additional_steps_mid`` reads a state's 2-bit slots on the lines
that shift ``key`` right.  A line trace on the bound's code object counts
how often those lines run in each evaluation, so the bound's cost is checked
on the code the sweeps really run, and nothing in the library counts.  The
count is an upper bound on the reads: the line that tests the kink slot runs
once per closed top-level arc, but reads the slot only for the arc that ends
right above it.
"""

from __future__ import annotations

import dis
import linecache
import sys
from itertools import count

from sawenum import engine, pruning

BOUND = pruning.additional_steps_mid.__code__
#: the bound's lines that read a slot: every line that shifts ``key`` right
SLOT_READ_LINES = frozenset(
    line for _, line in dis.findlinestarts(BOUND)
    if line and "key >>" in linecache.getline(BOUND.co_filename, line))
assert SLOT_READ_LINES, "no slot-read line found in the bound"


def slot_reads(fn, *args):
    """``fn(*args)``, and the slot reads of each bound evaluation it made,
    in call order."""
    reads: list[int] = []

    def lines(frame, event, arg):
        if event == "line" and frame.f_lineno in SLOT_READ_LINES:
            reads[-1] += 1
        return lines

    def calls(frame, event, arg):
        if frame.f_code is BOUND:
            reads.append(0)
            return lines
        return None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        out = fn(*args)
    finally:
        sys.settrace(old)
    return out, reads


def sample_sweep_reads(monkeypatch, every: int) -> list[int]:
    """Trace every ``every``-th bound evaluation the engine's sweeps make,
    at both prune sites; returns the list the slot reads of each traced
    evaluation are appended to."""
    reads: list[int] = []
    calls = count()
    for name in ("additional_steps_mid", "additional_steps_packed"):
        def sampled(*args, bound=getattr(engine, name)):
            if next(calls) % every:
                return bound(*args)
            out, traced = slot_reads(bound, *args)
            reads.extend(traced)
            return out
        monkeypatch.setattr(engine, name, sampled)
    return reads
