"""The cut-line sweep.

The lattice is built one vertex at a time, bottom row to top row within a
column, column by column.  While row ``r`` of a column is being processed the
state is a flat sequence of W+2 edge slots: slots ``0..r-1`` hold the new
right-pointing edges of the current column, slot ``r`` the vertical kink edge,
and slots ``r+1..W+1`` the not-yet-consumed left edges.  Signatures prescribe
*future* connections: a lower/upper pair must be joined right of the cut-line,
a free edge must terminate at a walk end-point.

At the vertex the two incoming edges are slot ``r`` (from below) and slot
``r+1`` (from the left).  Both occupied is only legal for adjacent arc
partners ('1' below '2'), which are joined; one occupied continues along one
outgoing edge (or terminates, for a free end); both empty admits either
leaving the vertex empty or inserting new occupied edges that splice into an
accessible arc or free edge.  Walks may start (creating free edges) only while
the first column is built, which forces every walk to touch the left border.

States are packed integers (2 bits per slot, border flags on top) mapped to
truncated generating functions.  The generating functions are themselves
packed integers: one fixed-width field per degree holding the exact count, so
``self += x**k * other`` is a single shift-mask-add on big integers.  Residue
reduction happens only when the completion ledger is converted for output.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from functools import lru_cache

from .modseries import DEFAULT_MODULI, TruncatedPolynomial
from .pruning import PruneContext, additional_steps_mid, additional_steps_packed
from .pruning_fast import additional_steps_mid_fast
from .signatures import accessible_targets, decode, validate

FORBIDDEN_KINKS = {(1, 1), (2, 2), (2, 1), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3)}


class EngineFault(RuntimeError):
    """Internal consistency violation (e.g. a forbidden kink state)."""


StateMap = dict  # packed signature key -> packed coefficient integer


def field_bits(n_max: int) -> int:
    """Coefficient field width for a run truncated at ``n_max``.

    Counts of partial configurations grow no faster than ~2.64**n times a
    polynomial, i.e. well under 2**(1.5*n + 32); rounding the field up to a
    byte multiple leaves a wide margin against overflow into the next field.
    """
    return max(64, -(-(int(1.5 * n_max) + 32) // 8) * 8)


def unpack_coefficients(packed: int, bits: int, n_max: int) -> list[int]:
    """Exact coefficients c_0..c_n_max of a packed generating function."""
    fmask = (1 << bits) - 1
    return [(packed >> (bits * d)) & fmask for d in range(n_max + 1)]


def packed_min_degree(packed: int, bits: int) -> int:
    """Lowest degree with a nonzero coefficient (``packed`` must be != 0)."""
    return ((packed & -packed).bit_length() - 1) // bits


def transitions(key: int, r: int, width: int, first_col: bool):
    """All legal targets of one kink move at row ``r``.

    Returns ``(targets, completes)`` where ``targets`` is a tuple of
    ``(new_key, k)`` pairs (k = number of newly occupied edges) and
    ``completes`` is True when the source closes into a finished spanning walk
    (weight x^0, to be credited to the current column's ledger).
    """
    nslots = width + 2
    fb = 2 * nslots  # first flag bit
    edges_mask = (1 << fb) - 1
    shift = 2 * r
    a = (key >> shift) & 3          # vertical kink edge, below
    b = (key >> (shift + 2)) & 3    # left horizontal edge, above
    base = key & ~(15 << shift)
    rest = base & edges_mask
    top_row = r == width
    above = 0 if top_row else (base >> (shift + 4)) & 3

    def flagged(key_: int) -> int:
        # the current vertex is on the walk: record border touches
        if r == 0:
            key_ |= 1 << fb
        if r == width:
            key_ |= 1 << (fb + 1)
        return key_

    both_flags = 3 << fb

    targets: list[tuple[int, int]] = []
    completes = False

    if a and b:
        if (a, b) != (1, 2):
            raise EngineFault(
                f"forbidden kink state {a}{b} at row {r} (key {key:#x})"
            )
        out = flagged(base)
        if rest == 0:
            completes = (out & both_flags) == both_flags
        else:
            targets.append((out, 0))
    elif a or b:
        s = a or b
        targets.append((flagged(base | (s << shift)), 1))  # along the row
        if not top_row and (above == 0 or (s == 1 and above == 2)):
            targets.append((flagged(base | (s << (shift + 2))), 1))  # upward
        if s == 3:  # free end terminates here
            out = flagged(base)
            if rest == 0:
                completes = (out & both_flags) == both_flags
            else:
                targets.append((out, 0))
    else:
        targets.append((key, 0))  # vertex stays empty
        if key == 0:
            if first_col:
                # walk starts: free single edge, or an all-free arc
                targets.append((flagged(3 << shift), 1))
                if not top_row:
                    targets.append((flagged(3 << (shift + 2)), 1))
                    targets.append((flagged(15 << shift), 2))
        elif rest:
            edges = tuple((base >> (2 * i)) & 3 for i in range(nslots))
            gap = r + 0.5
            arcs, frees = accessible_targets(edges, gap)

            def emit(newkey: int, k: int) -> None:
                s_up = (newkey >> (shift + 2)) & 3
                if s_up:
                    if top_row:
                        return
                    t = (newkey >> (shift + 4)) & 3
                    if t and not (s_up == 1 and t == 2):
                        return
                targets.append((flagged(newkey), k))

            for f in frees:
                fshift = 2 * f
                if f > r + 1:
                    relab = (base & ~(3 << fshift)) | (2 << fshift)
                    new_lab = 1
                else:
                    relab = (base & ~(3 << fshift)) | (1 << fshift)
                    new_lab = 2
                # single edge: end-point at this vertex, connects to the free
                emit(relab | (new_lab << shift), 1)
                emit(relab | (new_lab << (shift + 2)), 1)
                # arc: one end takes over the free pairing, the other becomes
                # the new free end
                emit(relab | (new_lab << shift) | (3 << (shift + 2)), 2)
                emit(relab | (3 << shift) | (new_lab << (shift + 2)), 2)
            for lo, hi, _lvl in arcs:
                if lo < r and hi > r + 1:
                    # splice inside the enclosing arc
                    emit(base | (2 << shift) | (1 << (shift + 2)), 2)
                elif hi < r:
                    # arc below: its upper end flips to lower
                    relab = (base & ~(3 << (2 * hi))) | (1 << (2 * hi))
                    emit(relab | (2 << shift) | (2 << (shift + 2)), 2)
                else:
                    # arc above: its lower end flips to upper
                    relab = (base & ~(3 << (2 * lo))) | (2 << (2 * lo))
                    emit(relab | (1 << shift) | (1 << (shift + 2)), 2)
    return tuple(targets), completes


#: ``transitions`` depends only on its arguments and the same (key, row)
#: pairs recur every column, so a bounded memo pays for itself quickly.
#: (The mid-column prune bound is deliberately *not* memoized: its
#: (key, row, column) triples almost never recur, so a cache only burns
#: memory.)
_transitions = lru_cache(maxsize=1 << 20)(transitions)


def seed() -> StateMap:
    """Initial state map: the empty boundary with unit weight (x^0)."""
    return {0: 1}


def kink_update(
    states: StateMap,
    width: int,
    r: int,
    first_col: bool,
    bits: int,
    mask: int,
    check_invariants: bool = False,
) -> tuple[StateMap, int]:
    """Apply one kink move (one added vertex) to every state.

    Returns the new state map and the packed completion weights of this move.
    ``mask`` truncates degrees above n_max.
    """
    out: StateMap = {}
    completions = 0
    get = out.get
    for key, poly in states.items():
        targs, completes = _transitions(key, r, width, first_col)
        if completes:
            completions += poly
        for tk, k in targs:
            w = (poly << (bits * k)) & mask if k else poly
            if w:
                out[tk] = get(tk, 0) + w
    if check_invariants:
        _check_states(out, width)
    # drop states emptied by truncation
    return {k: p for k, p in out.items() if p}, completions


def _check_states(states: StateMap, width: int) -> None:
    for key in states:
        sig = decode(key, width + 2)
        err = validate(sig)
        if err is not None:
            raise EngineFault(f"invalid signature {sig}: {err}")


def _shard_of(key: int, lo_slot: int, hi_slot: int, nshards: int) -> int:
    """Shard index from the occupation pattern of slots [lo_slot, hi_slot].

    Those slots are exactly the ones the upcoming half-column cannot touch, so
    states never migrate between shards until the next redistribution.
    """
    pat = 0
    for i in range(lo_slot, hi_slot + 1):
        pat = (pat << 1) | (1 if (key >> (2 * i)) & 3 else 0)
    return pat % nshards


# ---------------------------------------------------------------------------
# Disk spilling.  Past a few million live states the state map no longer fits
# in memory, so a column is processed in shards that are re-partitioned to
# disk between the two half-column row blocks and between columns.  Merging
# re-loaded shards *adds* coinciding polynomials, which makes any partition of
# the states correct (the sharded run redistributes exactly the sums the
# unsharded run would have accumulated in one dict); partitioning on the
# half-column's untouched slots just keeps such collisions rare.


_SPILL_TARGET_PER_SHARD = 250_000


class _SpilledStates:
    """A state map partitioned into pickle bucket files on disk."""

    def __init__(self, directory: str, tag: str, nshards: int):
        self.nshards = nshards
        self.count = 0
        self.paths = [
            os.path.join(directory, f"{tag}.{i}.bucket") for i in range(nshards)
        ]
        self._writers = [open(p, "wb") for p in self.paths]

    def append(self, shard: int, chunk: StateMap) -> None:
        pickle.dump(chunk, self._writers[shard], protocol=pickle.HIGHEST_PROTOCOL)
        self.count += len(chunk)

    def seal(self) -> None:
        for fh in self._writers:
            fh.close()
        self._writers = []

    def read_shard(self, shard: int) -> StateMap:
        merged: StateMap = {}
        with open(self.paths[shard], "rb") as fh:
            while True:
                try:
                    chunk = pickle.load(fh)
                except EOFError:
                    break
                for key, poly in chunk.items():
                    if key in merged:
                        merged[key] += poly
                    else:
                        merged[key] = poly
        return merged

    def unlink(self) -> None:
        for p in self.paths:
            try:
                os.remove(p)
            except FileNotFoundError:
                pass


def _spill_partition(
    out: _SpilledStates, states: StateMap, lo_slot: int, hi_slot: int
) -> None:
    """Move ``states`` into ``out``'s buckets, consuming it entry by entry."""
    parts: list[StateMap] = [dict() for _ in range(out.nshards)]
    while states:
        key, poly = states.popitem()
        parts[_shard_of(key, lo_slot, hi_slot, out.nshards)][key] = poly
    for i, d in enumerate(parts):
        if d:
            out.append(i, d)


def _column_spilled(
    stream,
    width: int,
    column: int,
    bits: int,
    mask: int,
    check_invariants: bool,
    prune_bits,
    spill_dir: str,
    write_next: bool,
):
    """One full column (boundary prune, both half-columns, boundary shift)
    processed shard by shard with intermediate states spilled to disk.

    ``stream`` is the column-entry state map, either an in-memory dict or a
    ``_SpilledStates`` already partitioned on the first block's untouched
    slots.  Returns the next column's entry stream (a ``_SpilledStates``, or
    an empty dict when ``write_next`` is false) and the packed completions.
    """
    nslots = width + 2
    edges_mask = (1 << (2 * nslots)) - 1
    flags_mask = 3 << (2 * nslots)
    rows_mask = (1 << (2 * (width + 1))) - 1
    half = (width + 1) // 2
    b1_rows, b2_rows = range(0, half), range(half, width + 1)
    b1_lo, b1_hi = half + 1, width + 1  # slots the first block cannot touch
    b2_lo, b2_hi = 0, half - 1

    if isinstance(stream, _SpilledStates):
        count = stream.count
    else:
        count = len(stream)
    nshards = max(8, min(256, count // _SPILL_TARGET_PER_SHARD + 1))
    if isinstance(stream, dict):
        spilled = _SpilledStates(spill_dir, f"col{column}.in", nshards)
        _spill_partition(spilled, stream, b1_lo, b1_hi)
        spilled.seal()
        stream = spilled

    n_max = visits = degree_masks = None
    if prune_bits is not None:
        n_max, visits, degree_masks = prune_bits
        ctx = PruneContext(width=width, column=column, n_max=n_max)

    completions = 0
    stage2 = _SpilledStates(spill_dir, f"col{column}.mid", nshards)
    for i in range(stream.nshards):
        states = stream.read_shard(i)
        if prune_bits is not None:
            kept: StateMap = {}
            for key, poly in states.items():
                ekey = (key >> 2) & rows_mask
                n_add = additional_steps_packed(
                    ekey,
                    bool(key & (1 << (2 * nslots))),
                    bool(key & (2 << (2 * nslots))),
                    ctx, visits,
                )
                live = poly & degree_masks[n_add] if n_add <= n_max else 0
                if live:
                    kept[key] = live
            states = kept
        states, comp = _run_rows(
            (states, b1_rows, width, column == 0, bits, mask,
             check_invariants,
             (column, n_max, visits, degree_masks) if prune_bits is not None
             else None)
        )
        completions += comp
        _spill_partition(stage2, states, b2_lo, b2_hi)
    stage2.seal()
    stream.unlink()

    nxt = (
        _SpilledStates(spill_dir, f"col{column + 1}.in", nshards)
        if write_next else None
    )
    for i in range(nshards):
        states = stage2.read_shard(i)
        states, comp = _run_rows(
            (states, b2_rows, width, column == 0, bits, mask,
             check_invariants,
             (column, n_max, visits, degree_masks) if prune_bits is not None
             else None)
        )
        completions += comp
        if nxt is None:
            states = None
            continue
        if column == 0:
            states.pop(0, None)  # no more walk starts after column 0
        shifted: StateMap = {}
        while states:
            key, poly = states.popitem()
            if (key >> (2 * (width + 1))) & 3:
                raise EngineFault("occupied vertical edge above the lattice")
            shifted[((key & edges_mask) << 2) & edges_mask
                    | (key & flags_mask)] = poly
        _spill_partition(nxt, shifted, b1_lo, b1_hi)
    stage2.unlink()
    if nxt is None:
        return {}, completions
    nxt.seal()
    return nxt, completions


def _run_rows(args):
    states, rows, width, first_col, bits, mask, check, prune_ctx = args
    completions = 0
    fb = 2 * (width + 2)
    for r in rows:
        states, comp = kink_update(states, width, r, first_col, bits, mask, check)
        completions += comp
        if prune_ctx is not None and r != width:
            # prune right after the kink move; states that cannot finish
            # within n_max would otherwise multiply until the column boundary
            # (the boundary prune covers the last row's states)
            column, n_max, visits, degree_masks = prune_ctx
            cc = min(column, width)
            # the compiled bound is bit-for-bit equivalent but uncounted, so
            # instrumented runs keep the pure-Python form
            if visits is None and additional_steps_mid_fast is not None:
                mid_bound = additional_steps_mid_fast
            else:
                def mid_bound(k, rr, w, b, t, c):
                    return additional_steps_mid(k, rr, w, b, t, c, visits)
            kept: StateMap = {}
            for key, poly in states.items():
                n_add = mid_bound(
                    key & ((1 << fb) - 1), r, width,
                    bool(key & (1 << fb)), bool(key & (2 << fb)), cc,
                )
                # a coefficient at degree d only completes at d + n_add or
                # later, so degrees above n_max - n_add are dead weight
                live = poly & degree_masks[n_add] if n_add <= n_max else 0
                if live:
                    kept[key] = live
            states = kept
    return states, completions


def _process_column(
    states: StateMap,
    width: int,
    first_col: bool,
    bits: int,
    mask: int,
    workers: int,
    pool,
    check_invariants: bool,
    prune_ctx,
) -> tuple[StateMap, int]:
    """One column of vertices, optionally sharded over workers.

    The column is split in two halves of rows; within each half the slots on
    the far side of the kink's path are invariant, so sharding on their
    occupation pattern lets shards run independently.  Between the halves the
    states are redistributed (twice per column in total).
    """
    completions = 0
    half = (width + 1) // 2
    row_blocks = [range(0, half), range(half, width + 1)]
    if half == 0:
        row_blocks = [range(0, width + 1)]
    for rows in row_blocks:
        if workers <= 1 or len(states) < 2:
            states, comp = _run_rows(
                (states, rows, width, first_col, bits, mask, check_invariants,
                 prune_ctx)
            )
            completions += comp
            continue
        lo_slot = rows[-1] + 2  # first slot the block cannot touch, above
        hi_slot = width + 1
        if lo_slot > hi_slot:
            lo_slot, hi_slot = 0, rows[0] - 1  # invariant slots lie below
        shards: list[StateMap] = [dict() for _ in range(workers)]
        for key, poly in states.items():
            shards[_shard_of(key, lo_slot, hi_slot, workers)][key] = poly
        worker_ctx = (
            None
            if prune_ctx is None
            else (prune_ctx[0], prune_ctx[1], None, prune_ctx[3])
        )  # visit instrumentation is not shared across processes
        jobs = [
            (sh, rows, width, first_col, bits, mask, check_invariants,
             worker_ctx)
            for sh in shards
        ]
        results = pool.map(_run_rows, jobs) if pool else map(_run_rows, jobs)
        states = {}
        for sub, comp in results:
            states.update(sub)  # shards are disjoint by construction
            completions += comp
    return states, completions


def check_sweep_args(width: int, l_max: int, n_max: int) -> None:
    """Reject a negative size or a sweep whose states the packed key layout
    cannot hold; the compiled kernel shares the layout, so ``flm`` checks
    this for both."""
    if width < 0 or l_max < 0 or n_max < 0:
        raise ValueError("width, l_max and n_max must be non-negative")
    if 2 * (width + 2) + 2 > 62:
        raise ValueError(f"width {width} overflows the packed key layout")


def sweep(
    width: int,
    l_max: int,
    n_max: int,
    moduli=DEFAULT_MODULI,
    prune: bool = True,
    workers: int = 1,
    check_invariants: bool = False,
    prune_visits: list[int] | None = None,
    spill_threshold: int = 1_000_000,
    spill_dir: str | None = None,
):
    """Run the full sweep for one rectangle width.

    Returns the completion ledger: ``ledger[c]`` is the truncated polynomial of
    walks finishing with rightmost extent at vertex-column ``c``, i.e. the
    spanning-walk counts of the ``width`` x ``c`` box.  Columns ``0..l_max``
    are processed; states are pruned at every column boundary against
    ``n_max``.

    When the live state map outgrows ``spill_threshold`` entries, columns are
    processed shard by shard with intermediate states spilled to disk (under
    ``spill_dir``, a fresh temporary directory by default); results are
    identical.  The spilled path is single-process, so it ignores ``workers``.
    """
    check_sweep_args(width, l_max, n_max)
    nslots = width + 2
    edges_mask = (1 << (2 * nslots)) - 1
    flags_mask = 3 << (2 * nslots)
    bits = field_bits(n_max)
    mask = (1 << (bits * (n_max + 1))) - 1
    # degree_masks[n_add] keeps only coefficients that can still complete
    degree_masks = [
        (1 << (bits * (n_max - na + 1))) - 1 for na in range(n_max + 1)
    ]

    pool = None
    if workers > 1:
        import multiprocessing

        pool = multiprocessing.get_context("fork").Pool(workers)
    tmp_spill = None
    try:
        states = seed()
        ledger_packed = [0] * (l_max + 1)
        for c in range(l_max + 1):
            if isinstance(states, _SpilledStates) or len(states) > spill_threshold:
                if spill_dir is None and tmp_spill is None:
                    tmp_spill = tempfile.mkdtemp(prefix="sawenum-spill-")
                states, comp = _column_spilled(
                    states, width, c, bits, mask, check_invariants,
                    (n_max, prune_visits, degree_masks) if prune else None,
                    spill_dir or tmp_spill,
                    write_next=c < l_max,
                )
                ledger_packed[c] = comp
                continue
            if prune:
                ctx = PruneContext(width=width, column=c, n_max=n_max)
                kept: StateMap = {}
                rows_mask = (1 << (2 * (width + 1))) - 1
                for key, poly in states.items():
                    # start-of-column layout: slot 0 is the (empty) kink slot,
                    # row q sits at slot q+1
                    ekey = (key >> 2) & rows_mask
                    bottom = bool(key & (1 << (2 * nslots)))
                    top = bool(key & (2 << (2 * nslots)))
                    n_add = additional_steps_packed(
                        ekey, bottom, top, ctx, prune_visits
                    )
                    live = poly & degree_masks[n_add] if n_add <= n_max else 0
                    if live:
                        kept[key] = live
                states = kept
            states, comp = _process_column(
                states, width, c == 0, bits, mask, workers, pool,
                check_invariants,
                (c, n_max, prune_visits, degree_masks) if prune else None,
            )
            ledger_packed[c] = comp
            if c == 0:
                states.pop(0, None)  # no more walk starts after column 0
            # boundary shift: retire the top kink slot, open one below row 0
            shifted: StateMap = {}
            for key, poly in states.items():
                if (key >> (2 * (width + 1))) & 3:
                    raise EngineFault("occupied vertical edge above the lattice")
                shifted[((key & edges_mask) << 2) & edges_mask | (key & flags_mask)] = poly
            states = shifted
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        if tmp_spill is not None:
            shutil.rmtree(tmp_spill, ignore_errors=True)
    return [
        TruncatedPolynomial.from_integers(
            moduli, n_max, unpack_coefficients(p, bits, n_max)
        )
        for p in ledger_packed
    ]
