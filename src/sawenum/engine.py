"""The cut-line sweep, in pure Python.

This is the reference sweep: the compiled kernel ``sawenum.ckernel`` is a
line-for-line port of it that runs every sweep when a C compiler is found,
and is tested against it; without a compiler this module is the fallback.

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

At a column boundary the cut-line is straight, and the reflection y -> W - y
maps the strip to itself: a state and its mirror image (``signatures.mirror``)
have the same future completions.  The top row's kink move therefore writes
each target under the next column's key, the smaller of its shifted image and
that image's mirror, which about halves the states carried.  With pruning on,
completions in columns < W are not credited: the prune drops walks that cannot
reach column W, so those columns would be incomplete anyway, and leaving them
empty keeps the ledger independent of the states carried.

States are packed integers (2 bits per slot, border flags on top) mapped to
truncated generating functions.  The generating functions are themselves
packed integers: one fixed-width field per degree holding the exact count, so
``self += x**k * other`` is a single shift-mask-add on big integers.  The
sweep returns the completion ledger as exact integers, as the compiled
kernel does.
"""

from __future__ import annotations

from functools import lru_cache

from .flm import check_sweep_args
from .pruning import additional_steps_mid, additional_steps_packed
from .signatures import accessible_targets, mirror


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


def transitions(key: int, r: int, width: int, first_col: bool):
    """All legal targets of one kink move at row ``r``.

    Returns ``(targets, completes)`` where ``targets`` is a tuple of
    ``(new_key, k)`` pairs (k = number of newly occupied edges) and
    ``completes`` is True when the source closes into a finished spanning walk
    (weight x^0, to be credited to the current column's ledger).  At the top
    row each ``new_key`` is the next column's key, as the kernel writes it.
    """
    fb = 2 * (width + 2)  # first flag bit
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
            arcs, frees = accessible_targets(rest, r)

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
            for lo, hi in arcs:
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
    if top_row:
        # the next column's key: the shifted target or its mirror image
        next_keys = []
        for tk, k in targets:
            assert not (tk >> (2 * (width + 1))) & 3, "slot W + 1 is occupied"
            tk = ((tk << 2) & edges_mask) | (tk & ~edges_mask)
            next_keys.append((min(tk, mirror(tk, width)), k))
        targets = next_keys
    return tuple(targets), completes


#: ``transitions`` depends only on its arguments and the same (key, row)
#: pairs recur every column, so a bounded memo pays for itself quickly, and
#: the top row's mirror images are computed once per distinct key.
#: (The prune bound is deliberately *not* memoized: its (key, row, column)
#: triples almost never recur, so a cache only burns memory.)
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
) -> tuple[StateMap, int]:
    """Apply one kink move (one added vertex) to every state.

    Returns the new state map and the packed completion weights of this move.
    ``bits`` is the coefficient field width and ``mask`` truncates degrees
    above n_max.  ``sweep`` calls this through the module attribute, so a
    wrapper set on ``engine.kink_update`` sees every move's states.
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
    # only nonzero weights are added, so no state is ever empty
    return out, completions


def sweep(width: int, l_max: int, n_max: int, prune: bool = True):
    """Run the full sweep for one rectangle width.

    Returns the exact completion ledger: ``ledger[c][d]`` is the number of
    walks of ``d`` steps (``d`` <= ``n_max``) finishing with rightmost
    extent at vertex-column ``c``, i.e. the spanning-walk counts of the
    ``width`` x ``c`` box.  Columns ``0..l_max`` are processed.  With
    ``prune``, states are pruned against ``n_max`` after every kink move,
    after the top row at the next column's boundary (row -1), and columns
    < ``width`` are left empty.  The bound is looked up as the module
    attributes ``additional_steps_packed`` (column boundary) and
    ``additional_steps_mid`` (below the top row), so a wrapper set on
    either sees each of its evaluations.
    """
    check_sweep_args(width, l_max, n_max)
    fb = 2 * (width + 2)  # first flag bit
    bits = field_bits(n_max)
    mask = (1 << (bits * (n_max + 1))) - 1
    # degree_masks[n_add] keeps only coefficients that can still complete
    degree_masks = [
        (1 << (bits * (n_max - na + 1))) - 1 for na in range(n_max + 1)
    ]

    def pruned(states: StateMap, r: int, column: int) -> StateMap:
        # a coefficient at degree d only completes at d + n_add or later, so
        # degrees above n_max - n_add are dead weight
        kept: StateMap = {}
        for key, poly in states.items():
            bottom = bool(key & (1 << fb))
            top = bool(key & (2 << fb))
            if r < 0:
                n_add = additional_steps_packed(
                    key, width, bottom, top, column)
            else:
                n_add = additional_steps_mid(
                    key, r, width, bottom, top, column)
            live = poly & degree_masks[n_add] if n_add <= n_max else 0
            if live:
                kept[key] = live
        return kept

    # row -1 is the column boundary, where slot 0 is the empty kink slot;
    # the top row's kink move writes the next column's keys
    states = pruned(seed(), -1, 0) if prune else seed()
    ledger_packed = [0] * (l_max + 1)
    for c in range(l_max + 1):
        for r in range(width + 1):
            states, comp = kink_update(states, width, r, c == 0, bits, mask)
            if not prune or c >= width:
                ledger_packed[c] += comp
            if prune and r < width:
                states = pruned(states, r, c)
        if c == 0:
            states.pop(0, None)  # no more walk starts after column 0
        if prune and c < l_max:  # the last column's states are dropped
            states = pruned(states, -1, c + 1)
    return [unpack_coefficients(p, bits, n_max) for p in ledger_packed]
