"""Replay concrete walks through the vertex-by-vertex scan.

For a walk drawn on a width x length box this derives, at every point of the
scan order, the exact packed state the engine must hold, by following the walk
from each cut edge towards its unprocessed side.  Used to verify that the
engine's transition generator produces every real walk's state chain with the
correct step weights, and that the pruning bounds never exceed the walk's true
remaining step count.
"""

from __future__ import annotations


def spanning_walks(width: int, length: int, n_max: int):
    """All walks (vertex sequences) inside the (length+1) x (width+1) grid
    whose bounding box is exactly the full box and whose length is <= n_max,
    one representative per undirected edge set."""
    nx, ny = length + 1, width + 1
    walks = []
    occ = set()

    def rec(path):
        if len(path) - 1 >= 1:
            xs = [p[0] for p in path]
            ys = [p[1] for p in path]
            if max(xs) - min(xs) == length and max(ys) - min(ys) == width:
                walks.append(list(path))
        if len(path) - 1 == n_max:
            return
        x, y = path[-1]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            p = (x + dx, y + dy)
            if 0 <= p[0] < nx and 0 <= p[1] < ny and p not in occ:
                occ.add(p)
                path.append(p)
                rec(path)
                path.pop()
                occ.remove(p)

    for sx in range(nx):
        for sy in range(ny):
            occ.add((sx, sy))
            rec([(sx, sy)])
            occ.remove((sx, sy))
    seen = set()
    shapes = []
    for w in walks:
        key = frozenset(frozenset(e) for e in zip(w, w[1:]))
        if key not in seen:
            seen.add(key)
            shapes.append(w)
    return shapes


def state_key(walk, t: int, width: int) -> int:
    """Packed flat state after the first ``t`` vertices in scan order."""
    edges = set(frozenset(e) for e in zip(walk, walk[1:]))

    def order_index(v):
        return v[0] * (width + 1) + v[1]

    def processed(v):
        return order_index(v) < t

    c, r = divmod(t, width + 1)
    slots: list = []
    for i in range(r):
        slots.append(frozenset({(c, i), (c + 1, i)}))
    slots.append(frozenset({(c, r - 1), (c, r)}) if r > 0 else None)
    for i in range(r, width + 1):
        slots.append(frozenset({(c - 1, i), (c, i)}))

    def cut_and_occ(e):
        if e is None:
            return False
        a, b = tuple(e)
        return processed(a) != processed(b) and e in edges

    occ_slots = [i for i, e in enumerate(slots) if cut_and_occ(e)]
    occ_edges = [slots[i] for i in occ_slots]

    def partner(slot_i):
        # walk from the cut edge toward the unprocessed side until another
        # cut edge is traversed; None if the walk terminates first
        e = slots[slot_i]
        a, b = tuple(e)
        un = a if not processed(a) else b
        idx = next(
            j for j in range(len(walk) - 1)
            if frozenset({walk[j], walk[j + 1]}) == e
        )
        if walk[idx] == un:
            seq = range(idx, -1, -1)
        else:
            seq = range(idx + 1, len(walk))
        prev = None
        for j in seq:
            v = walk[j]
            if prev is not None:
                ee = frozenset({prev, v})
                if ee != e and ee in occ_edges:
                    return occ_edges.index(ee)
            prev = v
        return None

    key = 0
    for i in occ_slots:
        p = partner(i)
        lab = 3 if p is None else (1 if occ_slots[p] > i else 2)
        key |= lab << (2 * i)
    fb = 2 * (width + 2)
    for v in walk:
        if processed(v):
            if v[1] == 0:
                key |= 1 << fb
            if v[1] == width:
                key |= 1 << (fb + 1)
    return key


def replay(walk, width: int):
    """The walk's state chain: (state-before, row, column, k, state-after)
    per scan step, ending with the completing step.

    ``k`` is the number of walk edges newly attached at that vertex (the
    outgoing right/up edges), i.e. the engine's step weight exponent.
    """
    edges = set(frozenset(e) for e in zip(walk, walk[1:]))
    last_t = max(v[0] * (width + 1) + v[1] for v in walk) + 1
    chain = []
    for t in range(last_t):
        c, r = divmod(t, width + 1)
        k = sum(
            1 for e in (frozenset({(c, r), (c + 1, r)}),
                        frozenset({(c, r), (c, r + 1)}))
            if e in edges
        )
        after = state_key(walk, t + 1, width) if t + 1 < last_t else None
        chain.append((state_key(walk, t, width), r, c, k, after))
    return chain
