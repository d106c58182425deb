"""Cut-line signature algebra.

A signature describes the state of the edges intersected by the transfer-matrix
cut-line, read from the bottom of the rectangle to the top.  Each edge is in
one of four states (empty / lower arc end / upper arc end / free end), and two
extra flags record whether the partially built walk has touched the bottom and
top borders.  Lower/upper entries form a balanced non-crossing matching; free
entries mark edges whose continuation terminates at a walk end-point.

Everything in this module is a pure function of the signature; no sweep state
is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

EMPTY, LOWER, UPPER, FREE = 0, 1, 2, 3


class SignatureError(ValueError):
    """Raised for structurally invalid signatures or malformed keys."""


@dataclass(frozen=True)
class Signature:
    """Edge states bottom-to-top plus the two border-touch flags."""

    edges: tuple[int, ...]
    bottom_touched: bool = False
    top_touched: bool = False

    @classmethod
    def from_string(cls, s: str, bottom: bool = False, top: bool = False) -> "Signature":
        """Build from a digit string like '030010230' (read bottom to top)."""
        return cls(tuple(int(ch) for ch in s), bottom, top)

    def __str__(self) -> str:
        return "".join(str(e) for e in self.edges)


class Arc(NamedTuple):
    """A matched lower/upper pair; positions are edge indices from the bottom."""

    lower: int
    upper: int
    level: int  # number of arcs strictly enclosing this one


def encode(sig: Signature) -> int:
    """Pack a signature into an integer key: 2 bits per edge, flags on top.

    Deterministic and injective for a fixed number of edges.
    """
    key = 0
    for i, e in enumerate(sig.edges):
        if not 0 <= e <= 3:
            raise SignatureError(f"invalid edge state {e!r} at position {i}")
        key |= e << (2 * i)
    base = 2 * len(sig.edges)
    if sig.bottom_touched:
        key |= 1 << base
    if sig.top_touched:
        key |= 1 << (base + 1)
    return key


def decode(key: int, num_edges: int) -> Signature:
    """Inverse of :func:`encode` for a key packed with ``num_edges`` slots."""
    if key < 0 or key >> (2 * num_edges + 2):
        raise SignatureError(f"key {key} out of range for {num_edges} edge slots")
    edges = tuple((key >> (2 * i)) & 3 for i in range(num_edges))
    base = 2 * num_edges
    return Signature(edges, bool((key >> base) & 1), bool((key >> (base + 1)) & 1))


def match_arcs(sig: Signature | tuple[int, ...]) -> list[Arc]:
    """Match lower/upper entries into arcs and compute nesting levels.

    Free and empty entries are ignored.  Raises on unbalanced sequences.
    """
    edges = sig.edges if isinstance(sig, Signature) else sig
    stack: list[int] = []
    arcs: list[Arc] = []
    for pos, e in enumerate(edges):
        if e == LOWER:
            stack.append(pos)
        elif e == UPPER:
            if not stack:
                raise SignatureError(f"unmatched upper end at position {pos}")
            # nesting level = arcs still open below this pair after closing
            arcs.append(Arc(stack.pop(), pos, len(stack)))
    if stack:
        raise SignatureError(f"unmatched lower end at position {stack[-1]}")
    arcs.sort(key=lambda a: a.lower)
    return arcs


def _blocked(arcs: list[Arc], lo: float, hi: float, skip: Arc | None) -> bool:
    """True if some arc other than ``skip`` has exactly one endpoint in (lo, hi)."""
    for arc in arcs:
        if arc is skip:
            continue
        if (lo < arc.lower < hi) != (lo < arc.upper < hi):
            return True
    return False


def accessible_targets(
    sig: Signature | tuple[int, ...], insert_pos: float
) -> tuple[list[Arc], list[int]]:
    """Arcs and free edges reachable from ``insert_pos`` without crossing.

    ``insert_pos`` is the location of the insertion site; half-integer values
    denote the gap between two edge slots.  A target is reachable when no arc
    separates it from the insertion site, i.e. no arc has exactly one endpoint
    strictly between the site and the target.  Arcs never enclose free edges
    "for free": a free edge hidden inside an arc (relative to the site) is
    unreachable, while free edges themselves never block anything.
    """
    edges = sig.edges if isinstance(sig, Signature) else sig
    arcs = match_arcs(edges)
    ok_arcs: list[Arc] = []
    for arc in arcs:
        if arc.lower < insert_pos < arc.upper:
            near = arc.lower  # either endpoint gives the same answer
        elif arc.upper < insert_pos:
            near = arc.upper
        else:
            near = arc.lower
        lo, hi = min(near, insert_pos), max(near, insert_pos)
        if not _blocked(arcs, lo, hi, arc):
            ok_arcs.append(arc)
    ok_free: list[int] = []
    for pos, e in enumerate(edges):
        if e == FREE:
            lo, hi = min(pos, insert_pos), max(pos, insert_pos)
            if not _blocked(arcs, lo, hi, None):
                ok_free.append(pos)
    return ok_arcs, ok_free


def mirror(key: int, width: int) -> int:
    """The mirror image y -> W - y of the start-of-column ``key`` of a strip
    of width W = ``width``, whose slot 0 is the empty kink slot.

    Slot j and slot W + 2 - j trade places (j >= 1), arc ends trade labels
    (LOWER <-> UPPER; free ends keep theirs) and so do the bottom and top
    border flags.  A state and its mirror image have the same future
    completions, so the sweeps sum both under ``min(key, mirror(key, W))``.
    """
    nslots = width + 2
    out = 0
    for j in range(1, nslots):
        e = (key >> (2 * j)) & 3
        if e == LOWER or e == UPPER:
            e ^= LOWER | UPPER
        out |= e << (2 * (nslots - j))
    fb = 2 * nslots
    return out | ((key >> fb) & 1) << (fb + 1) | ((key >> (fb + 1)) & 1) << fb


def validate(sig: Signature) -> str | None:
    """Return None if ``sig`` satisfies all signature invariants, else the
    first violated invariant as a description."""
    depth = 0
    free = 0
    for pos, e in enumerate(sig.edges):
        if not 0 <= e <= 3:
            return f"invalid edge state {e!r} at position {pos}"
        if e == LOWER:
            depth += 1
        elif e == UPPER:
            depth -= 1
            if depth < 0:
                return f"upper end before matching lower end at position {pos}"
        elif e == FREE:
            free += 1
    if depth != 0:
        return f"{depth} unmatched lower end(s)"
    if free > 2:
        return f"{free} free edges (at most 2 allowed)"
    return None


def is_valid(sig: Signature) -> bool:
    return validate(sig) is None


def all_valid_signatures(num_edges: int):
    """Yield every valid signature with ``num_edges`` edge slots and all four
    border-flag combinations.  Exhaustive; intended for small widths only."""
    def gen(prefix: list[int], depth: int, free: int):
        if len(prefix) == num_edges:
            if depth == 0:
                yield tuple(prefix)
            return
        for e in (EMPTY, LOWER, UPPER, FREE):
            if e == UPPER and depth == 0:
                continue
            if e == FREE and free == 2:
                continue
            d = depth + (1 if e == LOWER else -1 if e == UPPER else 0)
            if d > num_edges - len(prefix) - 1:
                continue  # not enough slots left to close open arcs
            prefix.append(e)
            yield from gen(prefix, d, free + (1 if e == FREE else 0))
            prefix.pop()

    for edges in gen([], 0, 0):
        for b in (False, True):
            for t in (False, True):
                yield Signature(edges, b, t)
