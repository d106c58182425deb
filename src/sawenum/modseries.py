"""Residue output, CRT reconstruction and the series file format.

Both sweeps count exact integers.  Residues modulo a set of pairwise coprime
moduli are only an output format, written by ``enumerate --residues``
alone (through :meth:`TruncatedPolynomial.from_integers`).  Exact integers
come back from residues via the Chinese remainder theorem, refused by
:func:`check_crt_range` when the moduli's product is too small to hold the
walk counts.  The default modulus pair is ``2**62`` and ``2**62 - 1``,
whose product holds c_n up to n = 77.
"""

from __future__ import annotations

import math

DEFAULT_MODULI = (2**62, 2**62 - 1)


class SeriesFormatError(ValueError):
    """Malformed series file."""


def check_coprime(moduli: list[int] | tuple[int, ...]) -> None:
    for m in moduli:
        if m < 2:
            raise ValueError(f"modulus {m} must be >= 2")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise ValueError(
                    f"moduli {moduli[i]} and {moduli[j]} are not coprime"
                )


def crt_reconstruct(residues, moduli) -> int:
    """Unique representative in [0, prod(moduli)) matching all residues."""
    if len(residues) != len(moduli):
        raise ValueError("residue/modulus length mismatch")
    check_coprime(moduli)
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        # lift x (mod m) to x' (mod m*mi) with x' ≡ r (mod mi)
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x


def check_crt_range(moduli, n_max: int) -> None:
    """Refuse ``moduli`` whose product does not exceed 4 * 3**(n_max - 1),
    the bound on c_1..c_n_max (four first steps, at most three for each
    later one); CRT would silently wrap a count past the product."""
    bound = 4 * 3 ** (n_max - 1) if n_max > 0 else 1
    if math.prod(moduli) <= bound:
        raise ValueError(
            f"moduli {','.join(map(str, moduli))} cannot hold counts up to "
            f"n = {n_max}: their product must exceed 4*3^{n_max - 1}")


class TruncatedPolynomial:
    """Residues of exact coefficients c_0..c_n_max, for writing as residues.

    ``coeffs[i][d]`` is the coefficient of x^d modulo ``moduli[i]``; each row
    is n_max + 1 long.
    """

    __slots__ = ("moduli", "n_max", "coeffs")

    def __init__(self, moduli, n_max: int, coeffs):
        self.moduli = moduli
        self.n_max = n_max
        self.coeffs = coeffs

    @classmethod
    def from_integers(cls, moduli, n_max: int, values) -> "TruncatedPolynomial":
        """Polynomial with exact integer coefficients c_0, c_1, ... reduced
        modulo each modulus (``values`` may be shorter than n_max + 1)."""
        values = list(values[: n_max + 1]) + [0] * (n_max + 1 - len(values))
        return cls(moduli, n_max, [[v % m for v in values] for m in moduli])

    def residues(self, degree: int) -> tuple[int, ...]:
        return tuple(row[degree] for row in self.coeffs)


class SeriesTable:
    """Coefficients c_0..c_N, exact or as residue vectors, plus metadata.

    ``moduli`` is None for exact integer values; otherwise ``values[n]`` is a
    tuple of residues in the order of ``moduli``.
    """

    __slots__ = ("values", "moduli", "metadata")

    def __init__(self, values: list, moduli: tuple[int, ...] | None = None,
                 metadata: dict | None = None):
        self.values = values
        self.moduli = moduli
        self.metadata = {} if metadata is None else metadata

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int):
        return self.values[n]

    @property
    def is_exact(self) -> bool:
        return self.moduli is None

    def to_exact(self) -> "SeriesTable":
        """Exact values by CRT; a ``quantity: count`` table is first checked
        with :func:`check_crt_range`."""
        if self.is_exact:
            return self
        if self.metadata.get("quantity") == "count":
            check_crt_range(self.moduli, len(self.values) - 1)
        vals = [crt_reconstruct(v, self.moduli) for v in self.values]
        meta = dict(self.metadata)
        return SeriesTable(vals, None, meta)


def write_series(table: SeriesTable, path) -> None:
    """Write the text series format: '#'-prefixed key/value headers, then
    tab-separated ``n\\tvalue`` lines (residue vectors comma-separated)."""
    meta = dict(table.metadata)
    meta["moduli"] = (
        "exact" if table.is_exact else ",".join(str(m) for m in table.moduli)
    )
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    for n, v in enumerate(table.values):
        s = str(v) if table.is_exact else ",".join(str(r) for r in v)
        lines.append(f"{n}\t{s}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path) -> SeriesTable:
    """Parse a series file; loses nothing a write/read round trip needs.

    A ``nmax`` header, when present, must equal the index of the last
    coefficient, so a truncated file is refused rather than analysed short.
    """
    meta: dict = {}
    values = []
    expected_n = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" in body:
                    k, v = body.split(":", 1)
                    meta[k.strip()] = v.strip()
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SeriesFormatError(f"{path}:{lineno}: expected 'n<TAB>value'")
            try:
                n = int(parts[0])
                vals = tuple(int(x) for x in parts[1].split(","))
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from exc
            if n != expected_n:
                raise SeriesFormatError(
                    f"{path}:{lineno}: coefficient index {n} out of order "
                    f"(expected {expected_n})"
                )
            expected_n += 1
            values.append(vals)
    if "nmax" in meta and meta["nmax"] != str(len(values) - 1):
        raise SeriesFormatError(
            f"{path}: header nmax {meta['nmax']} but {len(values)} "
            f"coefficients (truncated file?)"
        )
    moduli_str = meta.pop("moduli", "exact")
    if moduli_str == "exact":
        moduli = None
        out = [v[0] for v in values]
        if any(len(v) != 1 for v in values):
            raise SeriesFormatError(f"{path}: exact series with residue vectors")
    else:
        moduli = tuple(int(m) for m in moduli_str.split(","))
        check_coprime(moduli)
        out = values
        for lineno_guess, v in enumerate(values):
            if len(v) != len(moduli):
                raise SeriesFormatError(
                    f"{path}: residue vector length mismatch at n={lineno_guess}"
                )
    return SeriesTable(out, moduli, meta)
