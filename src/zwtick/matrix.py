"""Exact matrices over Q(w): the one sparse `Matrix` type and its text form.

`Matrix` is what every evaluation returns and what the normal forms and
positivity tests read; `format_matrix`/`parse_matrix` are its text form.
Results span at most 2^MAX_DENSE_LOG2 cells (`_check_dense`).

Basis conventions: wire 0 is the most significant bit of a basis index; a
matrix row ranges over output bitstrings, a column over input bitstrings.
"""

from __future__ import annotations

from .scalar import MAX_DIGITS, ZERO, Scalar, ScalarParseError, _too_long, format_scalar, parse_scalar


class SemanticsError(ValueError):
    pass


#: Results (`interp`, `apply_superop`, `state_operator`) span at most
#: 2^MAX_DENSE_LOG2 cells.  They are stored sparsely, but `.data` and the
#: text form write every cell: a 2^24-cell table is already 128 MB of row
#: pointers before any arithmetic, so wider boundaries are refused up front.
MAX_DENSE_LOG2 = 24


def _check_dense(rows_log2: int, cols_log2: int) -> None:
    if rows_log2 + cols_log2 > MAX_DENSE_LOG2:
        raise SemanticsError(f"dense result 2^{rows_log2} x 2^{cols_log2} exceeds 2^{MAX_DENSE_LOG2} entries")


class Matrix:
    """Exact rectangular matrix, stored as {(row, col): nonzero scalar}.

    `Matrix(rows)` reads a dense table and `.data` writes one out; both are
    the text boundary.  Everything else works on `entries`, which never
    holds a zero.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: list[list[Scalar]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self.entries = {}
        for i, row in enumerate(data):
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
            for j, v in enumerate(row):
                if not v.is_zero():
                    self.entries[i, j] = v

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "Matrix":
        """Wrap `entries` as is; the caller guarantees it holds no zero."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix.from_entries(rows, cols, {})

    @property
    def data(self) -> list[list[Scalar]]:
        """A fresh dense table of the matrix; writing into it changes nothing."""
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.entries.get(ij, ZERO)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"matmul mismatch: {self.cols} vs {other.rows}")
        by_col: dict[int, list] = {}
        for (i, k), v in self.entries.items():
            by_col.setdefault(k, []).append((i, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (k, j), w in other.entries.items():
            for i, v in by_col.get(k, ()):
                key = (i, j)
                prod = v * w
                cur = acc.get(key)
                acc[key] = prod if cur is None else cur + prod
        return Matrix.from_entries(
            self.rows, other.cols, {k: v for k, v in acc.items() if not v.is_zero()}
        )

    def kron(self, other: "Matrix") -> "Matrix":
        out: dict[tuple[int, int], Scalar] = {}
        orows, ocols = other.rows, other.cols
        for (i1, j1), v1 in self.entries.items():
            for (i2, j2), v2 in other.entries.items():
                out[(i1 * orows + i2, j1 * ocols + j2)] = v1 * v2
        return Matrix.from_entries(self.rows * orows, self.cols * ocols, out)

    def transpose(self) -> "Matrix":
        return Matrix.from_entries(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def is_hermitian(self) -> bool:
        """Exact test of M = M^dagger: each entry against its mirror."""
        if self.rows != self.cols:
            return False
        entries = self.entries
        for (i, j), u in entries.items():
            v = entries.get((j, i))
            if v is None:
                return False
            # u == conj(v): conj maps (n0, n1, n2, n3) to (n0, -n3, -n2, -n1).
            a, b = u.n, v.n
            if u.d != v.d or a[0] != b[0] or a[1] != -b[3] or a[2] != -b[2] or a[3] != -b[1]:
                return False
        return True

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = ZERO
        for (i, j), v in self.entries.items():
            if i == j:
                t = t + v
        return t

    def to_numpy(self):
        """A complex numpy array of the entries, for float output only."""
        import numpy as np

        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v.to_complex()
        return out

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _mirrored(dim: int, upper: dict) -> Matrix:
    """The Hermitian dim x dim matrix whose upper triangle is `upper`."""
    entries = dict(upper)
    for (x, y), v in upper.items():
        if x != y:
            entries[y, x] = v.conj()
    return Matrix.from_entries(dim, dim, entries)


# -- matrix text form ----------------------------------------------------


def format_matrix(m: Matrix, float_mode: bool = False) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        if float_mode:
            lines.append(" ".join(_format_complex(v.to_complex()) for v in row))
        else:
            lines.append(" ".join(format_scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def _format_complex(z: complex) -> str:
    re = f"{z.real:.12g}"
    if z.imag >= 0:
        return f"{re}+{z.imag:.12g}i"
    return f"{re}-{-z.imag:.12g}i"


def parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise SemanticsError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2 or not all(tok.isascii() and tok.isdigit() for tok in head):
        raise SemanticsError(f"bad matrix header {lines[0]!r}")
    if any(len(tok) > MAX_DIGITS for tok in head):
        raise SemanticsError(_too_long("a matrix dimension"))
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise SemanticsError(f"expected {rows} rows, found {len(lines) - 1}")
    data: list[list[Scalar]] = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise SemanticsError(f"expected {cols} entries in row {ln!r}")
        try:
            data.append([parse_scalar(t) for t in toks])
        except ScalarParseError as exc:
            raise SemanticsError(f"bad entry in row {ln!r}: {exc}") from None
    return Matrix(data) if data else Matrix.zeros(0, cols)
