"""Interpretation of diagrams: pure matrices and mixed-state superoperators.

Two semantic levels live here.  A tick-free diagram n -> m denotes a plain
2^m x 2^n matrix over the cyclotomic field (`interp`).  A general diagram,
ticks allowed, denotes a Hermiticity-preserving superoperator on density
operators: each generator G acts as rho -> G rho G^dagger and the tick as a
partial transpose on its wire.  Both levels are computed by one netlist
evaluator: the term is flattened, without recursion, into generators placed
at wire offsets, and each is applied locally to a sparse operator over the
live wires (`interp`, `apply_superop`, `state_operator`, hence `choi`).

The doubling construction is kept as the reference the evaluator is tested
against: `unzip` doubles every wire into a (plain, conjugate) pair, and
`interp_sparse`, a plain fold into matrix and Kronecker products, reads
the doubled pure matrix against the interleaved vectorization, which sends
|x><y| to the basis vector indexed by the bit sequence x1 y1 x2 y2 ...

The same superoperator also has a purely diagrammatic presentation: `hp`
rewrites a diagram n -> m into a pure diagram (n+m) -> (n+m) whose matrix
encodes the superoperator with bra lines bent to the other side; `psi` /
`psi_inv` convert between the doubled form and that bent form.  All routes
agree exactly, which the test-suite checks entry by entry.

Basis conventions: wire 0 is the most significant bit of a basis index; a
matrix row ranges over output bitstrings, a column over input bitstrings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import (
    Cap,
    Compose,
    Cup,
    Diagram,
    Empty,
    Fswap,
    Generator,
    Id,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    bend_cap,
    block_transpose,
    compose_many,
    conjugate_term,
    dagger,
    fold,
    id_n,
    permutation_diagram,
    tensor_many,
)
from .scalar import MINUS_ONE, ONE, ZERO, Scalar, format_scalar, parse_scalar

class SemanticsError(ValueError):
    pass


#: Results (`interp`, `apply_superop`, `state_operator`) span at most
#: 2^MAX_DENSE_LOG2 cells.  They are stored sparsely, but `.data` and the
#: text form write every cell: a 2^24-cell table is already 128 MB of row
#: pointers before any arithmetic, so wider boundaries are refused up front.
MAX_DENSE_LOG2 = 24


def _check_dense(rows_log2: int, cols_log2: int) -> None:
    if rows_log2 + cols_log2 > MAX_DENSE_LOG2:
        raise SemanticsError(
            f"dense result 2^{rows_log2} x 2^{cols_log2} exceeds 2^{MAX_DENSE_LOG2} entries"
        )


# -- exact matrices ------------------------------------------------------


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
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

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

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v.to_complex()
        return out

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


#: The old name of the sparse matrix type.  `bench/tracing.py` patches
#: `SMat.kron` and `SMat.matmul` by name, so the alias stays until it does not.
SMat = Matrix


def _gen_matrix(g: Diagram) -> Matrix:
    if isinstance(g, ZSpider):
        rows, cols = 1 << g.m, 1 << g.n
        entries: dict[tuple[int, int], Scalar] = {}
        entries[(0, 0)] = ONE
        top = (rows - 1, cols - 1)
        entries[top] = entries.get(top, ZERO) + g.r
        return Matrix.from_entries(
            rows, cols, {k: v for k, v in entries.items() if not v.is_zero()}
        )
    if isinstance(g, WSpider):
        rows, cols = 1 << g.m, 1 << g.n
        entries = {}
        for i in range(g.n):
            entries[(0, 1 << (g.n - 1 - i))] = ONE
        for j in range(g.m):
            key = (1 << (g.m - 1 - j), 0)
            entries[key] = ONE
        return Matrix.from_entries(rows, cols, entries)
    if g is Fswap:
        return Matrix.from_entries(
            4,
            4,
            {(0, 0): ONE, (2, 1): ONE, (1, 2): ONE, (3, 3): MINUS_ONE},
        )
    if g is Id:
        return Matrix.from_entries(2, 2, {(0, 0): ONE, (1, 1): ONE})
    if g is Swap:
        return Matrix.from_entries(4, 4, {(0, 0): ONE, (2, 1): ONE, (1, 2): ONE, (3, 3): ONE})
    if g is Cup:
        return Matrix.from_entries(1, 4, {(0, 0): ONE, (0, 3): ONE})
    if g is Cap:
        return Matrix.from_entries(4, 1, {(0, 0): ONE, (3, 0): ONE})
    if g is Empty:
        return Matrix.from_entries(1, 1, {(0, 0): ONE})
    if g is Tick:
        raise SemanticsError("pure interpretation undefined for ticked diagram")
    raise TypeError(f"not a generator: {g!r}")


def interp_sparse(d: Diagram) -> Matrix:
    """Reference pure semantics: matrix and Kronecker products of the generators.

    A plain fold over the term, kept as the oracle the netlist evaluator is
    tested against; the library itself evaluates through `interp`.
    """
    # Look the products up at call time, so patching `SMat` reaches them.
    return fold(d, _gen_matrix, lambda a, b: a.matmul(b), lambda a, b: a.kron(b))


# -- the netlist evaluator -----------------------------------------------
#
# A term is flattened into steps in application order, and each step acts on
# a sparse operator {(x, y): nonzero scalar} over the live wires, touching
# only the bits of its own wires.  Wire k of w live wires is bit w-1-k of a
# basis index, so a step is placed by `lo`, the number of live wires below
# its inputs.  Doubled, x is the ket index and y the bra index: a generator
# G acts as rho -> G rho G^dagger and the tick exchanges its bit between x
# and y.  Pure, y is the column index of the input and only x is acted on.

def _netlist(d: Diagram, doubled: bool) -> list[tuple]:
    """The steps of d in application order, each (apply function, *args).

    Plain wires and units are dropped, and each run of consecutive swaps is
    fused into one bit permutation.  A generator's column lists and, doubled,
    its lazily filled table of (ket, bra) branches are shared by the steps
    of that generator at one placement.
    """
    steps: list[tuple] = []
    tables: dict[tuple[Generator, int], tuple[dict, dict]] = {}
    routing: dict[int, int] = {}  # pending swap run: output bit <- input bit
    width = d.n_in
    stack: list[tuple[Diagram, int]] = [(d, 0)]
    while stack:
        node, off = stack.pop()
        if isinstance(node, Compose):
            stack.append((node.after, off))
            stack.append((node.before, off))
            continue
        if isinstance(node, Tensor):
            stack.append((node.right, off + node.left.n_out))
            stack.append((node.left, off))
            continue
        if not isinstance(node, Generator):
            raise TypeError(f"not a diagram: {node!r}")
        if node is Id or node is Empty:
            continue
        lo = width - off - node.n_in
        if node is Swap:
            routing[lo], routing[lo + 1] = routing.get(lo + 1, lo + 1), routing.get(lo, lo)
            continue
        if routing:
            steps.extend(_perm_step(routing))
            routing = {}
        if node is Tick:
            if not doubled:
                raise SemanticsError("pure interpretation undefined for ticked diagram")
            steps.append((_apply_tick, lo))
            continue
        table = tables.get((node, lo))
        if table is None:
            table = tables[node, lo] = (_columns(node, lo), {})
        steps.append((_apply_gen, lo, node.n_in, node.n_out, *table))
        width += node.n_out - node.n_in
    if routing:
        steps.extend(_perm_step(routing))
    return steps


def _perm_step(routing: dict[int, int]) -> list[tuple]:
    moves = [(src, dst) for dst, src in routing.items() if src != dst]
    moved = 0
    for _, dst in moves:
        moved |= 1 << dst
    return [(_apply_perm, moved, moves)] if moves else []


def _columns(g: Generator, lo: int) -> dict[int, list[tuple[int, Scalar]]]:
    """Input bits c of g -> [(output bits << lo, entry)] over nonzero entries."""
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for (row, col), v in _gen_matrix(g).entries.items():
        cols.setdefault(col, []).append((row << lo, v))
    return cols


def _pair_branches(cols: dict, cx: int, cy: int) -> list[tuple[int, int, Scalar]]:
    """Doubled branches of ket bits cx and bra bits cy: G on x, conj(G) on y."""
    out = []
    for rx, a in cols.get(cx, ()):
        for ry, b in cols.get(cy, ()):
            c = a * b.conj()
            out.append((rx, ry, ONE if c == ONE else c))
    return out


def _apply_gen(ops: dict, doubled: bool, lo: int, n: int, m: int, cols: dict, pairs: dict) -> dict:
    nmask = (1 << n) - 1
    lomask = (1 << lo) - 1
    hi, new_hi = lo + n, lo + m
    out: dict[tuple[int, int], Scalar] = {}
    clashes = []
    if doubled:
        for (x, y), v in ops.items():
            cx = (x >> lo) & nmask
            cy = (y >> lo) & nmask
            branches = pairs.get((cx << n) | cy)
            if branches is None:
                branches = pairs[(cx << n) | cy] = _pair_branches(cols, cx, cy)
            if not branches:
                continue
            bx = ((x >> hi) << new_hi) | (x & lomask)
            by = ((y >> hi) << new_hi) | (y & lomask)
            for rx, ry, c in branches:
                key = (bx | rx, by | ry)
                nv = v if c is ONE else v * c
                if key in out:
                    nv = out[key] + nv
                    clashes.append(key)
                out[key] = nv
    else:
        for (x, y), v in ops.items():
            branches = cols.get((x >> lo) & nmask)
            if branches is None:
                continue
            bx = ((x >> hi) << new_hi) | (x & lomask)
            for rx, c in branches:
                key = (bx | rx, y)
                nv = v if c is ONE else v * c
                if key in out:
                    nv = out[key] + nv
                    clashes.append(key)
                out[key] = nv
    for key in clashes:
        if key in out and out[key].is_zero():
            del out[key]
    return out


def _apply_perm(ops: dict, doubled: bool, moved: int, moves: list[tuple[int, int]]) -> dict:
    """Route the `moved` bits of every index; each bit pattern is routed once."""
    routed: dict[int, int] = {}

    def route(i: int) -> int:
        f = i & moved
        r = routed.get(f)
        if r is None:
            r = 0
            for src, dst in moves:
                if (f >> src) & 1:
                    r |= 1 << dst
            routed[f] = r
        return (i ^ f) | r

    if doubled:
        return {(route(x), route(y)): v for (x, y), v in ops.items()}
    return {(route(x), y): v for (x, y), v in ops.items()}


def _apply_tick(ops: dict, doubled: bool, lo: int) -> dict:
    bit = 1 << lo
    out = {}
    for (x, y), v in ops.items():
        if (x ^ y) & bit:
            x ^= bit
            y ^= bit
        out[(x, y)] = v
    return out


def _evaluate(d: Diagram, ops: dict, doubled: bool) -> dict:
    """Run the steps of d over the sparse operator `ops` on its input wires."""
    for apply, *args in _netlist(d, doubled):
        ops = apply(ops, doubled, *args)
    return ops


def interp(d: Diagram) -> Matrix:
    """Pure matrix of a tick-free diagram: 2^m rows by 2^n columns."""
    _check_dense(d.n_out, d.n_in)
    cols = 1 << d.n_in
    out = _evaluate(d, {(c, c): ONE for c in range(cols)}, doubled=False)
    return Matrix.from_entries(1 << d.n_out, cols, out)


# -- wire doubling -------------------------------------------------------


def unzip(d: Diagram) -> Diagram:
    """Double every wire into a (plain, conjugate) pair; ticks become swaps.

    The result is tick-free with arity 2n -> 2m; pair k occupies wires
    2k and 2k+1.  On tick-free diagrams this implements the doubling
    construction, so the doubled matrix is interp(d) (x) conj(interp(d))
    up to the pair interleaving.
    """
    return fold(d, _unzip_gen, Compose, Tensor)


def _unzip_gen(g: Generator) -> Diagram:
    if g is Tick:
        return Swap
    if g is Id:
        return Tensor(Id, Id)
    if g is Empty:
        return Empty
    inner = Tensor(g, conjugate_term(g))
    return Compose(block_transpose(2, g.n_out), Compose(inner, block_transpose(g.n_in, 2)))


def _qubits_of(rho: Matrix) -> int:
    if rho.rows != rho.cols:
        raise SemanticsError(f"state matrix must be square, got {rho.rows}x{rho.cols}")
    n = rho.rows.bit_length() - 1
    if rho.rows == 0 or 1 << n != rho.rows:
        raise SemanticsError(f"state dimension {rho.rows} is not a power of two")
    return n


def apply_superop(d: Diagram, rho: Matrix) -> Matrix:
    """Run the superoperator of d on a density-operator-shaped input."""
    n = _qubits_of(rho)
    if n != d.n_in:
        raise SemanticsError(
            f"state has {n} qubits but diagram consumes {d.n_in}"
        )
    _check_dense(d.n_out, d.n_out)
    dim = 1 << d.n_out
    return Matrix.from_entries(dim, dim, _evaluate(d, dict(rho.entries), doubled=True))


def state_operator(d: Diagram) -> Matrix:
    """The Hermitian operator denoted by a 0 -> m diagram."""
    if d.n_in != 0:
        raise SemanticsError(f"state_operator needs a state, got {d.n_in} inputs")
    _check_dense(d.n_out, d.n_out)
    dim = 1 << d.n_out
    return Matrix.from_entries(dim, dim, _evaluate(d, {(0, 0): ONE}, doubled=True))


# -- Choi matrices -------------------------------------------------------


def bend_inputs(d: Diagram) -> Diagram:
    """Turn d: n -> m into the state (id_n (x) d) applied to n Bell pairs.

    Output wires are (reference copy of the inputs, then d's outputs); the
    state operator of the result is the Choi matrix of d.
    """
    n = d.n_in
    return Compose(Tensor(id_n(n), d), bend_cap(n))


def choi(d: Diagram) -> Matrix:
    return state_operator(bend_inputs(d))


def proper_choi(d: Diagram) -> Matrix:
    """Choi matrix with the reference side transposed (ticked Bell pairs)."""
    n = d.n_in
    ticked_ref = Compose(
        Tensor(tensor_many([Tick] * n), id_n(n)) if n else Empty,
        bend_cap(n),
    )
    return state_operator(Compose(Tensor(id_n(n), d), ticked_ref))


def is_hermiticity_preserving(d: Diagram) -> bool:
    """Exact Hermiticity of the Choi matrix."""
    return choi(d).is_hermitian()


# -- positivity ----------------------------------------------------------


def is_psd(m: Matrix) -> bool:
    """Exact positive semidefiniteness of a matrix over Q(w), at any dimension.

    A matrix that is not exactly Hermitian is not PSD.  Otherwise run a
    symmetric elimination with diagonal pivoting: any negative diagonal entry
    refutes positivity; a positive one is eliminated, replacing the rest by
    its Schur complement, which is PSD exactly when the matrix was; when no
    positive diagonal entry is left, the rest is PSD exactly when it is zero.
    Signs in Q(sqrt 2) are decided exactly by `Scalar.sign_real`.
    """
    if not m.is_hermitian():
        return False
    a = m.data
    live = list(range(m.rows))
    while live:
        pivot = None
        for i in live:
            sign = a[i][i].sign_real()
            if sign < 0:
                return False
            if sign > 0 and pivot is None:
                pivot = i
        if pivot is None:
            return all(a[i][j].is_zero() for i in live for j in live)
        live.remove(pivot)
        inv = a[pivot][pivot].inverse()
        rows = [i for i in live if not a[i][pivot].is_zero()]
        # The complement stays Hermitian: update the upper triangle, mirror it.
        conj = [a[i][pivot].conj() for i in rows]
        for k, i in enumerate(rows):
            row = a[i]
            f = row[pivot] * inv
            row[i] = row[i] - f * conj[k]
            for j, c in zip(rows[k + 1 :], conj[k + 1 :]):
                v = row[j] - f * c
                row[j] = v
                a[j][i] = v.conj()
    return True


def is_completely_positive(d: Diagram) -> bool:
    """Exact CP test: positivity of the Choi matrix."""
    return is_psd(choi(d))


# -- the bent (Hermitian-preserving) presentation ------------------------


@dataclass(frozen=True)
class LinZW:
    """A superoperator n -> m presented as a pure diagram (n+m) -> (n+m).

    The pure diagram consumes (ket inputs, bra outputs) and produces
    (bra inputs, ket outputs), each side blocked with kets first.
    """

    pure: Diagram
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.pure.n_in != self.n + self.m or self.pure.n_out != self.n + self.m:
            raise SemanticsError(
                f"bent presentation must be ({self.n + self.m})->({self.n + self.m}), "
                f"got {self.pure.n_in}->{self.pure.n_out}"
            )


def iota(l: LinZW) -> Diagram:
    """Forget the bookkeeping: the underlying pure diagram."""
    return l.pure


def _block_swap(n: int, m: int) -> Diagram:
    """Route (x[n], y[m]) to (y[m], x[n])."""
    perm = [m + i for i in range(n)] + list(range(m))
    return permutation_diagram(perm)


def hp(d: Diagram) -> LinZW:
    """Bent presentation of the superoperator of d, built by a fold.

    Tick-free generators double into (dagger beside original) across a block
    swap; the tick becomes a cup-then-cap turnaround; composition threads the
    bra line of the later factor back through the earlier one with cap/cup
    feedback; tensoring is a permutation conjugate of the side-by-side term.
    """
    return fold(d, _hp_gen, _int_compose, _int_tensor)


def _hp_gen(g: Generator) -> LinZW:
    if g is Tick:
        return LinZW(Compose(Cap, Cup), 1, 1)
    n, m = g.n_in, g.n_out
    return LinZW(Compose(Tensor(dagger(g), g), _block_swap(n, m)), n, m)


def _int_compose(a: LinZW, b: LinZW) -> LinZW:
    """Sequential composition in the bent presentation (a after b)."""
    if b.m != a.n:
        raise SemanticsError(f"superop compose mismatch: {b.m} vs {a.n}")
    n, mid, p = b.n, b.m, a.m
    total = n + p

    layers: list[Diagram] = []
    # Wires: (k[n], bo[p]) ++ interleaved cap pairs (u_j, v_j) for the mid cut.
    layers.append(tensor_many([id_n(total), tensor_many([Cap] * mid)]))
    # Reorder to (k[n], u[mid], bo[p], v[mid]).
    perm = [0] * (total + 2 * mid)
    for i in range(n):
        perm[i] = i
    for i in range(p):
        perm[n + i] = n + mid + i
    for j in range(mid):
        perm[total + 2 * j] = n + j
        perm[total + 2 * j + 1] = n + mid + p + j
    layers.append(permutation_diagram(perm))
    # b consumes (k, u); spectators (bo, v).
    layers.append(tensor_many([b.pure, id_n(p + mid)]))
    # Wires are now (bi[n], w[mid], bo[p], v[mid]); a consumes (w, bo).
    layers.append(tensor_many([id_n(n), a.pure, id_n(mid)]))
    # Wires: (bi[n], z[mid], ko[p], v[mid]); cup each z_j with v_j.
    perm2 = [0] * (total + 2 * mid)
    for i in range(n):
        perm2[i] = i
    for j in range(mid):
        perm2[n + j] = total + 2 * j
    for i in range(p):
        perm2[n + mid + i] = n + i
    for j in range(mid):
        perm2[n + mid + p + j] = total + 2 * j + 1
    layers.append(permutation_diagram(perm2))
    layers.append(tensor_many([id_n(total), tensor_many([Cup] * mid)]))
    return LinZW(compose_many(layers), n, p)


def _int_tensor(a: LinZW, b: LinZW) -> LinZW:
    """Side-by-side composition in the bent presentation."""
    n, m, p, q = a.n, a.m, b.n, b.m
    # Inputs (kA[n], kB[p], boA[m], boB[q]) -> (kA, boA, kB, boB).
    perm_in = [0] * (n + p + m + q)
    for i in range(n):
        perm_in[i] = i
    for j in range(p):
        perm_in[n + j] = n + m + j
    for i in range(m):
        perm_in[n + p + i] = n + i
    for j in range(q):
        perm_in[n + p + m + j] = n + m + p + j
    # Outputs (biA[n], koA[m], biB[p], koB[q]) -> (biA, biB, koA, koB).
    perm_out = [0] * (n + p + m + q)
    for i in range(n):
        perm_out[i] = i
    for i in range(m):
        perm_out[n + i] = n + p + i
    for j in range(p):
        perm_out[n + m + j] = n + j
    for j in range(q):
        perm_out[n + m + p + j] = n + p + m + j
    pure = compose_many(
        [
            permutation_diagram(perm_in),
            Tensor(a.pure, b.pure),
            permutation_diagram(perm_out),
        ]
    )
    return LinZW(pure, n + p, m + q)


def psi(f: Diagram, n: int, m: int) -> LinZW:
    """Bend a doubled diagram 2n -> 2m into the bent presentation."""
    if f.n_in != 2 * n or f.n_out != 2 * m:
        raise SemanticsError(
            f"doubled diagram must be ({2 * n})->({2 * m}), got {f.n_in}->{f.n_out}"
        )
    layers: list[Diagram] = []
    # Wires (k[n], bo[m]) ++ cap pairs (alpha_i, beta_i).
    layers.append(tensor_many([id_n(n + m), tensor_many([Cap] * n)]))
    # Reorder to (k1, a1, ..., kn, an, bo[m], beta[n]).
    perm = [0] * (n + m + 2 * n)
    for i in range(n):
        perm[i] = 2 * i
    for j in range(m):
        perm[n + j] = 2 * n + j
    for i in range(n):
        perm[n + m + 2 * i] = 2 * i + 1
        perm[n + m + 2 * i + 1] = 2 * n + m + i
    layers.append(permutation_diagram(perm))
    layers.append(tensor_many([f, id_n(m + n)]))
    # Wires: interleaved (ko_j, co_j) then bo[m], beta[n].
    perm2 = [0] * (2 * m + m + n)
    for j in range(m):
        perm2[2 * j] = n + j
        perm2[2 * j + 1] = n + m + 2 * j
    for j in range(m):
        perm2[2 * m + j] = n + m + 2 * j + 1
    for i in range(n):
        perm2[3 * m + i] = i
    layers.append(permutation_diagram(perm2))
    layers.append(tensor_many([id_n(n + m), tensor_many([Cup] * m)]))
    return LinZW(compose_many(layers), n, m)


def psi_inv(l: LinZW) -> Diagram:
    """Unbend the bent presentation back into a doubled diagram 2n -> 2m."""
    n, m = l.n, l.m
    layers: list[Diagram] = []
    layers.append(block_transpose(n, 2))
    layers.append(tensor_many([id_n(2 * n), tensor_many([Cap] * m)]))
    # Wires: k[n], b[n], interleaved (bo_j, co_j); route to (k, bo, b, co).
    perm = [0] * (2 * n + 2 * m)
    for i in range(n):
        perm[i] = i
        perm[n + i] = n + m + i
    for j in range(m):
        perm[2 * n + 2 * j] = n + j
        perm[2 * n + 2 * j + 1] = 2 * n + m + j
    layers.append(permutation_diagram(perm))
    layers.append(tensor_many([l.pure, id_n(n + m)]))
    # Wires: bi[n], ko[m], b[n], co[m]; cup bi_i with b_i, emit (ko, co).
    perm2 = [0] * (2 * n + 2 * m)
    for i in range(n):
        perm2[i] = 2 * m + 2 * i
    for j in range(m):
        perm2[n + j] = j
    for i in range(n):
        perm2[n + m + i] = 2 * m + 2 * i + 1
    for j in range(m):
        perm2[n + m + n + j] = m + j
    layers.append(permutation_diagram(perm2))
    layers.append(tensor_many([id_n(2 * m), tensor_many([Cup] * n)]))
    layers.append(block_transpose(2, m))
    return compose_many(layers)


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
    if len(head) != 2 or not all(tok.isdigit() for tok in head):
        raise SemanticsError(f"bad matrix header {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise SemanticsError(f"expected {rows} rows, found {len(lines) - 1}")
    data: list[list[Scalar]] = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise SemanticsError(f"expected {cols} entries in row {ln!r}")
        data.append([parse_scalar(t) for t in toks])
    return Matrix(data) if data else Matrix.zeros(0, cols)
