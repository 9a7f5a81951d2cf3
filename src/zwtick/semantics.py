"""Interpretation of diagrams: pure matrices and mixed-state superoperators.

Two semantic levels live here.  A tick-free diagram n -> m denotes a plain
2^m x 2^n matrix over the cyclotomic field (`interp`).  A general diagram,
ticks allowed, denotes a Hermiticity-preserving superoperator on density
operators: each generator G acts as rho -> G rho G^dagger and the tick as a
partial transpose on its wire.  Both levels are computed by one netlist
evaluator (`program`): the term is flattened, without recursion, into
generators placed at wire offsets, compiled into steps, and each step is
applied locally to a sparse operator over the live wires (`interp`,
`apply_superop`, `state_operator`, hence `choi`).  Results are `Matrix`
values (`matrix`).

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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .diagram import (
    Cap,
    Compose,
    Cup,
    Diagram,
    Empty,
    Generator,
    Id,
    Swap,
    Tensor,
    Tick,
    _ticked_bend_cap,
    bend_cap,
    block_transpose,
    compose_many,
    conjugate_term,
    dagger,
    flatten,
    fold,
    id_n,
    interleave,
    route,
    tensor_many,
    wires,
)
from .matrix import Matrix, SemanticsError, _check_dense, _mirrored
from .program import _gen_matrix, program_of, run, sweep
from .scalar import HALF, I, ONE, ZERO, Scalar

#: The old name of the sparse matrix type.  `bench/tracing.py` patches
#: `SMat.kron` and `SMat.matmul` by name, so the alias stays until it does not.
SMat = Matrix


def interp_sparse(d: Diagram) -> Matrix:
    """Reference pure semantics: matrix and Kronecker products of the generators.

    A plain fold over the term, kept as the oracle the netlist evaluator is
    tested against; the library itself evaluates through `interp`.
    """
    # Look the products up at call time, so patching `SMat` reaches them.
    return fold(d, _gen_matrix, lambda a, b: a.matmul(b), lambda a, b: a.kron(b))


def interp(d: Diagram) -> Matrix:
    """Pure matrix of a tick-free diagram: 2^m rows by 2^n columns."""
    return _interp_flat(d, None)


def _interp_flat(d: Diagram, flat: "list | None") -> Matrix:
    """`interp` of d, swept from `flat`, its `flatten` list, when given."""
    _check_dense(d.n_out, d.n_in)
    cols = 1 << d.n_in
    out = sweep(flatten(d) if flat is None else flat, {(c, c): ONE for c in range(cols)})
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


#: 1/2i, which takes rho - rho^dagger to its Hermitian part K.
_HALF_OVER_I = -(HALF * I)


def apply_superop(d: Diagram, rho: Matrix) -> Matrix:
    """Run the superoperator of d on a density-operator-shaped input.

    rho is split as rho = H + iK, with H = (rho + rho^dagger)/2 and
    K = (rho - rho^dagger)/2i both Hermitian, and the superoperator's
    linearity gives S(H) + i S(K).  Each runs on its upper triangle; a
    Hermitian rho has K = 0 and takes one run.
    """
    n = _qubits_of(rho)
    if n != d.n_in:
        raise SemanticsError(f"state has {n} qubits but diagram consumes {d.n_in}")
    _check_dense(d.n_out, d.n_out)
    dim = 1 << d.n_out
    entries = rho.entries
    h, k = {}, {}
    for x, y in {(x, y) if x <= y else (y, x) for x, y in entries}:
        a, b = entries.get((x, y), ZERO), entries.get((y, x), ZERO).conj()
        for part, v in ((h, (a + b) * HALF), (k, (a - b) * _HALF_OVER_I)):
            if not v.is_zero():
                part[x, y] = v
    program = program_of(d)
    out = _mirrored(dim, run(program, h))
    if k:
        entries = out.entries
        for key, v in _mirrored(dim, run(program, k)).entries.items():
            v = entries.get(key, ZERO) + I * v
            if v.is_zero():
                entries.pop(key, None)
            else:
                entries[key] = v
    return out


def state_operator(d: Diagram) -> Matrix:
    """The Hermitian operator denoted by a 0 -> m diagram.

    A rebuilt normal form runs the program it keeps (`program_of`).
    """
    if d.n_in != 0:
        raise SemanticsError(f"state_operator needs a state, got {d.n_in} inputs")
    _check_dense(d.n_out, d.n_out)
    return _mirrored(1 << d.n_out, run(program_of(d), {(0, 0): ONE}))


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
    return state_operator(Compose(Tensor(id_n(n), d), _ticked_bend_cap(n)))


def is_hermiticity_preserving(d: Diagram) -> bool:
    """Exact Hermiticity of the Choi matrix."""
    return choi(d).is_hermitian()


# -- positivity ----------------------------------------------------------


def is_psd(m: Matrix) -> bool:
    """Exact positive semidefiniteness of a matrix over Q(w), at any dimension.

    A matrix that is not exactly Hermitian is not PSD.  Otherwise run a
    symmetric elimination over the sparse rows of the upper triangle, built
    from `m.entries` and holding no zero.  The nonzero row of least index
    pivots: a negative diagonal entry refutes positivity, and so does a zero
    one, since the row is not all zero; a positive one is eliminated,
    replacing the rest by its Schur complement, which is PSD exactly when
    the matrix was.  When no nonzero row is left, the matrix is PSD.  Signs
    in Q(sqrt 2) are decided exactly by `Scalar.sign_real`.
    """
    if not m.is_hermitian():
        return False
    rows: dict[int, dict[int, Scalar]] = {}  # i -> {j: a[i][j]} for j >= i
    for (i, j), v in m.entries.items():
        if i <= j:
            rows.setdefault(i, {})[j] = v
    # Rows are only ever added after the pivot, so pivots run in index order.
    for pivot in range(m.rows):
        upper = rows.pop(pivot, None)
        if not upper:
            continue
        d = upper.pop(pivot, None)
        if d is None or d.sign_real() < 0:
            return False
        inv = d.inverse()
        # a[pivot][j] for the rows j after the pivot, in index order.
        col = sorted(upper.items(), key=itemgetter(0))
        # The complement stays Hermitian: update its upper triangle only.
        for k, (i, c) in enumerate(col):
            row = rows.setdefault(i, {})
            f = c.conj() * inv
            for j, cj in col[k:]:
                old = row.get(j)
                v = -(f * cj) if old is None else old - f * cj
                if v.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = v
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
    k, bo = wires("k", g.n_in), wires("bo", g.n_out)
    return LinZW(Compose(Tensor(dagger(g), g), route(k + bo, bo + k)), g.n_in, g.n_out)


def _int_compose(a: LinZW, b: LinZW) -> LinZW:
    """Sequential composition in the bent presentation (a after b)."""
    n, mid, p = b.n, b.m, a.m
    total = n + p
    k, bo, u, v = wires("k", n), wires("bo", p), wires("u", mid), wires("v", mid)
    bi, z, ko = wires("bi", n), wires("z", mid), wires("ko", p)
    layers: list[Diagram] = [
        # Cap pairs (u_j, v_j) for the mid cut beside (k, bo).
        tensor_many([id_n(total), tensor_many([Cap] * mid)]),
        route(k + bo + interleave(u, v), k + u + bo + v),
        # b consumes (k, u); spectators (bo, v).
        tensor_many([b.pure, id_n(p + mid)]),
        # Wires are now (bi, w, bo, v); a consumes (w, bo).
        tensor_many([id_n(n), a.pure, id_n(mid)]),
        # Wires are now (bi, z, ko, v); cup each z_j with v_j.
        route(bi + z + ko + v, bi + ko + interleave(z, v)),
        tensor_many([id_n(total), tensor_many([Cup] * mid)]),
    ]
    return LinZW(compose_many(layers), n, p)


def _int_tensor(a: LinZW, b: LinZW) -> LinZW:
    """Side-by-side composition in the bent presentation."""
    an, am, bn, bm = wires("an", a.n), wires("am", a.m), wires("bn", b.n), wires("bm", b.m)
    pure = compose_many(
        [
            # Inputs (ket in A, ket in B, bra out A, bra out B) to A's then B's.
            route(an + bn + am + bm, an + am + bn + bm),
            Tensor(a.pure, b.pure),
            # Outputs (bra in A, ket out A, bra in B, ket out B) back to blocks.
            route(an + am + bn + bm, an + bn + am + bm),
        ]
    )
    return LinZW(pure, a.n + b.n, a.m + b.m)


def psi(f: Diagram, n: int, m: int) -> LinZW:
    """Bend a doubled diagram 2n -> 2m into the bent presentation."""
    if f.n_in != 2 * n or f.n_out != 2 * m:
        raise SemanticsError(
            f"doubled diagram must be ({2 * n})->({2 * m}), got {f.n_in}->{f.n_out}"
        )
    k, bo, al, be = wires("k", n), wires("bo", m), wires("al", n), wires("be", n)
    ko, co = wires("ko", m), wires("co", m)
    layers: list[Diagram] = [
        # Cap pairs (al_i, be_i) beside (k, bo); f consumes each k_i with al_i.
        tensor_many([id_n(n + m), tensor_many([Cap] * n)]),
        route(k + bo + interleave(al, be), interleave(k, al) + bo + be),
        tensor_many([f, id_n(m + n)]),
        # f emits interleaved (ko_j, co_j); cup each co_j with bo_j.
        route(interleave(ko, co) + bo + be, be + ko + interleave(co, bo)),
        tensor_many([id_n(n + m), tensor_many([Cup] * m)]),
    ]
    return LinZW(compose_many(layers), n, m)


def psi_inv(l: LinZW) -> Diagram:
    """Unbend the bent presentation back into a doubled diagram 2n -> 2m."""
    n, m = l.n, l.m
    k, b, bo, co = wires("k", n), wires("b", n), wires("bo", m), wires("co", m)
    bi, ko = wires("bi", n), wires("ko", m)
    layers: list[Diagram] = [
        block_transpose(n, 2),
        # Cap pairs (bo_j, co_j) beside (k, b); the pure term consumes (k, bo).
        tensor_many([id_n(2 * n), tensor_many([Cap] * m)]),
        route(k + b + interleave(bo, co), k + bo + b + co),
        tensor_many([l.pure, id_n(n + m)]),
        # Cup each bi_i with b_i, emit (ko, co).
        route(bi + ko + b + co, ko + co + interleave(bi, b)),
        tensor_many([id_n(2 * m), tensor_many([Cup] * n)]),
        block_transpose(2, m),
    ]
    return compose_many(layers)


