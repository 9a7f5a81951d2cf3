"""Quantum-information applications: partial transpose and the PPT test,
Bloch vectors and the spin flip, the ticked sesquilinear pairing, and the
internal adjoint with its unitarity test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Compose,
    Cup,
    Diagram,
    Tensor,
    Tick,
    ZSpider,
    _ticked_bend_cap,
    block_transpose,
    compose_many,
    id_n,
    interleave,
    not_gate,
    route,
    tensor_many,
    ticked_cup,
    wires,
)
from .normalform import diagrams_equal
from .scalar import HALF, I, MINUS_ONE, ONE, Scalar, TWO, ZERO
from .matrix import Matrix, SemanticsError
from .semantics import _qubits_of, is_psd, state_operator


def partial_transpose(rho: Matrix, first_block: int) -> Matrix:
    """Transpose the first `first_block` qubits of a square operator."""
    q = _qubits_of(rho)
    if not 0 <= first_block <= q:
        raise SemanticsError(
            f"split {first_block} out of range for {q} qubits"
        )
    mask = (1 << (q - first_block)) - 1
    # Exchange the high (transposed) bits of row and column.
    entries = {
        ((y & ~mask) | (x & mask), (x & ~mask) | (y & mask)): v
        for (x, y), v in rho.entries.items()
    }
    return Matrix.from_entries(rho.rows, rho.cols, entries)


def min_pt_eigenvalue(rho: Matrix, first_block: int) -> float:
    """Smallest eigenvalue of the partial transpose, in floating point (display only)."""
    import numpy as np

    pt = partial_transpose(rho, first_block)
    eigs = np.linalg.eigvalsh(pt.to_numpy())
    return float(eigs[0])


def ppt_check(rho: Matrix, first_block: int) -> bool:
    """Necessary separability test: is the partial transpose PSD?  Exact."""
    if not rho.is_hermitian():
        raise SemanticsError("ppt_check requires an exactly Hermitian matrix")
    return is_psd(partial_transpose(rho, first_block))


@dataclass(frozen=True)
class BlochVector:
    """Real coordinates on the Bloch ball."""

    rx: Scalar
    ry: Scalar
    rz: Scalar

    def __post_init__(self) -> None:
        for c in (self.rx, self.ry, self.rz):
            if not c.is_real():
                raise SemanticsError("Bloch coordinates must be real")

    def negate(self) -> "BlochVector":
        return BlochVector(-self.rx, -self.ry, -self.rz)


def bloch(rho: Matrix) -> BlochVector:
    if rho.rows != 2 or rho.cols != 2:
        raise SemanticsError("bloch requires a 2x2 matrix")
    if not rho.is_hermitian():
        raise SemanticsError("bloch requires an exactly Hermitian matrix")
    if rho.trace() != ONE:
        raise SemanticsError("bloch requires trace exactly 1")
    r10 = rho[1, 0]
    return BlochVector(
        TWO * r10.real(),
        TWO * r10.imag(),
        rho[0, 0] - rho[1, 1],
    )


def from_bloch(v: BlochVector) -> Matrix:
    return Matrix(
        [
            [HALF * (ONE + v.rz), HALF * (v.rx - I * v.ry)],
            [HALF * (v.rx + I * v.ry), HALF * (ONE - v.rz)],
        ]
    )


def spin_flip(rho: Matrix) -> Matrix:
    """The antipode of the Bloch ball: conjugate the transpose by the Y matrix."""
    if rho.rows != 2 or rho.cols != 2:
        raise SemanticsError("spin_flip requires a 2x2 matrix")
    y = Matrix([[ZERO, -I], [I, ZERO]])
    return y.matmul(rho.transpose()).matmul(y)


# Transpose, then conjugate by [[0,-1],[1,0]]; doubling absorbs the i phase.
spin_flip_diagram: Diagram = compose_many(
    [Tick, ZSpider(MINUS_ONE, 1, 1), not_gate]
)


def sesqui_pairing(s1: Diagram, s2: Diagram, ticked: bool) -> Scalar:
    """Contract two states wire-by-wire; the ticked cups make it a scalar product."""
    if s1.n_in != 0 or s2.n_in != 0:
        raise SemanticsError("pairing arguments must be states (no inputs)")
    if s1.n_out != s2.n_out:
        raise SemanticsError(
            f"pairing arity mismatch: {s1.n_out} vs {s2.n_out} wires"
        )
    n = s1.n_out
    bend = ticked_cup if ticked else Cup
    layers = [Tensor(s1, s2)]
    if n:
        layers.append(block_transpose(2, n))  # (a_1, b_1, ..., a_n, b_n)
        layers.append(tensor_many([bend] * n))
    scalar_diagram = compose_many(layers)
    return state_operator(scalar_diagram)[0, 0]


def internal_dagger(d: Diagram) -> Diagram:
    """The adjoint expressed inside the calculus, by bending with ticked cups."""
    n, m = d.n_in, d.n_out
    layers = [Tensor(id_n(m), _ticked_bend_cap(n))]
    layers.append(Tensor(id_n(m + n), d))
    # Wires now (x_1..x_m, a_1..a_n, o_1..o_m); pair each x_j with o_j.
    x, a, o = wires("x", m), wires("a", n), wires("o", m)
    layers.append(route(x + a + o, interleave(x, o) + a))
    if m:
        layers.append(Tensor(tensor_many([ticked_cup] * m), id_n(n)))
    return compose_many(layers)


def is_unitary_semantic(d: Diagram) -> bool:
    """Does composing with the internal adjoint cancel to the identity, both ways?"""
    if d.n_in != d.n_out:
        raise SemanticsError("unitarity test requires equal input and output arity")
    adj, wire = internal_dagger(d), id_n(d.n_in)
    return diagrams_equal(Compose(adj, d), wire) and diagrams_equal(Compose(d, adj), wire)
