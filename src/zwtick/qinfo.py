"""Quantum-information applications: partial transpose and the PPT test,
Bloch vectors and the spin flip, the ticked sesquilinear pairing, and the
internal adjoint with its unitarity test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import (
    Compose,
    Cup,
    Diagram,
    Empty,
    Tensor,
    Tick,
    ZSpider,
    block_transpose,
    compose_many,
    id_n,
    not_gate,
    permutation_diagram,
    tensor_many,
    ticked_cap,
    ticked_cup,
)
from .normalform import canonical_of_map
from .scalar import HALF, I, MINUS_ONE, ONE, Scalar, TWO
from .semantics import Matrix, SemanticsError, is_psd, state_operator


def _qubits_of_dim(dim: int) -> int:
    q = dim.bit_length() - 1
    if dim <= 0 or 1 << q != dim:
        raise SemanticsError(f"dimension {dim} is not a power of two")
    return q


def partial_transpose(rho: Matrix, first_block: int) -> Matrix:
    """Transpose the first `first_block` qubits of a square operator."""
    if rho.rows != rho.cols:
        raise SemanticsError("partial transpose requires a square matrix")
    q = _qubits_of_dim(rho.rows)
    if not 0 <= first_block <= q:
        raise SemanticsError(
            f"split {first_block} out of range for {q} qubits"
        )
    b = q - first_block
    mask = (1 << b) - 1
    out = Matrix.zeros(rho.rows, rho.cols)
    for x in range(rho.rows):
        x1, x2 = x >> b, x & mask
        for y in range(rho.cols):
            y1, y2 = y >> b, y & mask
            out.data[(y1 << b) | x2][(x1 << b) | y2] = rho.data[x][y]
    return out


def min_pt_eigenvalue(rho: Matrix, first_block: int) -> float:
    """Smallest eigenvalue of the partial transpose, in floating point (display only)."""
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
    r10 = rho.data[1][0]
    return BlochVector(
        TWO * r10.real(),
        TWO * r10.imag(),
        rho.data[0][0] - rho.data[1][1],
    )


def from_bloch(v: BlochVector) -> Matrix:
    m = Matrix.zeros(2, 2)
    m.data[0][0] = HALF * (ONE + v.rz)
    m.data[1][1] = HALF * (ONE - v.rz)
    m.data[0][1] = HALF * (v.rx - I * v.ry)
    m.data[1][0] = HALF * (v.rx + I * v.ry)
    return m


def spin_flip(rho: Matrix) -> Matrix:
    """The antipode of the Bloch ball: conjugate the transpose by the Y matrix."""
    if rho.rows != 2 or rho.cols != 2:
        raise SemanticsError("spin_flip requires a 2x2 matrix")
    y = Matrix.zeros(2, 2)
    y.data[0][1] = -I
    y.data[1][0] = I
    return y * rho.transpose() * y


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
    return state_operator(scalar_diagram).data[0][0]


def _ticked_bend_cap(n: int) -> Diagram:
    # 0 -> 2n: block of ticked wires pairing the following plain block.
    if n == 0:
        return Empty
    return Compose(block_transpose(n, 2), tensor_many([ticked_cap] * n))


def internal_dagger(d: Diagram) -> Diagram:
    """The adjoint expressed inside the calculus, by bending with ticked cups."""
    n, m = d.n_in, d.n_out
    layers = [Tensor(id_n(m), _ticked_bend_cap(n))]
    layers.append(Tensor(id_n(m + n), d))
    # Wires now (x_1..x_m, a_1..a_n, o_1..o_m); pair each x_j with o_j.
    perm = [0] * (2 * m + n)
    for j in range(m):
        perm[j] = 2 * j
        perm[m + n + j] = 2 * j + 1
    for k in range(n):
        perm[m + k] = 2 * m + k
    layers.append(permutation_diagram(perm))
    closing = tensor_many([ticked_cup] * m) if m else None
    if closing is not None:
        layers.append(Tensor(closing, id_n(n)))
    return compose_many(layers)


def is_unitary_semantic(d: Diagram) -> bool:
    """Does composing with the internal adjoint cancel to the identity, both ways?"""
    if d.n_in != d.n_out:
        raise SemanticsError("unitarity test requires equal input and output arity")
    n = d.n_in
    wire = canonical_of_map(id_n(n))
    adj = internal_dagger(d)
    return (
        canonical_of_map(Compose(adj, d)) == wire
        and canonical_of_map(Compose(d, adj)) == wire
    )
