"""Shared exact-arithmetic helpers and random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from zwtick import (
    Cap,
    Compose,
    Cup,
    Diagram,
    Fswap,
    Id,
    Matrix,
    NFTerm,
    NormalForm,
    Scalar,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    generator_count,
    id_n,
    tensor_many,
)

SMALL_FRACTIONS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(1, 3),
    Fraction(-2, 3),
)


def random_fraction(rng: random.Random) -> Fraction:
    return rng.choice(SMALL_FRACTIONS)


def random_scalar(rng: random.Random, nonzero: bool = False) -> Scalar:
    """Random element of the scalar ring with small rational coordinates."""
    while True:
        coords = [
            random_fraction(rng) if rng.random() < 0.5 else Fraction(0)
            for _ in range(4)
        ]
        s = Scalar(*coords)
        if not nonzero or s != ZERO:
            return s


def random_real_scalar(rng: random.Random, nonzero: bool = False) -> Scalar:
    while True:
        s = Scalar(random_fraction(rng))
        if not nonzero or s != ZERO:
            return s


def random_hermitian(rng: random.Random, qubits: int, density: float = 0.5) -> Matrix:
    """Random exact Hermitian matrix on 2**qubits dimensions."""
    dim = 1 << qubits
    data = [[ZERO for _ in range(dim)] for _ in range(dim)]
    for x in range(dim):
        for y in range(x, dim):
            if rng.random() >= density:
                continue
            if x == y:
                data[x][x] = random_real_scalar(rng)
            else:
                c = random_scalar(rng)
                data[x][y] = c
                data[y][x] = c.conj()
    return Matrix(data)


def random_nf(rng: random.Random, qubits: int, density: float = 0.5) -> NormalForm:
    """Random reduced normal form on the given number of qubits."""
    dim = 1 << qubits
    terms = []
    for x in range(dim):
        for y in range(x, dim):
            if rng.random() >= density:
                continue
            c = random_real_scalar(rng, nonzero=True) if x == y else random_scalar(
                rng, nonzero=True
            )
            terms.append(NFTerm(x, y, c))
    return NormalForm(qubits, tuple(terms))


# -- independent exact matrix algebra (oracle side) ----------------------
#
# These work on dense tables: each reads `.data` once, so they stay an
# oracle independent of the library's sparse entries.


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    assert a.cols == b.rows
    ad, bd = a.data, b.data
    data = [
        [sum((ad[r][k] * bd[k][c] for k in range(a.cols)), ZERO) for c in range(b.cols)]
        for r in range(a.rows)
    ]
    return Matrix(data)


def mat_dagger(a: Matrix) -> Matrix:
    ad = a.data
    return Matrix([[ad[r][c].conj() for r in range(a.rows)] for c in range(a.cols)])


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    ad, bd = a.data, b.data
    data = [
        [
            ad[r // b.rows][c // b.cols] * bd[r % b.rows][c % b.cols]
            for c in range(a.cols * b.cols)
        ]
        for r in range(a.rows * b.rows)
    ]
    return Matrix(data)


def dense_is_hermitian(m: Matrix) -> bool:
    """M = M^dagger, checked cell by cell on the dense table."""
    if m.rows != m.cols:
        return False
    data = m.data
    return all(data[i][j] == data[j][i].conj() for i in range(m.rows) for j in range(i, m.cols))


def dense_nf(m: Matrix) -> NormalForm:
    """Normal form read off the upper triangle of the dense table, row by row."""
    data = m.data
    terms = [
        NFTerm(x, y, data[x][y])
        for x in range(m.rows)
        for y in range(x, m.cols)
        if not data[x][y].is_zero()
    ]
    return NormalForm(m.rows.bit_length() - 1, tuple(terms))


# -- random diagram terms ------------------------------------------------


def _layer_primitive(rng: random.Random, k: int, allow_tick: bool) -> Diagram:
    """A random generator consuming k wires; output arity is kept <= 2."""
    if k == 0:
        picks = [
            lambda: ZSpider(random_scalar(rng), 0, rng.randint(0, 1)),
            lambda: WSpider(0, 1),
            lambda: Cap,
        ]
    elif k == 1:
        picks = [
            lambda: Id,
            lambda: ZSpider(random_scalar(rng), 1, rng.randint(0, 2)),
            lambda: WSpider(1, rng.randint(0, 2)),
        ]
        if allow_tick:
            picks.append(lambda: Tick)
    else:
        picks = [
            lambda: Swap,
            lambda: Fswap,
            lambda: Cup,
            lambda: ZSpider(random_scalar(rng), 2, rng.randint(0, 2)),
            lambda: WSpider(2, rng.randint(0, 2)),
        ]
    return rng.choice(picks)()


def _random_layer(rng: random.Random, w_in: int, max_wires: int, allow_tick: bool) -> Diagram:
    for _ in range(20):
        parts = []
        remaining = w_in
        while remaining > 0:
            k = rng.randint(1, min(2, remaining))
            parts.append(_layer_primitive(rng, k, allow_tick))
            remaining -= k
        if not parts or (rng.random() < 0.2):
            parts.append(_layer_primitive(rng, 0, allow_tick))
        out = sum(p.n_out for p in parts)
        if out <= max_wires:
            d = parts[0]
            for p in parts[1:]:
                d = Tensor(d, p)
            return d
    return id_n(w_in)


def random_term(
    rng: random.Random,
    max_wires: int = 3,
    max_gens: int | None = None,
    allow_tick: bool = True,
    n_in: int | None = None,
) -> Diagram:
    """Random well-typed term built from stacked layers of generators."""
    for _ in range(50):
        w = rng.randint(0, max_wires) if n_in is None else n_in
        d = id_n(w)
        for _ in range(rng.randint(1, 3)):
            layer = _random_layer(rng, d.n_out, max_wires, allow_tick)
            d = Compose(layer, d)
        if max_gens is None or generator_count(d) <= max_gens:
            return d
    return id_n(0 if n_in is None else n_in)


def random_state(
    rng: random.Random,
    max_wires: int = 3,
    allow_tick: bool = True,
    n_out: int | None = None,
) -> Diagram:
    """Random term with no inputs, optionally with a fixed output arity."""
    for _ in range(200):
        d = random_term(rng, max_wires=max_wires, allow_tick=allow_tick, n_in=0)
        if n_out is None or d.n_out == n_out:
            return d
    return tensor_many([ZSpider(random_scalar(rng), 0, 1)] * (n_out or 0))


# -- quantum states ------------------------------------------------------


def random_bloch_coords(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Random rational point strictly inside the Bloch ball."""
    while True:
        coords = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(5, 9)) for _ in range(3)
        )
        if sum(c * c for c in coords) <= 1:
            return coords


def random_qubit_density(rng: random.Random) -> Matrix:
    """Random exact PSD trace-1 single-qubit operator."""
    rx, ry, rz = random_bloch_coords(rng)
    h = Fraction(1, 2)
    a = Scalar(h + rz * h)
    d = Scalar(h - rz * h)
    off = Scalar(rx * h) + Scalar(0, 0, -ry * h)
    return Matrix([[a, off], [off.conj(), d]])


def random_separable(rng: random.Random, parts: int | None = None) -> Matrix:
    """Random exact convex mixture of two-qubit product densities."""
    k = parts if parts is not None else rng.randint(2, 4)
    weights = [Fraction(rng.randint(1, 5)) for _ in range(k)]
    total = sum(weights)
    acc = [[ZERO] * 4 for _ in range(4)]
    for wgt in weights:
        p = Scalar(wgt / total)
        prod = mat_kron(random_qubit_density(rng), random_qubit_density(rng)).data
        for r in range(4):
            for c in range(4):
                acc[r][c] = acc[r][c] + p * prod[r][c]
    return Matrix(acc)
