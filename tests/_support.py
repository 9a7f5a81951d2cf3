"""Shared exact-arithmetic helpers and random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from zwtick import (
    ArityError,
    Cap,
    Compose,
    Cup,
    Diagram,
    DiagramParseError,
    Empty,
    Fswap,
    Id,
    Matrix,
    NFTerm,
    NormalForm,
    Scalar,
    ScalarParseError,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    generator_count,
    id_n,
    parse_scalar,
    tensor_many,
)
from zwtick.diagram import _SUGAR, Generator, fold
from zwtick.normalform import _kets, _node_rows, _plug, _term_layers

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


def random_matrix(rng: random.Random, qubits: int, density: float = 0.5) -> Matrix:
    """Random exact square matrix on 2**qubits dimensions, with no symmetry imposed."""
    dim = 1 << qubits
    return Matrix(
        [[random_scalar(rng) if rng.random() < density else ZERO for _ in range(dim)] for _ in range(dim)]
    )


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


def assoc_key_reference(d: Diagram):
    """The associativity key as first written: each node concatenates its
    children's flat tuples, which is quadratic in chain length."""

    def chain(tag: str, first, second) -> tuple:
        parts = []
        for k in (first, second):
            parts.extend(k[1] if isinstance(k, tuple) and k[0] == tag else (k,))
        return (tag, tuple(parts))

    return fold(
        d,
        lambda g: g,
        lambda after, before: chain("compose", before, after),
        lambda left, right: chain("tensor", left, right),
    )


def parse_scalar_reference(text: str) -> Scalar:
    """The scalar text form as first parsed: a character scanner with a
    sign state machine, one term at a time."""
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    pos = 0
    n = len(s)
    coeffs = [Fraction(0)] * 4

    def parse_uint() -> int:
        nonlocal pos
        start = pos
        while pos < n and "0" <= s[pos] <= "9":
            pos += 1
        if pos == start:
            raise ScalarParseError(f"expected digits at {start} in {text!r}")
        return int(s[start:pos])

    first = True
    while pos < n:
        sign = 1
        if s[pos] == "+":
            if first:
                raise ScalarParseError(f"unexpected '+' at start of {text!r}")
            pos += 1
        elif s[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise ScalarParseError(f"expected '+' or '-' at {pos} in {text!r}")
        first = False
        if pos >= n:
            raise ScalarParseError(f"dangling sign in {text!r}")

        coef = Fraction(1)
        have_coef = "0" <= s[pos] <= "9"
        if have_coef:
            num = parse_uint()
            den = 1
            if pos < n and s[pos] == "/":
                pos += 1
                den = parse_uint()
                if den == 0:
                    raise ScalarParseError(f"zero denominator in {text!r}")
            coef = Fraction(num, den)
        power = 0
        if pos < n and s[pos] == "w":
            pos += 1
            power = 1
            if pos < n and s[pos] == "^":
                pos += 1
                if pos < n and s[pos] in "23":
                    power = int(s[pos])
                    pos += 1
                else:
                    raise ScalarParseError(f"bad exponent at {pos} in {text!r}")
        elif not have_coef:
            raise ScalarParseError(f"expected term at {pos} in {text!r}")
        coeffs[power] += sign * coef

    return Scalar(*coeffs)


def _tokenize_reference(text: str) -> list[str]:
    out: list[str] = []
    for line in text.splitlines():
        body = line.split(";", 1)[0]
        body = body.replace("(", " ( ").replace(")", " ) ")
        out.extend(body.split())
    return out


def parse_diagram_reference(text: str) -> Diagram:
    """The diagram text form as first read: a token index shared by nested
    helpers, with a generic expected-token check for each `)`."""
    tokens = _tokenize_reference(text)
    if not tokens:
        raise DiagramParseError("empty diagram text")
    pos = 0

    def need(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            found = tokens[pos] if pos < len(tokens) else "<end>"
            raise DiagramParseError(f"expected {tok!r}, found {found!r}")
        pos += 1

    def next_token() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise DiagramParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_nat() -> int:
        tok = next_token()
        if not (tok.isascii() and tok.isdigit()):
            raise DiagramParseError(f"expected a natural number, found {tok!r}")
        return int(tok)

    def parse_leaf_form(head: str) -> Diagram:
        if head == "id":
            n = parse_nat()
            need(")")
            return id_n(n)
        if head == "z":
            raw = next_token()
            try:
                r = parse_scalar(raw)
            except ScalarParseError as exc:
                raise DiagramParseError(f"bad spider parameter: {exc}") from None
            n = parse_nat()
            m = parse_nat()
            need(")")
            return ZSpider(r, n, m)
        if head == "w":
            n = parse_nat()
            m = parse_nat()
            need(")")
            return WSpider(n, m)
        raise DiagramParseError(f"unknown form {head!r}")

    forms: list[list] = []  # open forms: [head, first argument or None]
    while True:
        tok = next_token()
        if tok == "(":
            head = next_token()
            if head == "compose" or head == "tensor":
                forms.append([head, None])
                continue
            d = parse_leaf_form(head)
        elif tok in _SUGAR:
            d = _SUGAR[tok]
        else:
            raise DiagramParseError(f"unknown diagram token {tok!r}")
        # d completes every open form that already holds its first argument.
        while forms and forms[-1][1] is not None:
            head, first = forms.pop()
            need(")")
            if head == "tensor":
                d = Tensor(first, d)
                continue
            try:
                d = Compose(first, d)
            except ArityError as exc:
                raise DiagramParseError(str(exc)) from None
        if not forms:
            break
        forms[-1][1] = d
    if pos != len(tokens):
        raise DiagramParseError(f"trailing tokens starting at {tokens[pos]!r}")
    return d


def nf_to_diagram_reference(nf: NormalForm, unreduced: bool = False) -> Diagram:
    """The rebuilt normal form as first assembled: every node built at once,
    the term nodes of each entry around the wiring layers of its position."""
    n = nf.qubits
    d = _kets(n)
    for coeff, x, y in _node_rows(nf, unreduced):
        legs, ticks, routing, merges = _term_layers(n, x, y)
        d = Compose(merges, Compose(routing, Compose(ticks, Compose(Tensor(id_n(n + 1), ZSpider(coeff, 0, legs)), d))))
    return Compose(_plug(n), d)


def flatten_reference(d: Diagram) -> list[tuple[Generator, int]]:
    """(generator, lo) pairs as the netlist evaluator first walked a term:
    every node visited, kept flattened lists ignored."""
    out = []
    width = d.n_in
    stack = [(d, 0)]
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
        if node is Id or node is Empty:
            continue
        out.append((node, width - off - node.n_in))
        width += node.n_out - node.n_in
    return out


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
