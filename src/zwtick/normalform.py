"""Normal forms for the Hermitian operators denoted by state diagrams.

A Hermitian operator H on n qubits is presented as a list of entry terms
(x, y, c) with x <= y in the bitstring order: a diagonal term (x, x, c)
contributes c|x><x| (c real), an off-diagonal term (x, y, c) contributes
c|x><y| plus its conjugate transpose.  The list, sorted by (x, y), is a
complete invariant, so two diagrams denote the same channel exactly when
the normal forms of their input-bent states coincide.

`nf_to_diagram` rebuilds a diagram from the term list.  Each term becomes
one parameterized Z node (two in the unreduced variant) whose legs feed,
through ticks on the bra side, into per-output gathers; a final plug keeps
exactly the branches where a single node fires on a single side, which is
what produces c|x><y| + conj(c)|y><x| and nothing else.  The gathers are
assembled as chains of binary merges so that evaluating the diagram stays
polynomial in the number of terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Compose,
    Cup,
    Diagram,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    id_n,
    permutation_diagram,
    tensor_many,
)
from .scalar import HALF, ONE, Scalar, ScalarParseError, ZERO, format_scalar, parse_scalar
from .semantics import Matrix, SemanticsError, bend_inputs, state_operator


class NormalFormError(ValueError):
    pass


@dataclass(frozen=True)
class NFTerm:
    """One Hermitian entry pair: coeff|x><y| + conj(coeff)|y><x| (once if x == y)."""

    x: int
    y: int
    coeff: Scalar

    def validate(self, n: int) -> None:
        lim = 1 << n
        if not (0 <= self.x < lim and 0 <= self.y < lim):
            raise NormalFormError(f"entry ({self.x},{self.y}) out of range for {n} qubits")
        if self.x > self.y:
            raise NormalFormError(f"entry ({self.x},{self.y}) not in upper order")
        if self.coeff.is_zero():
            raise NormalFormError("zero coefficient term")
        if self.x == self.y and not self.coeff.is_real():
            raise NormalFormError(
                f"diagonal entry {self.x} has non-real coefficient {self.coeff}"
            )


@dataclass(frozen=True)
class NormalForm:
    qubits: int
    terms: tuple[NFTerm, ...]

    def __post_init__(self) -> None:
        if self.qubits < 0:
            raise NormalFormError(f"negative qubit count {self.qubits}")
        keys = [(t.x, t.y) for t in self.terms]
        if keys != sorted(keys):
            raise NormalFormError("terms not sorted by (x, y)")
        if len(set(keys)) != len(keys):
            raise NormalFormError("duplicate entry positions")
        for t in self.terms:
            t.validate(self.qubits)


def nf_from_matrix(m: Matrix) -> NormalForm:
    """Read off the normal form of an exactly Hermitian 2^n x 2^n matrix."""
    if m.rows != m.cols:
        raise NormalFormError(f"matrix is {m.rows}x{m.cols}, not square")
    n = m.rows.bit_length() - 1
    if m.rows == 0 or 1 << n != m.rows:
        raise NormalFormError(f"dimension {m.rows} is not a power of two")
    if not m.is_hermitian():
        raise NormalFormError("matrix is not Hermitian")
    terms = (NFTerm(x, y, v) for (x, y), v in sorted(m.entries.items()) if x <= y)
    return NormalForm(n, tuple(terms))


def nf_to_matrix(nf: NormalForm) -> Matrix:
    dim = 1 << nf.qubits
    entries = {}
    for t in nf.terms:
        entries[t.x, t.y] = t.coeff
        if t.x != t.y:
            entries[t.y, t.x] = t.coeff.conj()
    return Matrix.from_entries(dim, dim, entries)


# -- diagram reconstruction ----------------------------------------------

#: 2 -> 1 binary merge: adds two excitation counts, annihilating overflow.
_MERGE = Compose(WSpider(1, 1), WSpider(2, 1))

#: 1 -> 0 plug keeping branches where exactly one side of the doubled top
#: wire fires: a Z splitter feeding a ticked leg and a flipped leg into a cup.
_PLUG = Compose(
    Cup,
    Compose(Tensor(Tick, WSpider(1, 1)), ZSpider(ONE, 1, 2)),
)


def _merge_chain(group: int) -> Diagram:
    """(1 + group) -> 1 fold of binary merges onto an accumulator wire."""
    d = id_n(1)
    for _ in range(group):
        d = Compose(_MERGE, Tensor(d, id_n(1)))
    return d


def _node_rows(nf: NormalForm, unreduced: bool) -> list[tuple[Scalar, int, int]]:
    rows = []
    for t in nf.terms:
        if unreduced:
            if t.x == t.y:
                quarter = t.coeff * HALF * HALF
                rows.append((quarter, t.x, t.x))
                rows.append((quarter, t.x, t.x))
            else:
                rows.append((t.coeff * HALF, t.x, t.y))
                rows.append((t.coeff.conj() * HALF, t.y, t.x))
        elif t.x == t.y:
            rows.append((t.coeff * HALF, t.x, t.y))
        else:
            rows.append((t.coeff, t.x, t.y))
    return rows


def nf_to_diagram(nf: NormalForm, unreduced: bool = False) -> Diagram:
    """Rebuild a 0 -> n state diagram denoting exactly the encoded operator.

    The reduced variant spends one Z node per term; the unreduced variant
    spells out the conjugate node of every term as well.
    """
    n = nf.qubits
    ket0 = ZSpider(Scalar(0), 0, 1)
    # Accumulator wires: (top-sum, out-sum_1, ..., out-sum_n), all seeded |0>.
    d: Diagram = tensor_many([ket0] * (n + 1))
    for coeff, x, y in _node_rows(nf, unreduced):
        plain = [k for k in range(n) if (x >> (n - 1 - k)) & 1]
        ticked = [k for k in range(n) if (y >> (n - 1 - k)) & 1]
        legs = 1 + len(plain) + len(ticked)
        node = ZSpider(coeff, 0, legs)
        width = n + 1 + legs
        d = Compose(Tensor(id_n(n + 1), node), d)
        # Tick the bra-side legs of the node.
        tick_layer: list[Diagram] = [id_n(n + 1 + 1 + len(plain))]
        tick_layer.extend([Tick] * len(ticked))
        d = Compose(tensor_many(tick_layer), d)
        # Route each leg next to its accumulator, then merge groups at once.
        # Current order: T, g_1..g_n, top, plain legs (asc), ticked legs (asc).
        counts = [0] * (n + 1)
        counts[0] = 1
        for k in plain:
            counts[k + 1] += 1
        for k in ticked:
            counts[k + 1] += 1
        starts = [0] * (n + 1)
        acc = 0
        for g in range(n + 1):
            starts[g] = acc
            acc += 1 + counts[g]
        perm = [0] * width
        for g in range(n + 1):
            perm[g] = starts[g]
        slot = [1] * (n + 1)
        pos = n + 1
        perm[pos] = starts[0] + 1
        pos += 1
        for k in plain:
            g = k + 1
            perm[pos] = starts[g] + slot[g]
            slot[g] += 1
            pos += 1
        for k in ticked:
            g = k + 1
            perm[pos] = starts[g] + slot[g]
            slot[g] += 1
            pos += 1
        d = Compose(permutation_diagram(perm), d)
        d = Compose(tensor_many([_merge_chain(c) for c in counts]), d)
    # Consume the top accumulator with the plug; outputs remain in order.
    d = Compose(Tensor(_PLUG, id_n(n)), d)
    return d


def nf_of_diagram(d: Diagram) -> NormalForm:
    """Normal form of the operator denoted by a 0 -> m state diagram."""
    if d.n_in != 0:
        raise SemanticsError(f"nf_of_diagram needs a state, got {d.n_in} inputs")
    return nf_from_matrix(state_operator(d))


def canonical_of_map(d: Diagram) -> NormalForm:
    """Complete invariant of a general diagram: normal form of its bent state."""
    return nf_from_matrix(state_operator(bend_inputs(d)))


def first_difference(a: NormalForm, b: NormalForm) -> "tuple[int, int, Scalar, Scalar] | None":
    """First entry (x, y, a's coefficient, b's) in (x, y) order where a and b differ.

    An entry missing from one side reads as 0.  None when the entries agree.
    """
    ca = {(t.x, t.y): t.coeff for t in a.terms}
    cb = {(t.x, t.y): t.coeff for t in b.terms}
    for key in sorted(ca.keys() | cb.keys()):
        u, v = ca.get(key, ZERO), cb.get(key, ZERO)
        if u != v:
            return key[0], key[1], u, v
    return None


def diagrams_equal(d1: Diagram, d2: Diagram) -> bool:
    """Exact semantic equality of two diagrams as superoperators."""
    if d1.n_in != d2.n_in or d1.n_out != d2.n_out:
        return False
    return canonical_of_map(d1) == canonical_of_map(d2)


# -- text form -----------------------------------------------------------


def _bits(v: int, n: int) -> str:
    return format(v, f"0{n}b") if n else "-"


def format_nf(nf: NormalForm) -> str:
    lines = [f"n {nf.qubits}"]
    for t in nf.terms:
        lines.append(
            f"{_bits(t.x, nf.qubits)} {_bits(t.y, nf.qubits)} {format_scalar(t.coeff)}"
        )
    return "\n".join(lines) + "\n"


def parse_nf(text: str) -> NormalForm:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n "):
        raise NormalFormError("normal form text must start with 'n <qubits>'")
    try:
        n = int(lines[0][2:].strip())
    except ValueError:
        raise NormalFormError(f"bad qubit count in {lines[0]!r}") from None
    terms = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise NormalFormError(f"bad term line {ln!r}")
        xs, ys, cs = toks
        try:
            x = 0 if xs == "-" else int(xs, 2)
            y = 0 if ys == "-" else int(ys, 2)
        except ValueError:
            raise NormalFormError(f"bad bitstring in {ln!r}") from None
        for raw in (xs, ys):
            if raw == "-":
                if n != 0:
                    raise NormalFormError(f"empty-bitstring marker needs n = 0, got n = {n}")
            elif len(raw) != n:
                raise NormalFormError(f"bitstring {raw!r} is not {n} bits")
        try:
            c = parse_scalar(cs)
        except ScalarParseError as exc:
            raise NormalFormError(f"bad coefficient in {ln!r}: {exc}") from None
        terms.append(NFTerm(x, y, c))
    terms.sort(key=lambda t: (t.x, t.y))
    return NormalForm(n, tuple(terms))
