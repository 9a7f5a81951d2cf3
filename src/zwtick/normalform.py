"""Normal forms for the Hermitian operators denoted by state diagrams.

A Hermitian operator H on n qubits is presented as a list of entry terms
(x, y, c) with x <= y in the bitstring order: a diagonal term (x, x, c)
contributes c|x><x| (c real), an off-diagonal term (x, y, c) contributes
c|x><y| plus its conjugate transpose.  The list, sorted by (x, y), is a
complete invariant, so two diagrams denote the same channel exactly when
the normal forms of their input-bent states coincide, that is when the
upper triangles of their Choi matrices do.  `compare_maps` decides a ticked
pair on those triangles, and builds the normal forms only for the witness
of a difference; a tick-free pair it decides from the much smaller pure
matrices, which must agree up to a phase.

`nf_to_diagram` rebuilds a diagram from the term list.  Each term becomes
one parameterized Z node (two in the unreduced variant) whose legs feed,
through ticks on the bra side, into per-output gathers; a final plug keeps
exactly the branches where a single node fires on a single side, which is
what produces c|x><y| + conj(c)|y><x| and nothing else.  The gathers are
assembled as chains of binary merges so that evaluating the diagram stays
polynomial in the number of terms.  The wiring after a node depends only on
its entry's position, and on whether the plug follows it, so its program is
compiled once per position (`_term_wiring`, a shared builder), with its
dead-pattern masks and its segment.  The plug's Z spider binds 1, so the
last position's segment runs through the plug, and a rebuilt form's program
is its kets and one segment per term.  Every other position's segment keeps
its width and is applied in place, guarded by the top accumulator at
(0, 0) or (1, 1): every entry outside is carried, and the one live entry
inside is the one whose accumulators are all 0, so a term takes out and
changes that entry alone and meets no other.  Between positions the dead-pattern
pass carries one group whatever the entries, `_between(n)`, so each
position's masks are compiled from it, or from nothing after the plug.  The
rebuilt diagram keeps the ket layer's steps and its positions' laid end to
end, so `state_operator` runs them without reading the term or analysing
them.  A term costs one lookup of its position's program and one step that
binds its coefficient: its Z node, in the kept flattened form and in the
tree of layers around the nodes, is made only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diagram import (
    Compose,
    Cup,
    Diagram,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    _shared,
    flatten,
    id_n,
    route,
    tensor_many,
    wires,
)
from .scalar import HALF, MAX_DIGITS, ONE, Scalar, ScalarParseError, ZERO, _too_long, format_scalar, parse_scalar
from .matrix import Matrix, _format_complex, _mirrored
from .program import Program, compile
from .semantics import _choi_upper, _interp_flat, state_operator


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
    return _mirrored(1 << nf.qubits, {(t.x, t.y): t.coeff for t in nf.terms})


# -- diagram reconstruction ----------------------------------------------

#: 2 -> 1 binary merge: adds two excitation counts, annihilating overflow.
_MERGE = Compose(WSpider(1, 1), WSpider(2, 1))

#: 1 -> 0 plug keeping branches where exactly one side of the doubled top
#: wire fires: a Z splitter feeding a ticked leg and a flipped leg into a cup.
_PLUG = Compose(
    Cup,
    Compose(Tensor(Tick, WSpider(1, 1)), ZSpider(ONE, 1, 2)),
)


@_shared
def _merge_chain(group: int) -> Diagram:
    """(1 + group) -> 1 fold of binary merges onto an accumulator wire."""
    d = id_n(1)
    for _ in range(group):
        d = Compose(_MERGE, Tensor(d, id_n(1)))
    return d


@_shared
def _merge_layer(groups: tuple[int, ...]) -> Diagram:
    """One merge chain per accumulator, by the sizes of the groups it gathers."""
    return tensor_many([_merge_chain(group) for group in groups])


@_shared
def _tick_layer(plain: int, ticked: int) -> Diagram:
    """`plain` wires, then `ticked` ticked wires."""
    return tensor_many([id_n(plain)] + [Tick] * ticked)


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


def _term_layers(n: int, x: int, y: int) -> tuple[int, Diagram, Diagram, Diagram]:
    """The Z node's leg count for the entry (x, y) on n qubits, and its tick layer, route and merge layer."""
    plain = [("x", k) for k in range(n) if (x >> (n - 1 - k)) & 1]
    ticked = [("y", k) for k in range(n) if (y >> (n - 1 - k)) & 1]
    # Tick the bra-side legs of the node.
    ticks = _tick_layer(n + 1 + 1 + len(plain), len(ticked))
    # Route each leg next to its accumulator, then merge groups at once:
    # accumulator 0 gathers the top leg, accumulator k + 1 qubit k's legs.
    accs, top = wires("acc", n + 1), [("top", 0)]
    groups = [top] + [[leg for leg in plain + ticked if leg[1] == k] for k in range(n)]
    gathered = [w for acc, group in zip(accs, groups) for w in (acc, *group)]
    routing = route(accs + top + plain + ticked, gathered)
    merges = _merge_layer(tuple(len(group) for group in groups))
    return 1 + len(plain) + len(ticked), ticks, routing, merges


def _between(n: int) -> tuple:
    """The dead-pattern groups where two programs of a rebuilt form on n qubits meet.

    That is after the kets and after each node position but the last: the
    top accumulator (bit n) never carries ket = bra = 1, because each
    side's count of node firings only grows and the plug keeps exactly one
    side fired.  Pulled back through any position, from no group when the
    plug is in it and from these otherwise, they are these again (a test
    checks every position up to 5 qubits).
    """
    return (((n,), frozenset({(0, 0), (0, 1), (1, 0)})),)


@_shared
def _term_wiring(n: int, x: int, y: int, last: bool) -> Program:
    """The program of the entry (x, y)'s Z node, with r = 1, and of its layers after it.

    The layers start on all n + 1 accumulators.  The node's step binds the
    entry's coefficient, and no other step binds one but 1.  The last
    node's program ends with the plug's: `compile` may take the plug's
    first generator into the layers' last step.  Its masks start from no
    group after the plug, and any other position's from `_between(n)`, so
    they are those `compile` gives these steps in any form.  Up to 4 qubits
    the node and the layers are one segment, which in the last position
    runs through the plug: the plug's (z 1 1 2), when it is a step of its
    own, binds 1.
    """
    legs, ticks, routing, merges = _term_layers(n, x, y)
    flat = [(ZSpider(ONE, 0, legs), 0)] + flatten(Compose(merges, Compose(routing, ticks)))
    return compile(flat + flatten(_plug(n)), n + 1) if last else compile(flat, n + 1, _between(n))


@_shared
def _layer_steps(n: int) -> tuple[Program, Program]:
    """The programs of the ket layer, and of the ket and plug layers together, on n qubits.

    The first is continued by node positions, so its masks start from
    `_between(n)`.  The second is the program of a form with no term.
    """
    return compile(flatten(_kets(n)), 0, _between(n)), compile(flatten(Compose(_plug(n), _kets(n))))


def _kets(n: int) -> Diagram:
    """The n + 1 accumulator wires (top-sum, out-sum_1, ..., out-sum_n), all seeded |0>."""
    return tensor_many([ZSpider(Scalar(0), 0, 1)] * (n + 1))


def _plug(n: int) -> Diagram:
    """The plug on the top accumulator; the n outputs pass."""
    return Tensor(_PLUG, id_n(n))


def nf_to_diagram(nf: NormalForm, unreduced: bool = False) -> Diagram:
    """Rebuild a 0 -> n state diagram denoting exactly the encoded operator.

    The reduced variant spends one Z node per term; the unreduced variant
    spells out the conjugate node of every term as well.  The result keeps
    its program: the ket layer's, then each position's with its node's
    coefficient bound and the plug in the last one's, or with no term the
    ket and plug layers' together (`_layer_steps`).  That is `compile` of
    the result's `flatten` list, masks and segments included: each
    position opens with its node, a 0 -> k state, which `compile` takes
    into no step before it, and the dead-pattern groups where two programs
    meet are `_between(n)`.

    Only the steps are laid down here: `state_operator` reads them alone.
    The kept `flat` is built on its first read, from the ket layer's and
    each position's with the node's Z spider put in, and the term when
    something reads it (`Compose._deferred`), from each position's layers.
    """
    n = nf.qubits
    rows = _node_rows(nf, unreduced)
    kets, empty = _layer_steps(n)
    # Each position's program, its node binding coeff: the node opens its
    # legs below every live wire, and its wiring spans them all.
    positions = [_term_wiring(n, x, y, k == len(rows) - 1) for k, (_, x, y) in enumerate(rows)]
    steps = list(kets.steps)
    for (coeff, _, _), position in zip(rows, positions):
        (table, masks, _), *wiring = position.steps
        steps += [(table, masks, coeff), *wiring]

    def flat() -> list:
        out = list(kets.flat)
        for (coeff, _, _), position in zip(rows, positions):
            (node, _), *wiring = position.flat
            out += [(ZSpider(coeff, 0, node.m), 0), *wiring]
        return out

    def build() -> tuple[Diagram, Diagram]:
        d = _kets(n)
        for coeff, x, y in rows:
            legs, ticks, routing, merges = _term_layers(n, x, y)
            d = Compose(merges, Compose(routing, Compose(ticks, Compose(Tensor(id_n(n + 1), ZSpider(coeff, 0, legs)), d))))
        # Consume the top accumulator with the plug; outputs remain in order.
        return _plug(n), d

    d = Compose._deferred(0, n, build)
    object.__setattr__(d, "_kept", Program(flat, steps) if rows else empty)  # the plug on |0> gives 0
    return d


def nf_of_diagram(d: Diagram) -> NormalForm:
    """Normal form of the operator denoted by a 0 -> m state diagram."""
    return nf_from_matrix(state_operator(d))


def canonical_of_map(d: Diagram) -> NormalForm:
    """Complete invariant of a general diagram: normal form of its bent state."""
    return _canonical(d, _choi_upper(d, flatten(d)))


def _canonical(d: Diagram, upper: dict) -> NormalForm:
    """`canonical_of_map(d)`, from `upper`, the upper triangle of d's Choi matrix."""
    return nf_from_matrix(_mirrored(1 << (d.n_in + d.n_out), upper))


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


def _equal_up_to_phase(a: dict, b: dict) -> bool:
    """a = c b for one scalar c with c conj(c) = 1, on sparse {key: nonzero} entries.

    c is the ratio at any one key, so it lies in Q(w) and the test is exact.
    Two empty dicts (zero maps) are equal.
    """
    if a.keys() != b.keys():
        return False
    if not a:
        return True
    key = next(iter(a))
    c = a[key] * b[key].inverse()
    return a == b if c == ONE else c * c.conj() == ONE and all(v == c * b[k] for k, v in a.items())


def compare_maps(
    d1: Diagram, d2: Diagram
) -> "tuple[bool, Callable[[], tuple[int, int, Scalar, Scalar] | None]]":
    """Exact verdict on d1 = d2 as superoperators, and a deferred witness.

    A tick-free term denotes rho -> A rho A^dagger with A its pure matrix,
    and two such maps are equal exactly when A = cB with |c| = 1.  So a
    tick-free pair is decided from `interp` of each side (2^(n+m) entries),
    and a ticked or mixed pair from the upper triangle of each side's Choi
    matrix (4^(n+m) entries), equal exactly when the canonical forms are.
    Arities that differ are unequal before any evaluation.

    The second value, called after a "not equal", returns the first entry
    (x, y, lhs, rhs) where the canonical forms differ (`first_difference`),
    or None when the arities differ.  Only it builds normal forms: after a
    ticked verdict from the triangles the verdict computed, after a
    tick-free one from scratch, so only failures pay for them.  After a
    tick-free verdict it raises `SemanticsError` when they exceed the
    dense-result guard.
    """
    if d1.n_in != d2.n_in or d1.n_out != d2.n_out:
        return False, lambda: None
    # Each side is flattened once, for the tick test and the evaluation.
    flats = []
    for d in (d1, d2):
        flats.append(flatten(d))
        if any(g is Tick for g, _ in flats[-1]):
            if len(flats) == 1:
                flats.append(flatten(d2))
            a, b = _choi_upper(d1, flats[0]), _choi_upper(d2, flats[1])
            return a == b, lambda: first_difference(_canonical(d1, a), _canonical(d2, b))
    if _equal_up_to_phase(_interp_flat(d1, flats[0]).entries, _interp_flat(d2, flats[1]).entries):
        return True, lambda: None
    return False, lambda: first_difference(canonical_of_map(d1), canonical_of_map(d2))


def diagrams_equal(d1: Diagram, d2: Diagram) -> bool:
    """Exact semantic equality of two diagrams as superoperators."""
    return compare_maps(d1, d2)[0]


# -- text form -----------------------------------------------------------


def _bits(v: int, n: int) -> str:
    return format(v, f"0{n}b") if n else "-"


def format_nf(nf: NormalForm, float_mode: bool = False) -> str:
    lines = [f"n {nf.qubits}"]
    for t in nf.terms:
        coeff = _format_complex(t.coeff.to_complex()) if float_mode else format_scalar(t.coeff)
        lines.append(f"{_bits(t.x, nf.qubits)} {_bits(t.y, nf.qubits)} {coeff}")
    return "\n".join(lines) + "\n"


def parse_nf(text: str) -> NormalForm:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n "):
        raise NormalFormError("normal form text must start with 'n <qubits>'")
    count = lines[0][2:].strip()
    if not (count.isascii() and count.isdigit()):
        raise NormalFormError(f"bad qubit count in {lines[0]!r}")
    if len(count) > MAX_DIGITS:
        raise NormalFormError(_too_long("the qubit count"))
    n = int(count)
    terms = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise NormalFormError(f"bad term line {ln!r}")
        xs, ys, cs = toks
        if any(raw != "-" and raw.strip("01") for raw in (xs, ys)):
            raise NormalFormError(f"bad bitstring in {ln!r}")
        x = 0 if xs == "-" else int(xs, 2)
        y = 0 if ys == "-" else int(ys, 2)
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
