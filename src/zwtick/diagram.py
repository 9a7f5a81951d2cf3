"""Diagram terms: generators, sequential and parallel composition.

A diagram with n input wires and m output wires is a finite term built from
the generator alphabet (Z and W spiders, the fermionic swap, the tick, plain
wires, swaps, cups and caps) under `Compose` and `Tensor`.  Terms are plain
immutable trees; nothing is quotiented here.  Semantic identification happens
in `semantics` / `normalform`, syntactic rewriting in `rules`.

Wire-order conventions: `Compose(after, before)` applies `before` first; wire
0 is the leftmost (most significant in the basis-index encoding used by the
interpreter).  The tick is a 1 -> 1 generator marking one wire; two ticks on
the same wire cancel semantically but not syntactically.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .scalar import MAX_DIGITS, ONE, Scalar, ScalarParseError, _too_long, format_scalar, parse_scalar


class ArityError(ValueError):
    """Raised when composition arities disagree or a spider arity is negative."""


class DiagramParseError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Diagram:
    """Base class; every node carries its cached wire counts.

    `==` is structural and `hash` agrees with it.  Generators are frozen
    dataclasses that compare and hash by their fields.  On `Compose` and
    `Tensor`, `==`, `hash` and `repr` walk the term on an explicit stack, so
    any depth is safe, and a term's hash is computed once and kept on each
    of its composite nodes.  The diagram `normalform.nf_to_diagram` returns
    keeps its program (its `flatten` list and its compiled steps) and is a
    deferred `Compose`, whose children are built when first read: a round
    trip never builds them.
    """

    n_in: int = field(init=False, default=0, compare=False)
    n_out: int = field(init=False, default=0, compare=False)

    _hash = None  # set on a composite node by its first hash
    _kept = None  # the program set by `nf_to_diagram`

    def __hash__(self) -> int:
        # Generators hash by their fields; a composite keeps its hash on the node.
        h = self._hash
        if h is None:
            todo: list[Diagram] = [self]
            while todo:
                node = todo[-1]
                if node._hash is not None:
                    todo.pop()
                    continue
                a, b = _children(node)
                waiting = [c for c in (a, b) if c._hash is None and not isinstance(c, Generator)]
                if waiting:
                    todo += waiting
                    continue
                h = hash((type(node), hash(a), hash(b)))
                object.__setattr__(node, "_hash", h)
                todo.pop()
            h = self._hash  # the last node hashed is self, unless another thread hashed it first
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Diagram):
            return NotImplemented
        todo: list[tuple[Diagram, Diagram]] = [(self, other)]
        seen: set[tuple[int, int]] = set()  # composite pairs: shared subterms compare once
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, Generator):
                if a != b:
                    return False
            elif (id(a), id(b)) not in seen:
                if a._hash is not None and b._hash is not None and a._hash != b._hash:
                    return False
                seen.add((id(a), id(b)))
                todo += zip(_children(a), _children(b))
        return True

    def __repr__(self) -> str:
        return _write(self, repr, _repr_heads)


@dataclass(frozen=True, eq=False)
class Generator(Diagram):
    pass


def _set_arity(obj: Diagram, n: int, m: int) -> None:
    object.__setattr__(obj, "n_in", n)
    object.__setattr__(obj, "n_out", m)


@dataclass(frozen=True)
class ZSpider(Generator):
    """White spider with parameter r: sends |0..0> to |0..0> and |1..1> to r|1..1>."""

    r: Scalar
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ArityError(f"negative spider arity ({self.n}, {self.m})")
        _set_arity(self, self.n, self.m)


@dataclass(frozen=True)
class WSpider(Generator):
    """Black spider: one unit of excitation distributed over its legs.

    Maps every weight-1 input basis state to the all-zeros output and the
    all-zeros input to the sum of weight-1 outputs; all other basis states
    are annihilated.  The 1 -> 1 instance is the bit flip.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ArityError(f"negative spider arity ({self.n}, {self.m})")
        _set_arity(self, self.n, self.m)


@dataclass(frozen=True)
class _Fixed(Generator):
    """A generator without parameters, named by its core-syntax text."""

    text: str
    arity: tuple[int, int]

    def __post_init__(self) -> None:
        _set_arity(self, *self.arity)

    def __reduce__(self) -> tuple:
        # Copies and pickles are the singleton itself: layers dispatch by `g is Tick`.
        return parse_diagram, (self.text,)


Fswap = _Fixed("fswap", (2, 2))
Tick = _Fixed("tick", (1, 1))
Id = _Fixed("(id 1)", (1, 1))
Swap = _Fixed("swap", (2, 2))
Cup = _Fixed("cup", (2, 0))
Cap = _Fixed("cap", (0, 2))
#: The 0 -> 0 unit diagram.
Empty = _Fixed("(id 0)", (0, 0))


def _write(d: Diagram, leaf: Callable, heads: Callable) -> str:
    """Write a term on an explicit stack, so any depth is safe.

    A generator is written `leaf(g)`; a composite node as opening, first child,
    middle, second child and ")", where `heads(node)` gives opening and middle.
    """
    out: list[str] = []
    todo: list = [d]  # terms still to write, and literal text between them
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Generator):
            out.append(leaf(t))
        else:
            first, second = _children(t)
            opening, middle = heads(t)
            out.append(opening)
            todo += (")", second, middle, first)
    return "".join(out)


def _repr_heads(t: Diagram) -> tuple[str, str]:
    first, second = ("after", "before") if isinstance(t, Compose) else ("left", "right")
    return f"{type(t).__name__}(n_in={t.n_in}, n_out={t.n_out}, {first}=", f", {second}="


@dataclass(frozen=True, eq=False, repr=False)
class Compose(Diagram):
    """`after . before`: feed the outputs of `before` into `after`.

    A node made by `_deferred` has its arity but not its children: the
    first read of `after` or `before` builds both, and drops the builder.
    """

    after: Diagram
    before: Diagram

    def __post_init__(self) -> None:
        if self.before.n_out != self.after.n_in:
            raise ArityError(
                f"compose mismatch: before produces {self.before.n_out} wires "
                f"but after consumes {self.after.n_in}"
            )
        _set_arity(self, self.before.n_in, self.after.n_out)

    @classmethod
    def _deferred(cls, n_in: int, n_out: int, build: Callable[[], tuple[Diagram, Diagram]]) -> Compose:
        """A node n_in -> n_out whose children `build()` gives, as (after, before), when first read."""
        node = object.__new__(cls)
        vars(node).update(n_in=n_in, n_out=n_out, _build=build)
        return node

    def __getattr__(self, name: str):
        # Only a missing attribute gets here: a deferred node's children
        # before their first read.  Two threads that read them at once may
        # each build them, as equal terms.  The builder is dropped after
        # both children are set, so a thread that finds it gone finds them.
        build = vars(self).get("_build")
        if build is not None and name in ("after", "before"):
            vars(self).update(zip(("after", "before"), build()), _build=None)
        return object.__getattribute__(self, name)

    def __reduce__(self) -> tuple:
        return _from_table, (_node_table(self),)


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(Diagram):
    left: Diagram
    right: Diagram

    def __post_init__(self) -> None:
        _set_arity(
            self,
            self.left.n_in + self.right.n_in,
            self.left.n_out + self.right.n_out,
        )

    def __reduce__(self) -> tuple:
        return _from_table, (_node_table(self),)


def _children(d: Diagram) -> tuple[Diagram, Diagram]:
    if isinstance(d, Compose):
        return d.after, d.before
    if isinstance(d, Tensor):
        return d.left, d.right
    raise TypeError(f"not a diagram: {d!r}")


# -- copies and pickles --------------------------------------------------
#
# A composite term is copied and pickled as a table of its distinct nodes in
# post-order, and rebuilt from it with a loop, so any depth is safe and a
# shared subterm is written and rebuilt once.  The kept hash and program
# are not carried: string hashes differ between processes.


def _node_table(d: Diagram) -> list:
    """d's distinct nodes, children first: a generator as itself, a composite
    node as (class, row of its first child, row of its second)."""
    rows: list = []
    row: dict[int, int] = {}  # id(node) -> its row
    todo: list[Diagram] = [d]
    while todo:
        node = todo[-1]
        if id(node) in row:
            todo.pop()
            continue
        if isinstance(node, Generator):
            entry = node
        else:
            a, b = _children(node)
            missing = [c for c in (a, b) if id(c) not in row]
            if missing:
                todo += missing
                continue
            entry = (type(node), row[id(a)], row[id(b)])
        row[id(node)] = len(rows)
        rows.append(entry)
        todo.pop()
    return rows


def _from_table(rows: list) -> Diagram:
    built: list[Diagram] = []
    for entry in rows:
        if isinstance(entry, tuple):
            cls, i, j = entry
            entry = cls(built[i], built[j])
        built.append(entry)
    return built[-1]


# -- flattening ----------------------------------------------------------


def flatten(d: Diagram) -> list[tuple[Generator, int]]:
    """The generators of d other than `Id` and `Empty`, in application order.

    Each comes with `lo`, the number of live wires below its inputs when it
    is applied (wire k of w live wires is bit w-1-k of a basis index).  The
    walk keeps an explicit stack, so any depth is safe.  A rebuilt normal
    form that keeps its program (`_kept`, set by `normalform.nf_to_diagram`)
    has its program's `flat` spliced in, shifted by the live wires below it,
    and is not walked again.
    """
    out: list[tuple[Generator, int]] = []
    width = d.n_in
    stack: list[tuple[Diagram, int]] = [(d, 0)]
    while stack:
        node, off = stack.pop()
        if isinstance(node, Generator):
            if node is Id or node is Empty:
                continue
            out.append((node, width - off - node.n_in))
        elif not isinstance(node, (Compose, Tensor)):
            raise TypeError(f"not a diagram: {node!r}")
        elif node._kept is not None:
            flat = node._kept.flat
            shift = width - off - node.n_in
            out += flat if shift == 0 else [(g, lo + shift) for g, lo in flat]
        elif isinstance(node, Compose):
            stack.append((node.after, off))
            stack.append((node.before, off))
            continue
        else:
            stack.append((node.right, off + node.left.n_out))
            stack.append((node.left, off))
            continue
        width += node.n_out - node.n_in
    return out


# -- bulk builders -------------------------------------------------------

#: Most outputs each shared builder keeps.
_SHARED_SIZE = 1024

#: Memoize a builder whose outputs repeat, keyed by its arguments: terms
#: that use the builder share its outputs.
_shared = functools.lru_cache(maxsize=_SHARED_SIZE)


def id_n(n: int) -> Diagram:
    """n parallel wires; the empty diagram when n = 0."""
    if n < 0:
        raise ArityError(f"negative wire count {n}")
    return _wire_bundle(n)


@_shared
def _wire_bundle(n: int) -> Diagram:
    if n == 0:
        return Empty
    d: Diagram = Id
    for _ in range(n - 1):
        d = Tensor(Id, d)
    return d


def tensor_many(parts: list[Diagram]) -> Diagram:
    if not parts:
        return Empty
    d = parts[0]
    for p in parts[1:]:
        d = Tensor(d, p)
    return d


def compose_many(layers: list[Diagram]) -> Diagram:
    """Compose layers listed in application order (first layer applied first)."""
    if not layers:
        return Empty
    d = layers[0]
    for layer in layers[1:]:
        d = Compose(layer, d)
    return d


def permutation_diagram(perm: list[int]) -> Diagram:
    """A swap network routing input i to output position perm[i].

    Built from adjacent-transposition layers via odd-even sorting, so the
    result is a genuine term over Swap with at most len(perm) layers;
    identity permutations produce plain wires.  Equal permutations share
    one network.
    """
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm}")
    return _swap_network(tuple(perm))


@_shared
def _swap_network(perm: tuple[int, ...]) -> Diagram:
    k = len(perm)
    cur = list(range(k))
    layers: list[Diagram] = []
    parity = 0
    for _ in range(k + 1):
        if all(perm[cur[j]] == j for j in range(k)):
            break
        swapped_at: list[int] = []
        for j in range(parity, k - 1, 2):
            if perm[cur[j]] > perm[cur[j + 1]]:
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                swapped_at.append(j)
        if swapped_at:
            parts: list[Diagram] = []
            pos = 0
            for j in swapped_at:
                if j > pos:
                    parts.append(id_n(j - pos))
                parts.append(Swap)
                pos = j + 2
            if pos < k:
                parts.append(id_n(k - pos))
            layers.append(tensor_many(parts))
        parity ^= 1
    if not layers:
        return id_n(k)
    return compose_many(layers)


def block_transpose(n: int, m: int) -> Diagram:
    """Route n blocks of m wires to m blocks of n: wire i*m + j goes to j*n + i."""
    return permutation_diagram([j * n + i for i in range(n) for j in range(m)])


def route(src: list, dst: list) -> Diagram:
    """Swap network taking wires labelled `src`, in that order, to the order `dst`."""
    position = {label: k for k, label in enumerate(dst)}
    return permutation_diagram([position[label] for label in src])


def wires(tag: str, n: int) -> list[tuple[str, int]]:
    """Labels (tag, 0), ..., (tag, n - 1) for a block of n wires."""
    return [(tag, i) for i in range(n)]


def interleave(a: list, b: list) -> list:
    """a1, b1, a2, b2, ...: the wire order of a layer of caps or cups."""
    return [w for pair in zip(a, b) for w in pair]


def bend_cap(n: int) -> Diagram:
    """0 -> 2n state pairing output k with output n+k (blocked Bell layout)."""
    # Cap^(x)n emits interleaved pairs (a1,b1,...,an,bn); route to blocks.
    return Compose(block_transpose(n, 2), tensor_many([Cap] * n))


def _ticked_bend_cap(n: int) -> Diagram:
    """`bend_cap` with the first block ticked: the Bell layer of a transposed reference."""
    if n == 0:
        return Empty
    return Compose(block_transpose(n, 2), tensor_many([ticked_cap] * n))


def bend_cup(n: int) -> Diagram:
    """2n -> 0 effect pairing input k with input n+k."""
    return dagger(bend_cap(n))


# -- folds ---------------------------------------------------------------

# Markers on the fold stack: combine the two values on top.
_COMPOSE = object()
_TENSOR = object()


def fold(d: Diagram, gen: Callable, compose: Callable, tensor: Callable):
    """Post-order fold of a term, on an explicit stack so any depth is safe.

    Each generator leaf g becomes gen(g); a `Compose` node becomes
    compose(after's value, before's value) and a `Tensor` node
    tensor(left's value, right's value).  Children are visited in
    application order, `before` then `after` and `left` then `right`, so the
    calls of `gen` run in that order too.
    """
    values: list = []
    todo: list = [d]
    while todo:
        t = todo.pop()
        if t is _COMPOSE:
            after = values.pop()
            values[-1] = compose(after, values[-1])
        elif t is _TENSOR:
            right = values.pop()
            values[-1] = tensor(values[-1], right)
        elif isinstance(t, Compose):
            todo += (_COMPOSE, t.after, t.before)
        elif isinstance(t, Tensor):
            todo += (_TENSOR, t.right, t.left)
        elif isinstance(t, Generator):
            values.append(gen(t))
        else:
            raise TypeError(f"not a diagram: {t!r}")
    return values[0]


def _dagger_gen(g: Generator) -> Diagram:
    if isinstance(g, ZSpider):
        return ZSpider(g.r.conj(), g.m, g.n)
    if isinstance(g, WSpider):
        return WSpider(g.m, g.n)
    if g is Cup:
        return Cap
    if g is Cap:
        return Cup
    return g


def dagger(d: Diagram) -> Diagram:
    """Adjoint: reverses composition and conjugates Z parameters."""
    return fold(d, _dagger_gen, lambda after, before: Compose(before, after), Tensor)


def _conjugate_gen(g: Generator) -> Diagram:
    return ZSpider(g.r.conj(), g.n, g.m) if isinstance(g, ZSpider) else g


def conjugate_term(d: Diagram) -> Diagram:
    """Entrywise complex conjugate: conjugates Z parameters, fixes the rest."""
    return fold(d, _conjugate_gen, Compose, Tensor)


def transpose_term(d: Diagram) -> Diagram:
    """Matrix transpose as a term operation: dagger of the conjugate."""
    return dagger(conjugate_term(d))


def has_tick(d: Diagram) -> bool:
    return any(g is Tick for g, _ in flatten(d))


def generator_count(d: Diagram) -> int:
    """Number of generator leaves (plain wires and the unit included)."""
    return fold(d, lambda g: 1, operator.add, operator.add)


def subdiagrams(d: Diagram) -> Iterator[tuple[tuple[int, ...], Diagram]]:
    """Yield (path, node) pairs in preorder; path components are child indices."""
    stack: list[tuple[tuple[int, ...], Diagram]] = [((), d)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Compose):
            stack.append((path + (1,), node.before))
            stack.append((path + (0,), node.after))
        elif isinstance(node, Tensor):
            stack.append((path + (1,), node.right))
            stack.append((path + (0,), node.left))


# -- derived constructors ------------------------------------------------

ket0 = ZSpider(Scalar(0), 0, 1)
ket1 = WSpider(0, 1)
bra0 = dagger(ket0)
bra1 = dagger(ket1)
not_gate = WSpider(1, 1)

#: Discard one wire: trace out the qubit.  The Z splitter feeds a plain and a
#: ticked copy of the wire into a cup, which contracts the diagonal.
ground = Compose(Compose(Cup, Tensor(Tick, Id)), ZSpider(ONE, 1, 2))

#: 2 -> 0 effect with a tick on its first leg; the building block of traces.
ticked_cup = Compose(Cup, Tensor(Tick, Id))

#: 0 -> 2 state, adjoint of the ticked cup.
ticked_cap = dagger(ticked_cup)


# -- text form -----------------------------------------------------------

_SUGAR: dict[str, Diagram] = {
    **{g.text: g for g in (Fswap, Swap, Cup, Cap, Tick)},
    "ground": ground,
    "ket0": ket0,
    "ket1": ket1,
    "bra0": bra0,
    "bra1": bra1,
    "not": not_gate,
    "tcup": ticked_cup,
    "tcap": ticked_cap,
}


#: The composite forms, by their head word.
_NODES = {"compose": Compose, "tensor": Tensor}


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    for line in text.splitlines():
        body = line.split(";", 1)[0]
        body = body.replace("(", " ( ").replace(")", " ) ")
        out.extend(body.split())
    return out


def parse_diagram(text: str) -> Diagram:
    """Parse the s-expression diagram syntax; sugar tokens expand to terms.

    One loop reads the tokens.  Open `compose`/`tensor` forms wait on an
    explicit stack, so any nesting depth parses.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise DiagramParseError("empty diagram text")
    rest = iter(tokens)

    def take() -> str:
        tok = next(rest, None)
        if tok is None:
            raise DiagramParseError("unexpected end of input")
        return tok

    def nat() -> int:
        tok = take()
        if not (tok.isascii() and tok.isdigit()):
            raise DiagramParseError(f"expected a natural number, found {tok!r}")
        if len(tok) > MAX_DIGITS:
            raise DiagramParseError(_too_long("a natural number"))
        return int(tok)

    def close() -> None:
        tok = next(rest, "<end>")
        if tok != ")":
            raise DiagramParseError(f"expected ')', found {tok!r}")

    forms: list[list] = []  # open forms: [node class, first argument or None]
    for tok in rest:
        if tok == "(":
            head = take()
            if head in _NODES:
                forms.append([_NODES[head], None])
                continue
            if head == "id":
                n = nat()
                close()
                d = id_n(n)
            elif head == "z":
                try:
                    r = parse_scalar(take())
                except ScalarParseError as exc:
                    raise DiagramParseError(f"bad spider parameter: {exc}") from None
                d = ZSpider(r, nat(), nat())
                close()
            elif head == "w":
                d = WSpider(nat(), nat())
                close()
            else:
                raise DiagramParseError(f"unknown form {head!r}")
        elif tok in _SUGAR:
            d = _SUGAR[tok]
        else:
            raise DiagramParseError(f"unknown diagram token {tok!r}")
        # d completes every open form that already holds its first argument.
        while forms and forms[-1][1] is not None:
            node, first = forms.pop()
            close()
            try:
                d = node(first, d)
            except ArityError as exc:
                raise DiagramParseError(str(exc)) from None
        if not forms:
            break
        forms[-1][1] = d
    else:  # the tokens ran out inside an open form
        raise DiagramParseError("unexpected end of input")
    for tok in rest:  # a token after the complete term
        raise DiagramParseError(f"trailing tokens starting at {tok!r}")
    return d


def _generator_text(g: Generator) -> str:
    if isinstance(g, ZSpider):
        return f"(z {format_scalar(g.r)} {g.n} {g.m})"
    if isinstance(g, WSpider):
        return f"(w {g.n} {g.m})"
    return g.text


def _text_heads(t: Diagram) -> tuple[str, str]:
    return ("(compose " if isinstance(t, Compose) else "(tensor "), " "


def print_diagram(d: Diagram) -> str:
    """Core-syntax text for a term; `parse_diagram` inverts it exactly."""
    return _write(d, _generator_text, _text_heads)


# -- graphviz rendering --------------------------------------------------


def render_dot(d: Diagram) -> str:
    """Graphviz source: white Z nodes, black W nodes, dashed ticked edges.

    Wires are ints in creation order, joined into classes by composition.
    Each class is a path with two ends or a closed loop with none: one edge.
    """
    nodes: list[str] = []
    parent: list[int] = []  # union-find over wires, with path halving
    ticks: list[int] = []  # read on a class's root
    ends: list[list[str]] = []  # read on a class's root: its end nodes, in order

    def root(w: int) -> int:
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def new_wire(end: str | None = None, tick: int = 0) -> int:
        parent.append(len(parent))
        ticks.append(tick)
        ends.append([] if end is None else [end])
        return len(parent) - 1

    def spider(t: Diagram, label: str, attrs: str) -> tuple[list[int], list[int]]:
        name = f"n{len(nodes)}"
        nodes.append(f'  {name} [label="{label}" {attrs}];')
        ports = [new_wire(name) for _ in range(t.n_in + t.n_out)]
        return ports[: t.n_in], ports[t.n_in :]

    def gen(t: Diagram) -> tuple[list[int], list[int]]:
        if isinstance(t, ZSpider):
            label = f"Z({format_scalar(t.r)})"
            return spider(t, label, "shape=ellipse style=filled fillcolor=white")
        if isinstance(t, WSpider):
            return spider(t, "W", "shape=circle style=filled fillcolor=black fontcolor=white")
        if t is Fswap:
            return spider(t, "fswap", "shape=box")
        if t is Id or t is Tick:
            w = new_wire(tick=1 if t is Tick else 0)
            return [w], [w]
        if t is Swap:
            w1, w2 = new_wire(), new_wire()
            return [w1, w2], [w2, w1]
        if t is Cup:
            w = new_wire()
            return [w, w], []
        if t is Cap:
            w = new_wire()
            return [], [w, w]
        if t is Empty:
            return [], []
        raise TypeError(f"not a diagram: {t!r}")

    def compose(after: tuple, before: tuple) -> tuple[list[int], list[int]]:
        for wb, wa in zip(before[1], after[0]):
            rb, ra = root(wb), root(wa)
            if rb != ra:  # the class keeps before's root, with before's ends first
                parent[ra] = rb
                ticks[rb] += ticks[ra]
                ends[rb] += ends[ra]
        return before[0], after[1]

    def tensor(left: tuple, right: tuple) -> tuple[list[int], list[int]]:
        return left[0] + right[0], left[1] + right[1]

    ins, outs = fold(d, gen, compose, tensor)
    named = len(nodes)  # closed loops are named after the spiders
    for k, w in enumerate(ins):
        nodes.append(f'  in{k} [label="in {k}" shape=plaintext];')
        ends[root(w)].insert(0, f"in{k}")  # in front, so edges read input -> output
    for k, w in enumerate(outs):
        nodes.append(f'  out{k} [label="out {k}" shape=plaintext];')
        ends[root(w)].append(f"out{k}")

    edges: list[str] = []
    classes = dict.fromkeys(root(w) for w in range(len(parent)))  # by first-created wire
    for r in classes:
        if not ends[r]:  # a closed loop touching no node: draw it on a point
            ends[r] = [f"n{named}"]
            nodes.append(f'  n{named} [label="" shape=point];')
            named += 1
        attrs = ""
        if ticks[r]:
            label = "∤" if ticks[r] == 1 else f"∤x{ticks[r]}"
            attrs = f' [style=dashed label="{label}"]'
        edges.append(f"  {ends[r][0]} -> {ends[r][-1]}{attrs};")
    return "digraph zw {\n  rankdir=BT;\n" + "\n".join(nodes + edges) + "\n}\n"
