"""Axiom schemas, positional rewriting, and the semantic certification harness.

Every schema carries builders for both sides of its equation.  Soundness is
certified by exact superoperator comparison (`compare_maps`: pure matrices up
to a phase for tick-free pairs, canonical forms otherwise) over a sample grid,
never assumed from the shape of the terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from time import perf_counter
from typing import Callable, Iterable, Sequence

from .diagram import (
    Cap,
    Compose,
    Cup,
    Diagram,
    Empty,
    Fswap,
    Id,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    block_transpose,
    bra0,
    compose_many,
    dagger,
    ground,
    id_n,
    ket0,
    ket1,
    not_gate,
    print_diagram,
    tensor_many,
    ticked_cap,
    ticked_cup,
)
from .normalform import _PLUG, NFTerm, NormalForm, compare_maps, nf_to_diagram
from .scalar import HALF, I, MINUS_ONE, ONE, OMEGA, Scalar, ZERO
from .matrix import SemanticsError


class RuleError(Exception):
    """Inadmissible rule parameters."""


class MatchError(Exception):
    """Rewrite site does not match the requested rule side."""


MAX_ARITY = 3

_W_SPLIT = WSpider(1, 2)
_W_MERGE = WSpider(2, 1)
_X = not_gate
_NEG = ZSpider(MINUS_ONE, 1, 1)
_ADD = Compose(_X, _W_MERGE)
_SHARE = Compose(_W_SPLIT, _X)


def _ticks(k: int) -> Diagram:
    return tensor_many([Tick] * k)


def _nots(k: int) -> Diagram:
    return tensor_many([_X] * k)


def _z_state_form(r: Scalar) -> Diagram:
    terms = [NFTerm(0, 0, ONE)]
    if not r.is_zero():
        terms.append(NFTerm(0, 1, r.conj()))
        terms.append(NFTerm(1, 1, r * r.conj()))
    return nf_to_diagram(NormalForm(1, tuple(terms)))


def _diag_state(c: Scalar) -> Diagram:
    return nf_to_diagram(NormalForm(1, (NFTerm(1, 1, c),)))


def _offdiag_state(c: Scalar) -> Diagram:
    return nf_to_diagram(NormalForm(1, (NFTerm(0, 1, c),)))


@dataclass(frozen=True)
class RuleSchema:
    """One equation schema: named, parameterized, with term builders per side."""

    name: str
    scalar_params: tuple[str, ...]
    arity_params: tuple[str, ...]
    build: Callable[..., tuple[Diagram, Diagram]]
    admit: Callable[..., "str | None"] | None = None


def _r_zs(r: Scalar, s: Scalar, n: int, m: int) -> tuple[Diagram, Diagram]:
    lhs = Compose(ZSpider(s, 1, m), ZSpider(r, n, 1))
    return lhs, ZSpider(r * s, n, m)


def _r_id() -> tuple[Diagram, Diagram]:
    return ZSpider(ONE, 1, 1), Id


def _r_fl() -> tuple[Diagram, Diagram]:
    loop = compose_many([Tensor(Id, Cap), Tensor(Fswap, Id), Tensor(Id, Cup)])
    return loop, _NEG


def _r_ws(n: int, m: int) -> tuple[Diagram, Diagram]:
    lhs = compose_many([WSpider(n, 1), _X, WSpider(1, m)])
    return lhs, WSpider(n, m)


def _r_in() -> tuple[Diagram, Diagram]:
    return Compose(_X, _X), Id


def _r_rm() -> tuple[Diagram, Diagram]:
    return Compose(Fswap, Tensor(ket0, Id)), Tensor(Id, ket0)


def _r_di(n: int, m: int) -> tuple[Diagram, Diagram]:
    lhs = Compose(_nots(m), ZSpider(ONE, n, m))
    rhs = Compose(ZSpider(ONE, n, m), _nots(n))
    return lhs, rhs


def _r_b(n: int, m: int) -> tuple[Diagram, Diagram]:
    lhs = Compose(WSpider(1, m), ZSpider(ONE, n, 1))
    rhs = compose_many(
        [
            tensor_many([WSpider(1, m)] * n),
            block_transpose(n, m),
            tensor_many([ZSpider(ONE, n, 1)] * m),
        ]
    )
    return lhs, rhs


def _b_admit(n: int, m: int) -> "str | None":
    if (n == 0 and m == 0) or n > 0:
        return None
    return "requires either n=m=0 or n>0"


def _r_ho() -> tuple[Diagram, Diagram]:
    lhs = Compose(_W_MERGE, ZSpider(ONE, 1, 2))
    rhs = Compose(WSpider(0, 1), ZSpider(ZERO, 1, 0))
    return lhs, rhs


def _r_ad(r: Scalar, s: Scalar) -> tuple[Diagram, Diagram]:
    lhs = Compose(_W_MERGE, Tensor(ZSpider(r, 0, 1), ZSpider(s, 0, 1)))
    rhs = Compose(_X, ZSpider(r + s, 0, 1))
    return lhs, rhs


def _r_bw() -> tuple[Diagram, Diagram]:
    lhs = Compose(_SHARE, _ADD)
    rhs = compose_many(
        [
            Tensor(_SHARE, _SHARE),
            Tensor(Id, Tensor(Fswap, Id)),
            Tensor(_ADD, _ADD),
        ]
    )
    return lhs, rhs


def _r_fw() -> tuple[Diagram, Diagram]:
    lhs = compose_many(
        [Tensor(Id, _W_SPLIT), Tensor(Fswap, Id), Tensor(Id, Fswap)]
    )
    rhs = Compose(Tensor(_W_SPLIT, _NEG), Fswap)
    return lhs, rhs


def _r_fz() -> tuple[Diagram, Diagram]:
    lhs = Compose(Fswap, ZSpider(ONE, 1, 2))
    rhs = Compose(ZSpider(ONE, 1, 2), _NEG)
    return lhs, rhs


def _r_fi() -> tuple[Diagram, Diagram]:
    return Compose(Fswap, Fswap), id_n(2)


def _r_yb() -> tuple[Diagram, Diagram]:
    low = Tensor(Fswap, Id)
    high = Tensor(Id, Fswap)
    return compose_many([low, high, low]), compose_many([high, low, high])


def _r_fr() -> tuple[Diagram, Diagram]:
    lhs = Compose(Tensor(Fswap, Id), Tensor(Id, Cap))
    rhs = Compose(Tensor(Id, Fswap), Tensor(Cap, Id))
    return lhs, rhs


def _r_fs() -> tuple[Diagram, Diagram]:
    return compose_many([Swap, Fswap, Swap]), Fswap


def _r_nz(r: Scalar, n: int, m: int) -> tuple[Diagram, Diagram]:
    lhs = Compose(_ticks(m), ZSpider(r, n, m))
    rhs = Compose(ZSpider(r.conj(), n, m), _ticks(n))
    return lhs, rhs


def _r_nw(n: int, m: int) -> tuple[Diagram, Diagram]:
    lhs = Compose(_ticks(m), WSpider(n, m))
    rhs = Compose(WSpider(n, m), _ticks(n))
    return lhs, rhs


def _r_nf() -> tuple[Diagram, Diagram]:
    pair = Tensor(Tick, Tick)
    return Compose(pair, Fswap), Compose(Fswap, pair)


def _r_zt(r: Scalar) -> tuple[Diagram, Diagram]:
    return ZSpider(r, 0, 1), _z_state_form(r)


def _r_tl() -> tuple[Diagram, Diagram]:
    return Compose(ticked_cup, Cap), ZSpider(I, 0, 0)


def _r_td(r: Scalar, s: Scalar) -> tuple[Diagram, Diagram]:
    lhs = Tensor(_diag_state(r), _diag_state(s))
    rhs = nf_to_diagram(NormalForm(2, (NFTerm(3, 3, r * s),)))
    return lhs, rhs


def _td_admit(r: Scalar, s: Scalar) -> "str | None":
    if r.is_zero() or s.is_zero():
        return "requires nonzero coefficients"
    if not (r.is_real() and s.is_real()):
        return "requires real coefficients"
    return None


def _r_th(r: Scalar, s: Scalar) -> tuple[Diagram, Diagram]:
    lhs = Tensor(_offdiag_state(r), _offdiag_state(s))
    rhs = nf_to_diagram(
        NormalForm(2, (NFTerm(0, 3, r * s), NFTerm(1, 2, r * s.conj())))
    )
    return lhs, rhs


def _th_admit(r: Scalar, s: Scalar) -> "str | None":
    if r.is_zero() or s.is_zero():
        return "requires nonzero coefficients"
    return None


def _r_snake() -> tuple[Diagram, Diagram]:
    return Compose(Tensor(Cup, Id), Tensor(Id, Cap)), Id


def _r_swap_nat(r: Scalar) -> tuple[Diagram, Diagram]:
    lhs = Compose(Swap, Tensor(ZSpider(r, 1, 1), _X))
    rhs = Compose(Tensor(_X, ZSpider(r, 1, 1)), Swap)
    return lhs, rhs


def _r_flex_z(r: Scalar) -> tuple[Diagram, Diagram]:
    lhs = Compose(Tensor(ZSpider(r, 1, 1), Id), Cap)
    rhs = Compose(Tensor(Id, ZSpider(r, 1, 1)), Cap)
    return lhs, rhs


def _r_flex_w() -> tuple[Diagram, Diagram]:
    return Compose(Tensor(_X, Id), Cap), Compose(Tensor(Id, _X), Cap)


def _r_flex_tick() -> tuple[Diagram, Diagram]:
    return Compose(Tensor(Tick, Id), Cap), Compose(Tensor(Id, Tick), Cap)


def _r_tick_snake() -> tuple[Diagram, Diagram]:
    return Compose(Tensor(ticked_cup, Id), Tensor(Id, ticked_cap)), Id


RULES: tuple[RuleSchema, ...] = (
    RuleSchema("zs", ("r", "s"), ("n", "m"), _r_zs),
    RuleSchema("id", (), (), _r_id),
    RuleSchema("fl", (), (), _r_fl),
    RuleSchema("ws", (), ("n", "m"), _r_ws),
    RuleSchema("in", (), (), _r_in),
    RuleSchema("rm", (), (), _r_rm),
    RuleSchema("di", (), ("n", "m"), _r_di),
    RuleSchema("b", (), ("n", "m"), _r_b, _b_admit),
    RuleSchema("ho", (), (), _r_ho),
    RuleSchema("ad", ("r", "s"), (), _r_ad),
    RuleSchema("bw", (), (), _r_bw),
    RuleSchema("fw", (), (), _r_fw),
    RuleSchema("fz", (), (), _r_fz),
    RuleSchema("fi", (), (), _r_fi),
    RuleSchema("yb", (), (), _r_yb),
    RuleSchema("fr", (), (), _r_fr),
    RuleSchema("fs", (), (), _r_fs),
    RuleSchema("nz", ("r",), ("n", "m"), _r_nz),
    RuleSchema("nw", (), ("n", "m"), _r_nw),
    RuleSchema("nf", (), (), _r_nf),
    RuleSchema("zt", ("r",), (), _r_zt),
    RuleSchema("tl", (), (), _r_tl),
    RuleSchema("th", ("r", "s"), (), _r_th, _th_admit),
    RuleSchema("td", ("r", "s"), (), _r_td, _td_admit),
    RuleSchema("snake", (), (), _r_snake),
    RuleSchema("swap-nat", ("r",), (), _r_swap_nat),
    RuleSchema("flex-z", ("r",), (), _r_flex_z),
    RuleSchema("flex-w", (), (), _r_flex_w),
    RuleSchema("flex-tick", (), (), _r_flex_tick),
    RuleSchema("tick-snake", (), (), _r_tick_snake),
)

RULES_BY_NAME: dict[str, RuleSchema] = {r.name: r for r in RULES}


def rule_named(name: str) -> RuleSchema:
    try:
        return RULES_BY_NAME[name]
    except KeyError:
        raise RuleError(f"unknown rule: {name}") from None


def instantiate(rule: RuleSchema, params: dict) -> tuple[Diagram, Diagram]:
    """Build both sides for one parameter assignment, enforcing side conditions."""
    args = {}
    for p in rule.scalar_params:
        if p not in params:
            raise RuleError(f"rule ({rule.name}): missing scalar parameter {p}")
        v = params[p]
        if not isinstance(v, Scalar):
            raise RuleError(f"rule ({rule.name}): parameter {p} must be a ring scalar")
        args[p] = v
    for p in rule.arity_params:
        if p not in params:
            raise RuleError(f"rule ({rule.name}): missing arity parameter {p}")
        v = params[p]
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= MAX_ARITY:
            raise RuleError(
                f"rule ({rule.name}): arity {p} must be an integer in 0..{MAX_ARITY}"
            )
        args[p] = v
    extra = set(params) - set(args)
    if extra:
        raise RuleError(f"rule ({rule.name}): unexpected parameters {sorted(extra)}")
    if rule.admit is not None:
        why = rule.admit(**args)
        if why is not None:
            raise RuleError(f"rule ({rule.name}): {why}")
    lhs, rhs = rule.build(**args)
    if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
        raise RuleError(f"rule ({rule.name}): sides disagree on arity")
    return lhs, rhs


@dataclass(frozen=True)
class CheckEntry:
    """Outcome of one certified equation instance.

    `seconds` is the wall time of the decision; it is left out of comparisons,
    so equal reports stay equal.  On FAIL, `witness` is the first entry
    (x, y, lhs, rhs) where the normal forms of the two sides differ, or None
    when those normal forms exceed the dense-result guard.
    """

    kind: str
    name: str
    params: tuple[tuple[str, object], ...]
    ok: bool
    seconds: float = field(default=0.0, compare=False)
    witness: "tuple[int, int, Scalar, Scalar] | None" = None

    def line(self) -> str:
        bits = [self.kind, self.name]
        for k, v in self.params:
            bits.append(f"{k}={v}")
        bits.append("PASS" if self.ok else "FAIL")
        return " ".join(bits)

    def as_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            x, y, lhs, rhs = self.witness
            witness = {"x": x, "y": y, "lhs": str(lhs), "rhs": str(rhs)}
        return {
            "kind": self.kind,
            "name": self.name,
            "params": {k: str(v) for k, v in self.params},
            "ok": self.ok,
            "seconds": self.seconds,
            "witness": witness,
        }


@dataclass(frozen=True)
class CheckReport:
    entries: tuple[CheckEntry, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.ok)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_pass(self) -> bool:
        return self.failed == 0

    def lines(self) -> list[str]:
        out = [e.line() for e in self.entries]
        out.append(f"total {self.total} pass {self.passed} fail {self.failed}")
        return out


SCALAR_GRID: tuple[Scalar, ...] = (
    ZERO,
    ONE,
    MINUS_ONE,
    HALF,
    OMEGA,
    Scalar(0, 0, 0, -1),
    Scalar(1, 0, 1, 0),
)


def _seeded_scalars(seed: int, count: int = 2) -> list[Scalar]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coords = [Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(4)]
        out.append(Scalar(*coords))
    return out


def _default_samples(rule: RuleSchema, seed: int) -> list[dict]:
    scalars: Sequence[Scalar] = SCALAR_GRID
    if len(rule.scalar_params) <= 1:
        scalars = tuple(SCALAR_GRID) + tuple(_seeded_scalars(seed))
    arities = range(MAX_ARITY + 1)

    def admissible(p: dict) -> bool:
        if rule.admit is None:
            return True
        return rule.admit(**p) is None

    combos: list[dict] = [{}]
    for p in rule.scalar_params:
        combos = [{**c, p: v} for c in combos for v in scalars]
    for p in rule.arity_params:
        combos = [{**c, p: v} for c in combos for v in arities]
    return [c for c in combos if admissible(c)]


def check_soundness(
    rules: Iterable[RuleSchema] = RULES,
    param_samples: "dict[str, list[dict]] | None" = None,
    seed: int = 0,
) -> CheckReport:
    """Certify every rule instance by exact superoperator equality."""
    entries = []
    for rule in rules:
        samples = (
            param_samples[rule.name]
            if param_samples is not None and rule.name in param_samples
            else _default_samples(rule, seed)
        )
        for params in samples:
            lhs, rhs = instantiate(rule, params)
            keyed = tuple((k, params[k]) for k in (*rule.scalar_params, *rule.arity_params))
            entries.append(_certify("RULE", rule.name, keyed, lhs, rhs))
    return CheckReport(tuple(entries))


def _certify(kind: str, name: str, params: tuple, lhs: Diagram, rhs: Diagram) -> CheckEntry:
    """Decide lhs = rhs with `compare_maps`, timing the decision and any witness."""
    t0 = perf_counter()
    ok, explain = compare_maps(lhs, rhs)
    try:
        witness = None if ok else explain()
    except SemanticsError:
        witness = None
    return CheckEntry(kind, name, params, ok, perf_counter() - t0, witness)


@dataclass(frozen=True)
class EquationCorpusEntry:
    """A concrete named equation with a coarse provenance category."""

    name: str
    lhs: Diagram
    rhs: Diagram
    source: str


def lemma_corpus() -> list[EquationCorpusEntry]:
    mixed_prep = dagger(ground)
    w = OMEGA
    half_nf = NormalForm(
        1, (NFTerm(0, 0, ONE), NFTerm(0, 1, w), NFTerm(1, 1, HALF))
    )
    entries = [
        EquationCorpusEntry("ti", Compose(Tick, Tick), Id, "tick-algebra"),
        EquationCorpusEntry(
            "tick-conjugates-not", compose_many([Tick, _X, Tick]), _X, "tick-algebra"
        ),
        EquationCorpusEntry(
            "tick-conjugates-z-fusion",
            compose_many([Tick, ZSpider(w, 1, 1), Tick, ZSpider(HALF, 1, 1)]),
            ZSpider(HALF * w.conj(), 1, 1),
            "tick-algebra",
        ),
        EquationCorpusEntry(
            "cup-absorbs-tick-pair",
            Compose(Cup, Tensor(Tick, Tick)),
            Cup,
            "tick-algebra",
        ),
        EquationCorpusEntry(
            "snake-right", Compose(Tensor(Cup, Id), Tensor(Id, Cap)), Id, "wire-calculus"
        ),
        EquationCorpusEntry(
            "snake-left", Compose(Tensor(Id, Cup), Tensor(Cap, Id)), Id, "wire-calculus"
        ),
        EquationCorpusEntry(
            "tick-snake-right",
            Compose(Tensor(ticked_cup, Id), Tensor(Id, ticked_cap)),
            Id,
            "tick-algebra",
        ),
        EquationCorpusEntry(
            "tick-snake-left",
            Compose(Tensor(Id, ticked_cup), Tensor(ticked_cap, Id)),
            Id,
            "tick-algebra",
        ),
        EquationCorpusEntry("swap-into-bend", Compose(Swap, Cap), Cap, "wire-calculus"),
        EquationCorpusEntry("bend-into-swap", Compose(Cup, Swap), Cup, "wire-calculus"),
        EquationCorpusEntry(
            "flex-z-on-bend",
            Compose(Tensor(ZSpider(w, 1, 1), Id), Cap),
            Compose(Tensor(Id, ZSpider(w, 1, 1)), Cap),
            "flexsymmetry",
        ),
        EquationCorpusEntry(
            "flex-w-on-bend",
            Compose(Tensor(_X, Id), Cap),
            Compose(Tensor(Id, _X), Cap),
            "flexsymmetry",
        ),
        EquationCorpusEntry(
            "flex-tick-on-bend",
            Compose(Tensor(Tick, Id), Cap),
            Compose(Tensor(Id, Tick), Cap),
            "flexsymmetry",
        ),
        EquationCorpusEntry(
            "flex-crossing-on-bend",
            Compose(Tensor(Fswap, Id), Tensor(Id, Cap)),
            Compose(Tensor(Id, Fswap), Tensor(Cap, Id)),
            "flexsymmetry",
        ),
        EquationCorpusEntry(
            "effect-absorbs-not", Compose(_PLUG, _X), _PLUG, "normal-form"
        ),
        EquationCorpusEntry(
            "effect-absorbs-tick", Compose(_PLUG, Tick), _PLUG, "normal-form"
        ),
        EquationCorpusEntry(
            "effect-kills-mixed-prep",
            Compose(_PLUG, mixed_prep),
            ZSpider(MINUS_ONE, 0, 0),
            "normal-form",
        ),
        EquationCorpusEntry(
            "discard-phase",
            Compose(ground, ZSpider(w, 1, 1)),
            ground,
            "discard-rules",
        ),
        EquationCorpusEntry(
            "discard-state", Compose(ground, ket1), Empty, "discard-rules"
        ),
        EquationCorpusEntry(
            "discard-copy",
            Compose(Tensor(ground, ground), ZSpider(ONE, 1, 2)),
            ground,
            "discard-rules",
        ),
        EquationCorpusEntry(
            "discard-crossing",
            Compose(Tensor(ground, ground), Fswap),
            Tensor(ground, ground),
            "discard-rules",
        ),
        EquationCorpusEntry(
            "discard-not", Compose(ground, _X), ground, "discard-rules"
        ),
        EquationCorpusEntry(
            "discard-tick", Compose(ground, Tick), ground, "discard-rules"
        ),
        EquationCorpusEntry(
            "add-associative",
            Compose(_ADD, Tensor(_ADD, Id)),
            Compose(_ADD, Tensor(Id, _ADD)),
            "hopf-structure",
        ),
        EquationCorpusEntry(
            "add-commutative", Compose(_ADD, Swap), _ADD, "hopf-structure"
        ),
        EquationCorpusEntry(
            "add-unit", Compose(_ADD, Tensor(ket0, Id)), Id, "hopf-structure"
        ),
        EquationCorpusEntry(
            "share-coassociative",
            Compose(Tensor(_SHARE, Id), _SHARE),
            Compose(Tensor(Id, _SHARE), _SHARE),
            "hopf-structure",
        ),
        EquationCorpusEntry(
            "share-counit", Compose(Tensor(bra0, Id), _SHARE), Id, "hopf-structure"
        ),
        EquationCorpusEntry("z-node-bend-up", ZSpider(ONE, 0, 2), Cap, "wire-calculus"),
        EquationCorpusEntry("z-node-bend-down", ZSpider(ONE, 2, 0), Cup, "wire-calculus"),
        EquationCorpusEntry(
            "closed-loop-scalar",
            Compose(Cup, Cap),
            Tensor(ZSpider(I, 0, 0), ZSpider(-I, 0, 0)),
            "wire-calculus",
        ),
        EquationCorpusEntry(
            "crossing-on-bend",
            Compose(Fswap, Cap),
            Compose(Tensor(_NEG, Id), Cap),
            "flexsymmetry",
        ),
        EquationCorpusEntry(
            "not-conjugates-phase",
            compose_many([_X, _NEG, _X]),
            Tensor(ZSpider(Scalar(-2), 0, 0), _NEG),
            "hopf-structure",
        ),
        EquationCorpusEntry(
            "merge-conjugate-branches",
            nf_to_diagram(half_nf, unreduced=True),
            nf_to_diagram(half_nf),
            "normal-form",
        ),
        EquationCorpusEntry(
            "nf-tensor-recompose",
            Tensor(_diag_state(HALF), _diag_state(Scalar(2))),
            nf_to_diagram(NormalForm(2, (NFTerm(3, 3, ONE),))),
            "normal-form",
        ),
        EquationCorpusEntry(
            "nf-tensor-decompose",
            nf_to_diagram(NormalForm(2, (NFTerm(0, 3, w), NFTerm(1, 2, w)))),
            Tensor(_offdiag_state(w), _offdiag_state(ONE)),
            "normal-form",
        ),
    ]
    return entries


def check_corpus() -> CheckReport:
    entries = []
    for e in lemma_corpus():
        entries.append(_certify("LEMMA", e.name, (("source", e.source),), e.lhs, e.rhs))
    return CheckReport(tuple(entries))


def _assoc_key(d: Diagram):
    """Associativity-insensitive shape: chains of the same connective flatten.

    A generator keys as itself.  Each maximal run of `Compose` (or `Tensor`)
    nodes keys as ("compose", operands) (or ("tensor", operands)), the
    operand keys in application order.  Every node is visited once, on an
    explicit stack, so the key is linear in the term at any depth.
    """
    values: list = []
    todo: list = [d]
    while todo:
        t = todo.pop()
        if isinstance(t, tuple):
            tag, count = t
            parts = tuple(values[-count:])
            del values[-count:]
            values.append((tag, parts))
            continue
        if not isinstance(t, (Compose, Tensor)):
            values.append(t)
            continue
        kind = Compose if isinstance(t, Compose) else Tensor
        operands = []
        chain = [t]
        while chain:
            u = chain.pop()
            if not isinstance(u, kind):
                operands.append(u)
            elif kind is Compose:
                chain += (u.after, u.before)
            else:
                chain += (u.right, u.left)
        todo.append(("compose" if kind is Compose else "tensor", len(operands)))
        todo.extend(reversed(operands))
    return values[0]


_STEP_FIELDS = {
    "after": Compose,
    "before": Compose,
    "left": Tensor,
    "right": Tensor,
}


def _walk(d: Diagram, position: Sequence[str]) -> tuple[list, Diagram]:
    """The (node, step) pairs along a path, and the subterm at its end."""
    spine = []
    for step in position:
        want = _STEP_FIELDS.get(step)
        if want is None:
            raise MatchError(f"invalid path step: {step}")
        if not isinstance(d, want):
            found = type(d).__name__ if isinstance(d, (Compose, Tensor)) else print_diagram(d)
            raise MatchError(
                f"path step {step} expects a {want.__name__.lower()} node, found {found}"
            )
        spine.append((d, step))
        d = getattr(d, step)
    return spine, d


def subterm_at(d: Diagram, position: Sequence[str]) -> Diagram:
    return _walk(d, position)[1]


def apply_rule(
    d: Diagram,
    rule: RuleSchema,
    params: dict,
    position: Sequence[str] = (),
    direction: str = "lr",
) -> Diagram:
    """Rewrite the subterm at position by one rule side, up to associativity."""
    if direction not in ("lr", "rl"):
        raise MatchError(f"direction must be 'lr' or 'rl', got {direction!r}")
    lhs, rhs = instantiate(rule, params)
    src, dst = (lhs, rhs) if direction == "lr" else (rhs, lhs)
    spine, sub = _walk(d, position)
    if _assoc_key(sub) != _assoc_key(src):
        raise MatchError(
            f"no match for rule ({rule.name}) at position {tuple(position)}: "
            f"expected {print_diagram(src)}, found {print_diagram(sub)}"
        )
    # Rebuild each node on the path from the bottom up.
    for node, step in reversed(spine):
        dst = replace(node, **{step: dst})
    return dst
