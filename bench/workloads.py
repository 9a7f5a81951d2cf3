"""Seeded inputs and checked operations for the three benchmark workloads.

A workload is a sequence of *cycles*.  A cycle is a fixed mix of op kinds:
the sizes and term counts of each kind are fixed, while values, positions
and order come from the seed.  Any whole number of cycles therefore has the
same composition, so throughput and latency quantiles do not drift with the
seed, yet each seed gives different inputs.

An op is ``Op(kind, args, expected)``.  `run_op` makes the library calls a
user would make and compares the result with ``expected``, which is built
together with the input and never taken from the call being timed.  The
library is reached through module attributes at call time (``zw.<name>``),
so wrappers installed by `tracing` see every call.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import zwtick as zw

WORKLOADS = ("nf_roundtrip", "certify", "verdicts")


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expected: Any


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{part}")


def _small_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        if q or not nonzero:
            return q


def _scalar(rng: random.Random) -> "zw.Scalar":
    """Nonzero element of Q(w) with small rational coordinates."""
    while True:
        coords = [_small_rational(rng) if rng.random() < 0.6 else 0 for _ in range(4)]
        s = zw.Scalar(*coords)
        if not s.is_zero():
            return s


def _real_scalar(rng: random.Random) -> "zw.Scalar":
    """Nonzero real element p + q*sqrt(2) of Q(w)."""
    p = _small_rational(rng, nonzero=True)
    q = _small_rational(rng) if rng.random() < 0.3 else Fraction(0)
    return zw.Scalar(p, q, 0, -q)


# -- nf_roundtrip ----------------------------------------------------------

#: (qubits, nonzero upper-triangle entries, ops per cycle).  The 3-qubit
#: 20-entry matrices are the dense case; the 4-qubit ones are sparse.  A
#: dense 4-qubit matrix takes over a minute per op on a 2-vCPU cloud VM,
#: so it is left out.
#: The counts put the median inside the 2-qubit 10-entry class and the 90th
#: percentile inside the dense 3-qubit class, with enough dense ops in a run
#: (18 in three cycles) that pauses of the garbage collector, which land on
#: random ops, average out.
NF_CYCLE = (
    (1, 3, 10),
    (2, 5, 6),
    (2, 10, 8),
    (3, 6, 9),
    (3, 20, 6),
    (4, 8, 1),
)
#: Candidate placements drawn per matrix; see `hermitian`.
PLACEMENT_DRAWS = 200


def _sizes(cells: list, qubits: int) -> list[float]:
    """Sorted log2 sizes of the doubled gathers that the entries `cells` need.

    In the normal-form diagram, entry (x, y) sends x_k + y_k legs into the
    gather of qubit k, and the doubled gathers of one entry are evaluated as
    one Kronecker product with about prod_k (2 + x_k + y_k)^2 entries.  That
    product sets the op's time and, through its largest instance, its peak
    memory.
    """
    out = []
    for x, y in cells:
        size = 0.0
        for k in range(qubits):
            size += 2.0 * math.log2(2 + (x >> k & 1) + (y >> k & 1))
        out.append(size)
    return sorted(out)


@functools.lru_cache(maxsize=None)
def _typical_sizes(qubits: int, entries: int) -> tuple[float, ...]:
    """Mean sorted size profile of uniformly random placements."""
    dim = 1 << qubits
    upper = [(x, y) for x in range(dim) for y in range(x, dim)]
    rng = random.Random(f"sizes:{qubits}:{entries}")
    draws = [_sizes(rng.sample(upper, entries), qubits) for _ in range(PLACEMENT_DRAWS)]
    return tuple(sum(col) / len(draws) for col in zip(*draws))


def hermitian(rng: random.Random, qubits: int, entries: int) -> "zw.Matrix":
    """Exact Hermitian matrix with exactly `entries` nonzero upper entries.

    Where the entries sit sets the op's cost (see `_sizes`): on 4 qubits
    one placement can need half again the memory of another.  Of several
    random placements the one whose size profile is closest to the mean
    profile is kept, so ops of one class cost about the same whatever the
    seed.
    """
    dim = 1 << qubits
    upper = [(x, y) for x in range(dim) for y in range(x, dim)]
    typical = _typical_sizes(qubits, entries)

    def distance(cells: list) -> float:
        return sum(abs(a - b) for a, b in zip(_sizes(cells, qubits), typical))

    cells = min((rng.sample(upper, entries) for _ in range(PLACEMENT_DRAWS)), key=distance)
    data = [[zw.ZERO] * dim for _ in range(dim)]
    for x, y in cells:
        if x == y:
            data[x][x] = _real_scalar(rng)
        else:
            c = _scalar(rng)
            data[x][y] = c
            data[y][x] = c.conj()
    return zw.Matrix(data)


def _nf_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for qubits, entries, count in NF_CYCLE:
        for _ in range(count):
            m = hermitian(rng, qubits, entries)
            ops.append(Op(f"nf.q{qubits}e{entries}", (m,), m))
    rng.shuffle(ops)
    # The 4-qubit op sets the memory peak, on top of caches that grow op by
    # op; running it last in every cycle puts the peak at the same point of
    # every run.
    ops.sort(key=lambda op: op.kind.startswith("nf.q4"))
    return ops


def _run_nf(m: "zw.Matrix") -> "zw.Matrix":
    return zw.state_operator(zw.nf_to_diagram(zw.nf_from_matrix(m)))


# -- certify ---------------------------------------------------------------

MAX_ARITY = 3
#: The fixed part of the certification grid: 0, 1, -1, 1/2, w, -w^3, 1+w^2.
SCALAR_GRID = ((0,), (1,), (-1,), (Fraction(1, 2),), (0, 1), (0, 0, 0, -1), (1, 0, 1))
LEMMA_COUNT = 36


def _seeded_scalars(seed: int, count: int = 2) -> list["zw.Scalar"]:
    rng = random.Random(seed)
    return [
        zw.Scalar(*(Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(4)))
        for _ in range(count)
    ]


def rule_grid(seed: int) -> list[tuple[Any, dict]]:
    """Every admissible (rule, params) of the seed's certification grid.

    Rules with at most one scalar parameter also take two seeded scalars;
    arity parameters range over 0..3.  The grid has 1,128 instances.
    """
    fixed = [zw.Scalar(*c) for c in SCALAR_GRID]
    seeded = _seeded_scalars(seed)
    out = []
    for rule in zw.RULES:
        scalars = fixed + seeded if len(rule.scalar_params) <= 1 else fixed
        combos: list[dict] = [{}]
        for p in rule.scalar_params:
            combos = [{**c, p: v} for c in combos for v in scalars]
        for p in rule.arity_params:
            combos = [{**c, p: v} for c in combos for v in range(MAX_ARITY + 1)]
        for params in combos:
            if rule.admit is None or rule.admit(**params) is None:
                out.append((rule, params))
    return out


def _certify_cycle(rng: random.Random, grid: list) -> list[Op]:
    ops = [Op("certify.rule", (rule, params), rule.name) for rule, params in grid]
    ops.append(Op("certify.corpus", (), LEMMA_COUNT))
    rng.shuffle(ops)
    return ops


def _run_rule(rule, params: dict, seed: int) -> Any:
    return zw.check_soundness([rule], param_samples={rule.name: [params]}, seed=seed)


def _rule_ok(report, name: str) -> bool:
    return report.total == 1 and report.all_pass and report.entries[0].name == name


def _corpus_ok(report, count: int) -> bool:
    return report.total == count and report.all_pass


# -- verdicts --------------------------------------------------------------
#
# Terms are written as text and built from layers of gadgets.  The expected
# verdicts follow from the construction:
#   equality: P.g.Q against P.Q, where P and Q are invertible superoperators,
#     is an equation exactly when g is the identity superoperator;
#   CP: a tick-free term is CP (so are ticks inside discard-and-prepare or
#     cancelling pairs); a unitary circuit with exactly one tick is not;
#   PPT: separable mixtures are PPT; a Werner state with weight p on the
#     singlet is PPT across a cut through it exactly when p <= 1/3.

_PHASES = ("1", "-1", "w", "w^2", "w^3", "-w", "-w^2", "-w^3")
_INVERSE_PAIRS = (("2", "1/2"), ("w", "-w^3"), ("w^2", "-w^2"), ("-1/2", "-2"), ("w^3", "-w"))
_UNIT_SHIFTS = ("0", "-2", "-1+w", "-1+w^2", "-1-w^3", "-1-w")
_NON_UNIT_SHIFTS = ("1", "-1/2", "w", "2", "1/2w^3")
_NONZERO = ("2", "-1/2", "1+w", "w^2", "1/3-w", "-1", "1/2+w^3")


def _one_wire_unitary(rng: random.Random) -> str:
    return rng.choice(("(id 1)", "(w 1 1)", f"(z {rng.choice(_PHASES)} 1 1)"))


def _one_wire_invertible(rng: random.Random) -> str:
    return rng.choice(("(w 1 1)", "tick", f"(z {rng.choice(_NONZERO)} 1 1)", "(id 1)"))


def _one_wire_cp(rng: random.Random) -> str:
    r = rng.choice(_NONZERO + ("0",))
    return rng.choice(
        (f"(z {r} 1 1)", "(w 1 1)", "(compose ket0 ground)", "(compose tick tick)", "(id 1)")
    )


def _two_wire_cp(rng: random.Random) -> str:
    r = rng.choice(_NONZERO)
    return rng.choice(
        ("swap", "fswap", f"(z {r} 2 2)", "(w 2 2)", "(compose (w 1 2) (w 2 1))", "(compose cap cup)")
    )


def _layer(rng: random.Random, wires: int, one: Callable, two: "Callable | None") -> list[str]:
    """Gadgets covering `wires` wires left to right."""
    parts: list[str] = []
    left = wires
    while left:
        if two is not None and left >= 2 and rng.random() < 0.4:
            parts.append(two(rng))
            left -= 2
        else:
            parts.append(one(rng))
            left -= 1
    return parts


def _tensor(parts: list[str]) -> str:
    text = parts[-1]
    for p in reversed(parts[:-1]):
        text = f"(tensor {p} {text})"
    return text


def _chain(layers: list[str]) -> str:
    """Compose layers listed in application order."""
    text = layers[0]
    for layer in layers[1:]:
        text = f"(compose {layer} {text})"
    return text


def _invertible_layers(rng: random.Random, wires: int, count: int) -> list[str]:
    two = (lambda r: r.choice(("swap", "fswap"))) if wires >= 2 else None
    return [_tensor(_layer(rng, wires, _one_wire_invertible, two)) for _ in range(count)]


def _gadget_layer(rng: random.Random, wires: int, equal: bool) -> str:
    """A layer that is the identity superoperator exactly when `equal`."""
    if rng.random() < 0.2:
        # The 0 -> 0 spider (z c 0 0) is the scalar 1 + c.
        c = rng.choice(_UNIT_SHIFTS) if equal else rng.choice(_NON_UNIT_SHIFTS)
        return _tensor([f"(z {c} 0 0)", f"(id {wires})"])
    if wires >= 2 and rng.random() < 0.3:
        g = rng.choice(("swap", "fswap"))
        gadget, width = (f"(compose {g} {g})" if equal else g), 2
    else:
        if equal:
            r, rinv = rng.choice(_INVERSE_PAIRS)
            gadget = rng.choice(
                ("(compose tick tick)", "(compose (w 1 1) (w 1 1))",
                 f"(compose (z {r} 1 1) (z {rinv} 1 1))", "(z 1 1 1)")
            )
        else:
            gadget = rng.choice(("tick", "(w 1 1)", f"(z {rng.choice(_NONZERO[:-2])} 1 1)"))
        width = 1
    at = rng.randint(0, wires - width)
    parts = [f"(id {at})"] if at else []
    parts.append(gadget)
    if wires - width - at:
        parts.append(f"(id {wires - width - at})")
    return _tensor(parts)


def equality_pair(rng: random.Random, wires: int, equal: bool) -> tuple[str, str]:
    """Two term texts on `wires` boundary wires (1->1, 1->2 or 2->2)."""
    if wires == 3:
        # Q on one wire, an injective copy, then P on two wires; the gadget
        # goes into Q, where the rest of the term is left-cancellable.
        q = _invertible_layers(rng, 1, EQ_LAYERS // 2)
        p = _invertible_layers(rng, 2, EQ_LAYERS // 2)
        at = rng.randint(0, len(q))
        g = _gadget_layer(rng, 1, equal)
        a = _chain(q + ["(z 1 1 2)"] + p)
        b = _chain(q[:at] + [g] + q[at:] + ["(z 1 1 2)"] + p)
    else:
        k = wires // 2
        layers = _invertible_layers(rng, k, EQ_LAYERS)
        at = rng.randint(0, len(layers))
        a = _chain(layers)
        b = _chain(layers[:at] + [_gadget_layer(rng, k, equal)] + layers[at:])
    return (a, b) if rng.random() < 0.5 else (b, a)


def cp_term(rng: random.Random, wires: int, cp: bool) -> str:
    """A `wires` -> `wires` term that is completely positive exactly when `cp`."""
    if cp:
        layers = [_tensor(_layer(rng, wires, _one_wire_cp, _two_wire_cp)) for _ in range(CP_LAYERS)]
        return _chain(layers)
    two = (lambda r: r.choice(("swap", "fswap"))) if wires >= 2 else None
    layers = [_tensor(_layer(rng, wires, _one_wire_unitary, two)) for _ in range(CP_LAYERS - 1)]
    ticked = [_one_wire_unitary(rng) for _ in range(wires)]
    ticked[rng.randrange(wires)] = "tick"
    layers.insert(rng.randint(0, len(layers)), _tensor(ticked))
    return _chain(layers)


def _kron(a: list[list], b: list[list]) -> list[list]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _mix(weights: list[Fraction], mats: list[list[list]]) -> "zw.Matrix":
    total = sum(weights)
    dim = len(mats[0])
    acc = [[zw.ZERO] * dim for _ in range(dim)]
    for w, m in zip(weights, mats):
        c = zw.Scalar(w / total)
        for i in range(dim):
            for j in range(dim):
                acc[i][j] = acc[i][j] + c * m[i][j]
    return zw.Matrix(acc)


def qubit_density(rng: random.Random) -> list[list]:
    """Exact density of a rational point inside the Bloch ball."""
    while True:
        rx, ry, rz = (Fraction(rng.randint(-4, 4), rng.randint(5, 9)) for _ in range(3))
        if rx * rx + ry * ry + rz * rz <= 1:
            break
    h = Fraction(1, 2)
    off = zw.Scalar(rx * h, 0, -ry * h)
    return [[zw.Scalar(h + h * rz), off], [off.conj(), zw.Scalar(h - h * rz)]]


def werner(p: Fraction) -> list[list]:
    """p |singlet><singlet| + (1 - p) I/4."""
    q = (1 - p) / 4
    m = [[zw.Scalar(q if i == j else 0) for j in range(4)] for i in range(4)]
    for i, j, v in ((1, 1, 1), (2, 2, 1), (1, 2, -1), (2, 1, -1)):
        m[i][j] = m[i][j] + zw.Scalar(p * v / 2)
    return m


_WERNER_PPT = (Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))
_WERNER_NPT = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))


def separable(rng: random.Random, parties: int) -> "zw.Matrix":
    mats = []
    for _ in range(rng.randint(2, 4)):
        m = qubit_density(rng)
        for _ in range(parties - 1):
            m = _kron(m, qubit_density(rng))
        mats.append(m)
    return _mix([Fraction(rng.randint(1, 5)) for _ in mats], mats)


def ppt_case(rng: random.Random, qubits: int, variant: int) -> tuple["zw.Matrix", int, bool]:
    """A state, a cut, and whether the state is PPT across the cut."""
    if qubits == 2:
        if variant % 3 == 0:
            return separable(rng, 2), 1, True
        ppt = variant % 3 == 2
        return zw.Matrix(werner(rng.choice(_WERNER_PPT if ppt else _WERNER_NPT))), 1, ppt
    if variant % 3 == 0:
        return separable(rng, 3), rng.choice((1, 2)), True
    p = rng.choice(_WERNER_PPT + _WERNER_NPT)
    rho = zw.Matrix(_kron(werner(p), qubit_density(rng)))
    if variant % 3 == 1:
        return rho, 1, p <= Fraction(1, 3)
    # The cut 01|2 misses the Werner pair, whatever its weight.
    return rho, 2, True


#: (kind, size, ops per cycle).  Equality sizes are boundary wires; CP sizes
#: are k for a k -> k map (Choi dimension 4^k); PPT sizes are qubits.  The
#: counts put the median among the cheap ops (exact dimension-4 PPT tests,
#: 2-wire equalities) and the 90th percentile inside the 4-wire equalities.
VERDICT_CYCLE = (
    ("ppt", 3, 3),
    ("cp", 1, 2),
    ("eq", 2, 3),
    ("ppt", 2, 6),
    ("eq", 3, 2),
    ("cp", 2, 2),
    ("eq", 4, 3),
    ("cp", 3, 1),
)
EQ_LAYERS = 6
CP_LAYERS = 4


def _verdict_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for kind, size, count in VERDICT_CYCLE:
        for i in range(count):
            want = i % 2 == 0
            if kind == "eq":
                ops.append(Op(f"eq.w{size}", equality_pair(rng, size, want), want))
            elif kind == "cp":
                ops.append(Op(f"cp.k{size}", (zw.parse_diagram(cp_term(rng, size, want)),), want))
            else:
                rho, cut, ppt = ppt_case(rng, size, i)
                ops.append(Op(f"ppt.q{size}", (rho, cut), ppt))
    rng.shuffle(ops)
    return ops


def _run_eq(text_a: str, text_b: str) -> bool:
    return zw.diagrams_equal(zw.parse_diagram(text_a), zw.parse_diagram(text_b))


# -- dispatch --------------------------------------------------------------


class Workload:
    """The seeded op stream of one workload; cycle k is built on first use."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self._grid = rule_grid(seed) if name == "certify" else None
        self._cycles: list[list[Op]] = []

    def cycle(self, k: int) -> list[Op]:
        while len(self._cycles) <= k:
            rng = _rng(self.name, self.seed, str(len(self._cycles)))
            if self.name == "nf_roundtrip":
                ops = _nf_cycle(rng)
            elif self.name == "certify":
                ops = _certify_cycle(rng, self._grid)
            else:
                ops = _verdict_cycle(rng)
            self._cycles.append(ops)
        return self._cycles[k]

    def run_op(self, op: Op) -> tuple[bool, Any]:
        """Run one op; return (output is correct, output)."""
        if op.kind.startswith("nf."):
            out = _run_nf(*op.args)
            return out == op.expected, out
        if op.kind == "certify.rule":
            out = _run_rule(*op.args, self.seed)
            return _rule_ok(out, op.expected), out
        if op.kind == "certify.corpus":
            out = zw.check_corpus()
            return _corpus_ok(out, op.expected), out
        if op.kind.startswith("eq."):
            out = _run_eq(*op.args)
        elif op.kind.startswith("cp."):
            out = zw.is_completely_positive(*op.args)
        else:
            out = zw.ppt_check(*op.args)
        return out is op.expected, out
