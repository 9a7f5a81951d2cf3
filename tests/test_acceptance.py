"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every check is exact unless the guarantee itself is stated with a float
tolerance.  All randomness is seeded, so the gate is deterministic.
"""

from __future__ import annotations

import random
import time

import numpy as np

from zwtick import (
    HALF,
    MINUS_ONE,
    OMEGA,
    ONE,
    RULES,
    SQRT2,
    ZERO,
    Compose,
    I,
    Matrix,
    NFTerm,
    NormalForm,
    RuleError,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    apply_rule,
    apply_superop,
    bloch,
    bra0,
    bra1,
    check_corpus,
    check_soundness,
    choi,
    diagrams_equal,
    format_scalar,
    ground,
    hp,
    id_n,
    instantiate,
    internal_dagger,
    interp,
    iota,
    is_completely_positive,
    is_hermiticity_preserving,
    is_unitary_semantic,
    ket0,
    min_pt_eigenvalue,
    nf_from_matrix,
    nf_to_diagram,
    nf_to_matrix,
    not_gate,
    partial_transpose,
    ppt_check,
    psi,
    sesqui_pairing,
    spin_flip,
    spin_flip_diagram,
    state_operator,
    unzip,
)
from _support import (
    mat_dagger,
    mat_mul,
    random_hermitian,
    random_nf,
    random_qubit_density,
    random_separable,
    random_state,
    random_term,
)

SEED = 0

SCALAR_GRID = ("0", "1", "-1", "1/2", "w", "-w^3", "1+w^2")


def _verdict(num: int, label: str, failures: list[str]) -> None:
    print(f"C{num:02d} {label}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"C{num:02d} {label}: " + "; ".join(failures[:5])


def test_c01_axiom_soundness_grid():
    start = time.monotonic()
    report = check_soundness(seed=SEED)
    elapsed = time.monotonic() - start
    failures = [e.line() for e in report.entries if not e.ok]
    schemas = {e.name for e in report.entries}
    if len(schemas) < len(RULES):
        failures.append(f"only {len(schemas)} schemas certified")
    seen_r = {
        format_scalar(v)
        for e in report.entries
        if e.name == "zs"
        for k, v in e.params
        if k == "r"
    }
    if seen_r != set(SCALAR_GRID):
        failures.append(f"scalar grid mismatch: {sorted(seen_r)}")
    seen_n = {v for e in report.entries if e.name == "zs" for k, v in e.params if k == "n"}
    if seen_n != {0, 1, 2, 3}:
        failures.append(f"arity grid mismatch: {sorted(seen_n)}")
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s")
    _verdict(1, "axiom soundness grid", failures)


def test_c02_lemma_corpus():
    start = time.monotonic()
    report = check_corpus()
    elapsed = time.monotonic() - start
    failures = [e.line() for e in report.entries if not e.ok]
    if report.total < 30:
        failures.append(f"corpus has only {report.total} lemmas")
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s")
    _verdict(2, "lemma corpus", failures)


def test_c03_doubling_law():
    rng = random.Random(SEED)
    failures = []
    for i in range(200):
        d = random_term(rng, max_wires=3, max_gens=6, allow_tick=False)
        rho = random_hermitian(rng, d.n_in)
        a = interp(d)
        want = mat_mul(mat_mul(a, rho), mat_dagger(a))
        if apply_superop(d, rho) != want:
            failures.append(f"sample {i} disagrees with conjugation oracle")
    _verdict(3, "doubling law", failures)


def test_c04_tick_is_partial_transpose():
    rng = random.Random(SEED)
    d = Tensor(Tick, id_n(1))
    failures = []
    for i in range(100):
        rho = random_hermitian(rng, 2)
        if apply_superop(d, rho) != partial_transpose(rho, 1):
            failures.append(f"sample {i} disagrees with index oracle")
    _verdict(4, "tick acts as partial transpose", failures)


def test_c05_superoperator_routes_agree():
    rng = random.Random(SEED)
    failures = []
    for i in range(100):
        d = random_term(rng, max_wires=3)
        lhs = interp(iota(hp(d)))
        rhs = interp(iota(psi(unzip(d), d.n_in, d.n_out)))
        if lhs != rhs:
            failures.append(f"sample {i}: marked routes disagree")
    _verdict(5, "superoperator routes agree", failures)


def test_c06_normal_form_round_trip():
    rng = random.Random(SEED)
    cases = [
        Matrix.zeros(4, 4),
        Matrix([[ONE, OMEGA], [OMEGA.conj(), MINUS_ONE + MINUS_ONE]]),
    ]
    for _ in range(100):
        cases.append(random_hermitian(rng, rng.randint(0, 3)))
    failures = []
    for i, h in enumerate(cases):
        if state_operator(nf_to_diagram(nf_from_matrix(h))) != h:
            failures.append(f"matrix {i} ({h.rows}x{h.cols}) does not round trip")
    _verdict(6, "normal form round trip", failures)


def test_c07_states_are_hermitian():
    rng = random.Random(SEED)
    failures = []
    for i in range(200):
        m = state_operator(random_state(rng, max_wires=3))
        if m != mat_dagger(m):
            failures.append(f"sample {i} is not Hermitian")
    _verdict(7, "states are Hermitian", failures)


_REWRITE_SCALARS = (
    ZERO,
    ONE,
    MINUS_ONE,
    HALF,
    OMEGA,
    MINUS_ONE * (OMEGA * OMEGA * OMEGA),
    ONE + OMEGA * OMEGA,
)


def _rule_instance(rng):
    """Random admissible rule instance with a small-arity source side."""
    while True:
        rule = rng.choice(RULES)
        params: dict = {}
        for p in rule.scalar_params:
            params[p] = rng.choice(_REWRITE_SCALARS)
        for p in rule.arity_params:
            params[p] = rng.randint(0, 2)
        try:
            lhs, rhs = instantiate(rule, params)
        except RuleError:
            continue
        if lhs.n_in + lhs.n_out <= 4:
            return rule, params, lhs, rhs


def _rewrite_pair(rng):
    """Term with embedded redexes, and the result of rewriting each one."""
    goal = rng.randint(1, 5)
    redexes = []
    total_in = total_out = 0
    while len(redexes) < goal:
        rule, params, lhs, rhs = _rule_instance(rng)
        direction = rng.choice(("lr", "rl"))
        src = lhs if direction == "lr" else rhs
        if total_in + src.n_in > 3 or total_out + src.n_out > 3:
            if redexes:
                break
            continue
        redexes.append((rule, params, direction, src))
        total_in += src.n_in
        total_out += src.n_out
    d = redexes[0][3]
    paths = [()]
    for _, _, _, src in redexes[1:]:
        d = Tensor(d, src)
        paths = [("left",) + p for p in paths] + [("right",)]
    prefix = ()
    roll = rng.random()
    if roll < 0.3:
        d = Compose(id_n(d.n_out), d)
        prefix = ("before",)
    elif roll < 0.6 and d.n_in > 0:
        d = Compose(d, id_n(d.n_in))
        prefix = ("after",)
    out = d
    for (rule, params, direction, _), path in zip(redexes, paths):
        out = apply_rule(out, rule, params, prefix + path, direction)
    return d, out


def test_c08_equality_decision():
    rng = random.Random(SEED)
    failures = []
    for i in range(100):
        d, rewritten = _rewrite_pair(rng)
        if not diagrams_equal(d, rewritten):
            failures.append(f"rewrite pair {i} judged unequal")
    for i in range(100):
        while True:
            d1 = random_term(rng, max_wires=2)
            d2 = random_term(rng, max_wires=2, n_in=d1.n_in)
            if d2.n_out == d1.n_out and choi(d1) != choi(d2):
                break
        if diagrams_equal(d1, d2):
            failures.append(f"distinct pair {i} judged equal")
    _verdict(8, "equality decision", failures)


def _output_layer(op, k: int, n: int):
    """`op` applied at output position k of an n-output state, identities elsewhere."""
    t = op
    if k:
        t = Tensor(id_n(k), t)
    rest = n - k - op.n_in
    if rest:
        t = Tensor(t, id_n(rest))
    return t


def _insert_bit(v: int, pos: int, b: int) -> int:
    high = v >> pos
    low = v & ((1 << pos) - 1)
    return (high << (pos + 1)) | (b << pos) | low


def test_c09_normal_form_output_lemmas():
    rng = random.Random(SEED)
    failures = []
    for i in range(50):
        nf = random_nf(rng, rng.randint(1, 3))
        n = nf.qubits
        k = rng.randrange(n)
        mask = 1 << (n - 1 - k)
        m = nf_to_matrix(nf).data
        dim = 1 << n
        got = state_operator(Compose(_output_layer(not_gate, k, n), nf_to_diagram(nf)))
        want = Matrix(
            [[m[r ^ mask][c ^ mask] for c in range(dim)] for r in range(dim)]
        )
        if got != want:
            failures.append(f"negation {i}: semantics disagree")
            continue
        flipped = []
        for t in nf.terms:
            x, y = t.x ^ mask, t.y ^ mask
            flipped.append(NFTerm(x, y, t.coeff) if x <= y else NFTerm(y, x, t.coeff.conj()))
        flipped.sort(key=lambda t: (t.x, t.y))
        if nf_from_matrix(got) != NormalForm(n, tuple(flipped)):
            failures.append(f"negation {i}: complemented terms disagree")
    for i in range(50):
        nf = random_nf(rng, rng.randint(1, 3))
        n = nf.qubits
        k = rng.randrange(n)
        b = rng.randint(0, 1)
        op = bra0 if b == 0 else bra1
        m = nf_to_matrix(nf).data
        pos = n - 1 - k
        dim = 1 << (n - 1)
        got = state_operator(Compose(_output_layer(op, k, n), nf_to_diagram(nf)))
        want = Matrix(
            [
                [m[_insert_bit(r, pos, b)][_insert_bit(c, pos, b)] for c in range(dim)]
                for r in range(dim)
            ]
        )
        if got != want:
            failures.append(f"projection {i}: semantics disagree")
        elif state_operator(nf_to_diagram(nf_from_matrix(got))) != got:
            failures.append(f"projection {i}: result not normalizable")
    for i in range(50):
        nf = random_nf(rng, rng.randint(2, 3))
        n = nf.qubits
        k = rng.randrange(n - 1)
        layer = _output_layer(WSpider(2, 1), k, n)
        m = nf_to_matrix(nf)
        a = interp(layer)
        got = state_operator(Compose(layer, nf_to_diagram(nf)))
        if got != mat_mul(mat_mul(a, m), mat_dagger(a)):
            failures.append(f"merge {i}: semantics disagree")
        elif state_operator(nf_to_diagram(nf_from_matrix(got))) != got:
            failures.append(f"merge {i}: result not normalizable")
    _verdict(9, "normal form output lemmas", failures)


def test_c10_cp_classification():
    rng = random.Random(SEED)
    failures = []
    if is_completely_positive(ground) is not True:
        failures.append("discard not judged CP")
    if is_hermiticity_preserving(Tick) is not True:
        failures.append("transpose not judged HP")
    if is_completely_positive(Tick) is not False:
        failures.append("transpose judged CP")
    if choi(Tick) != interp(Swap):
        failures.append("transpose Choi operator is not the wire swap")
    eigs = np.linalg.eigvalsh(choi(Tick).to_numpy())
    if abs(eigs.min() + 1.0) > 1e-9:
        failures.append(f"transpose Choi min eigenvalue {eigs.min()}")
    for i in range(50):
        d = random_term(rng, max_wires=3, allow_tick=False)
        if is_completely_positive(d) is not True:
            failures.append(f"doubled sample {i} not judged CP")
        if is_hermiticity_preserving(d) is not True:
            failures.append(f"doubled sample {i} not judged HP")
    for i in range(50):
        d = random_term(rng, max_wires=3)
        if is_hermiticity_preserving(d) is not True:
            failures.append(f"ticked sample {i} not judged HP")
    _verdict(10, "CP classification", failures)


def test_c11_ppt_criterion():
    rng = random.Random(SEED)
    failures = []
    bell = Matrix(
        [[ONE if r in (0, 3) and c in (0, 3) else ZERO for c in range(4)] for r in range(4)]
    )
    if ppt_check(bell, 1) is not False:
        failures.append("Bell projector passed")
    if abs(min_pt_eigenvalue(bell, 1) + 1.0) > 1e-9:
        failures.append(f"Bell min eigenvalue {min_pt_eigenvalue(bell, 1)}")
    for i in range(50):
        if ppt_check(random_separable(rng), 1) is not True:
            failures.append(f"separable mixture {i} failed")
    _verdict(11, "PPT criterion", failures)


def test_c12_spin_flip():
    rng = random.Random(SEED)
    y = Matrix([[ZERO, MINUS_ONE * I], [I, ZERO]])
    failures = []
    for i in range(50):
        rho = random_qubit_density(rng)
        flipped = spin_flip(rho)
        b = bloch(rho)
        if bloch(flipped) != b.negate():
            failures.append(f"sample {i}: Bloch vector not negated")
        transpose = Matrix([[rho[c, r] for c in range(2)] for r in range(2)])
        if flipped != mat_mul(mat_mul(y, transpose), y):
            failures.append(f"sample {i}: disagrees with conjugation oracle")
        if apply_superop(spin_flip_diagram, rho) != flipped:
            failures.append(f"sample {i}: diagram route disagrees")
    _verdict(12, "spin flip", failures)


def test_c13_pairing_and_internal_dagger():
    rng = random.Random(SEED)
    failures = []
    plus_i = Tensor(ZSpider(HALF * SQRT2 - ONE, 0, 0), ZSpider(I, 0, 1))
    if sesqui_pairing(plus_i, plus_i, ticked=False) != ZERO:
        failures.append("plain self-pairing of the i-state is not 0")
    if sesqui_pairing(plus_i, plus_i, ticked=True) != ONE:
        failures.append("ticked self-pairing of the i-state is not 1")
    maps = [Tick, not_gate, ZSpider(HALF, 1, 1), spin_flip_diagram, Compose(not_gate, Tick)]
    for i in range(50):
        f = rng.choice(maps)
        x = random_state(rng, max_wires=1, allow_tick=False, n_out=1)
        s = random_state(rng, max_wires=1, allow_tick=False, n_out=1)
        lhs = sesqui_pairing(Compose(internal_dagger(f), x), s, ticked=True)
        rhs = sesqui_pairing(x, Compose(f, s), ticked=True)
        if lhs != rhs:
            failures.append(f"sample {i}: adjoint property fails")
    if is_unitary_semantic(WSpider(1, 1)) is not True:
        failures.append("bit flip not judged unitary")
    if is_unitary_semantic(Compose(ket0, ground)) is not False:
        failures.append("traced term judged unitary")
    _verdict(13, "pairing and internal dagger", failures)
