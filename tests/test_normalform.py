"""Normal forms: extraction, rebuild fidelity, canonicity, and text form."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import zwtick.normalform
from zwtick import (
    Cap,
    Compose,
    HALF,
    I,
    Id,
    MINUS_ONE,
    Matrix,
    NFTerm,
    NormalForm,
    NormalFormError,
    OMEGA,
    ONE,
    RULES,
    Scalar,
    SemanticsError,
    Tensor,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    bend_inputs,
    canonical_of_map,
    choi,
    dagger,
    diagrams_equal,
    first_difference,
    format_nf,
    ground,
    has_tick,
    id_n,
    instantiate,
    interp,
    lemma_corpus,
    nf_from_matrix,
    nf_of_diagram,
    nf_to_diagram,
    nf_to_matrix,
    parse_nf,
    state_operator,
    subdiagrams,
)
from zwtick import Swap, program
from zwtick.diagram import flatten, fold
from zwtick.normalform import compare_maps
from zwtick.semantics import _bend_flat
from zwtick.rules import _default_samples

from _support import mat_kron, random_hermitian, random_nf, random_state, random_term


class TestExtraction:
    def test_pauli_y(self):
        y = Matrix([[ZERO, -I], [I, ZERO]])
        assert nf_from_matrix(y) == NormalForm(1, (NFTerm(0, 1, -I),))

    def test_zero_matrix(self):
        assert nf_from_matrix(Matrix.zeros(4, 4)) == NormalForm(2, ())

    def test_scalar_case(self):
        assert nf_from_matrix(Matrix([[Scalar(3)]])) == NormalForm(
            0, (NFTerm(0, 0, Scalar(3)),)
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NormalFormError):
            nf_from_matrix(Matrix([[ZERO, ONE], [ZERO, ZERO]]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(NormalFormError):
            nf_from_matrix(Matrix.zeros(3, 3))

    def test_matrix_round_trip(self):
        rng = random.Random(30)
        for _ in range(40):
            h = random_hermitian(rng, rng.randint(0, 3))
            assert nf_to_matrix(nf_from_matrix(h)) == h


class TestValidation:
    def test_unsorted_terms(self):
        with pytest.raises(NormalFormError):
            NormalForm(1, (NFTerm(1, 1, ONE), NFTerm(0, 0, ONE)))

    def test_lower_triangle_entry(self):
        with pytest.raises(NormalFormError):
            NormalForm(1, (NFTerm(1, 0, ONE),))

    def test_zero_coefficient(self):
        with pytest.raises(NormalFormError):
            NormalForm(1, (NFTerm(0, 0, ZERO),))

    def test_complex_diagonal(self):
        with pytest.raises(NormalFormError):
            NormalForm(1, (NFTerm(0, 0, I),))

    def test_out_of_range(self):
        with pytest.raises(NormalFormError):
            NormalForm(1, (NFTerm(0, 2, ONE),))


class TestRebuild:
    def test_round_trip_small(self):
        rng = random.Random(31)
        for _ in range(12):
            h = random_hermitian(rng, rng.randint(0, 2))
            d = nf_to_diagram(nf_from_matrix(h))
            assert state_operator(d) == h

    def test_unreduced_round_trip(self):
        rng = random.Random(32)
        for _ in range(6):
            h = random_hermitian(rng, rng.randint(0, 2))
            d = nf_to_diagram(nf_from_matrix(h), unreduced=True)
            assert state_operator(d) == h

    def test_zero_diagram(self):
        d = nf_to_diagram(NormalForm(1, ()))
        assert state_operator(d) == Matrix.zeros(2, 2)

    def test_nf_round_trip(self):
        rng = random.Random(33)
        for _ in range(12):
            nf = random_nf(rng, rng.randint(0, 2))
            assert nf_of_diagram(nf_to_diagram(nf)) == nf


class TestCanonical:
    def test_cap(self):
        assert nf_of_diagram(Cap) == NormalForm(
            2, (NFTerm(0, 0, ONE), NFTerm(0, 3, ONE), NFTerm(3, 3, ONE))
        )

    def test_identity_bends_to_cap(self):
        assert canonical_of_map(Id) == nf_of_diagram(Cap)

    def test_nf_of_diagram_needs_a_state(self):
        with pytest.raises(SemanticsError, match="state_operator needs a state, got 1 inputs"):
            nf_of_diagram(Id)

    def test_tick_is_swap_normal_form(self):
        assert canonical_of_map(Tick) == nf_from_matrix(interp(Swap))

    def test_ground(self):
        assert canonical_of_map(ground) == NormalForm(
            1, (NFTerm(0, 0, ONE), NFTerm(1, 1, ONE))
        )

    def test_tensor_is_kron_of_operators(self):
        rng = random.Random(34)
        for _ in range(10):
            s1 = random_state(rng, max_wires=1)
            s2 = random_state(rng, max_wires=1)
            lhs = state_operator(Tensor(s1, s2))
            rhs = mat_kron(state_operator(s1), state_operator(s2))
            assert lhs == rhs


class TestStateRoute:
    def test_canonical_of_map_is_nf_of_diagram_on_states(self):
        # On a state, bend_inputs adds only units, so both routes agree.
        rng = random.Random(11)
        for _ in range(60):
            d = random_state(rng, max_wires=3)
            assert canonical_of_map(d) == nf_of_diagram(d)


class TestDecision:
    def test_double_tick_is_identity(self):
        assert diagrams_equal(Compose(Tick, Tick), id_n(1))

    def test_reflexive(self):
        rng = random.Random(35)
        for _ in range(10):
            d = random_state(rng)
            assert diagrams_equal(d, d)

    def test_distinct_states(self):
        assert not diagrams_equal(ZSpider(ZERO, 0, 1), WSpider(0, 1))

    def test_arity_mismatch_is_unequal(self):
        assert not diagrams_equal(Id, id_n(2))


def nf_route_equal(d1, d2) -> bool:
    """The normal-form decision: equal arities and equal canonical forms."""
    if (d1.n_in, d1.n_out) != (d2.n_in, d2.n_out):
        return False
    return canonical_of_map(d1) == canonical_of_map(d2)


def scaled(c: Scalar, d):
    """c d as a term: the 0 -> 0 Z spider with parameter r denotes 1 + r."""
    return Tensor(ZSpider(c - ONE, 0, 0), d)


#: Factors of modulus 1 (-1, w) keep a tick-free map; 2, 1/2 and 1+w do not.
PHASES = (MINUS_ONE, OMEGA)
SCALES = (Scalar(2), Scalar(Fraction(1, 2)), ONE + OMEGA)


def same_arity_term(rng: random.Random, d, allow_tick: bool = False):
    """A random term with d's arity, tick-free unless allowed (a random multiple of d if none turns up)."""
    for _ in range(100):
        e = random_term(rng, n_in=d.n_in, allow_tick=allow_tick)
        if e.n_out == d.n_out:
            return e
    return scaled(Scalar(rng.randint(-3, 3)), d)


def random_scalar_term(rng: random.Random):
    """A 0 -> 0 tick-free term: a random state closed by a random effect."""
    s = random_state(rng, allow_tick=False)
    return Compose(dagger(random_state(rng, allow_tick=False, n_out=s.n_out)), s)


def pure_pairs(seed: int, count: int) -> list[tuple[str, object, object]]:
    """Seeded tick-free pairs (kind, a, b) with the sides in random order."""
    rng = random.Random(seed)
    zero = ZSpider(MINUS_ONE, 0, 0)
    out = []
    for i in range(count):
        d = random_term(rng, allow_tick=False)
        kind = ("phase", "scale", "zero-one", "zero-both", "other", "scalar")[i % 6]
        if kind == "phase":
            pair = (d, scaled(PHASES[i % 2], d))
        elif kind == "scale":
            pair = (d, scaled(SCALES[i % 3], d))
        elif kind == "zero-one":
            pair = (d, Tensor(zero, d))
        elif kind == "zero-both":
            pair = (Tensor(zero, d), Tensor(zero, same_arity_term(rng, d)))
        elif kind == "other":
            pair = (d, same_arity_term(rng, d))
        else:
            a = random_scalar_term(rng)
            pair = (a, scaled(PHASES[i % 2], a) if i % 4 == 1 else random_scalar_term(rng))
        if rng.random() < 0.5:
            pair = pair[::-1]
        out.append((kind, *pair))
    return out


class TestPureRoute:
    """Tick-free pairs are decided from the pure matrices up to a phase; the
    verdict must be the normal-form route's on every pair."""

    def test_phase_multiples_are_equal(self):
        w12 = WSpider(1, 2)
        for c in PHASES:
            assert diagrams_equal(scaled(c, w12), w12)
            assert diagrams_equal(w12, scaled(c, w12))

    def test_scale_multiples_are_unequal(self):
        w12 = WSpider(1, 2)
        for c in SCALES:
            assert not diagrams_equal(scaled(c, w12), w12)
            assert not diagrams_equal(w12, scaled(c, w12))

    def test_support_subset_is_unequal(self):
        # diag(1, 0) agrees with the identity, factor 1, on its only entry.
        assert not diagrams_equal(ZSpider(ZERO, 1, 1), Id)
        assert not diagrams_equal(Id, ZSpider(ZERO, 1, 1))

    def test_zero_maps(self):
        zero = ZSpider(MINUS_ONE, 0, 0)
        assert diagrams_equal(zero, Tensor(zero, zero))
        assert diagrams_equal(Tensor(zero, Id), Tensor(zero, ZSpider(OMEGA, 1, 1)))
        assert not diagrams_equal(zero, ZSpider(ZERO, 0, 0))
        assert not diagrams_equal(Tensor(zero, Id), Id)
        assert not diagrams_equal(Id, Tensor(zero, Id))

    def test_tick_free_verdict_skips_normal_forms(self, monkeypatch):
        calls, built = [], []
        real, real_nf = zwtick.normalform.canonical_of_map, zwtick.normalform.nf_from_matrix
        monkeypatch.setattr(
            zwtick.normalform, "canonical_of_map", lambda d: calls.append(d) or real(d)
        )
        monkeypatch.setattr(zwtick.normalform, "nf_from_matrix", lambda m: built.append(m) or real_nf(m))
        equal, explain = compare_maps(WSpider(1, 2), scaled(OMEGA, WSpider(1, 2)))
        assert equal and explain() is None and calls == [] and built == []
        a, b = ZSpider(HALF, 1, 1), Id
        equal, explain = compare_maps(a, b)
        assert not equal and calls == [] and built == []
        assert explain() == first_difference(real(a), real(b)) == (0, 3, HALF, ONE)
        assert calls == [a, b]
        # A ticked verdict reads the Choi upper triangles: only the witness
        # builds the two normal forms.
        built.clear()
        assert compare_maps(Compose(Tick, Tick), Id)[0] and built == []
        equal, explain = compare_maps(Tick, Id)
        assert not equal and built == []
        assert explain() == (0, 3, ZERO, ONE) and len(built) == 2 and calls == [a, b]

    def test_tick_free_route_builds_no_program(self, monkeypatch):
        # A tick-free term's pure matrix is swept from its flattened form, so
        # neither `interp` nor a tick-free verdict compiles a program; a ticked
        # pair is decided from its sides' doubled programs.
        pairs = pure_pairs(17, 60)
        terms = [d for _, a, b in pairs for d in (a, b)]
        matrices = [interp(d) for d in terms]
        verdicts = [compare_maps(a, b)[0] for _, a, b in pairs]
        assert True in verdicts and False in verdicts

        def refused(*args):
            raise AssertionError("a tick-free evaluation built a program")

        with monkeypatch.context() as patched:
            patched.setattr(program, "compile", refused)
            patched.setattr(program, "Program", refused)
            assert [interp(d) for d in terms] == matrices
            assert [compare_maps(a, b)[0] for _, a, b in pairs] == verdicts
            assert [diagrams_equal(a, b) for _, a, b in pairs] == verdicts
        compiled, compile_ = [], program.compile
        monkeypatch.setattr(program, "compile", lambda flat, *rest: compiled.append(flat) or compile_(flat, *rest))
        assert not compare_maps(Tick, WSpider(1, 1))[0]
        assert len(compiled) == 2

    def test_arity_mismatch_has_no_witness(self):
        equal, explain = compare_maps(Id, id_n(2))
        assert not equal and explain() is None
        # Both bend to 3-qubit states; the arities alone make them unequal.
        assert not diagrams_equal(WSpider(1, 2), WSpider(2, 1))

    @pytest.mark.parametrize("seed", [0, 101])
    def test_rule_grid_agrees(self, seed):
        pairs = [instantiate(r, p) for r in RULES for p in _default_samples(r, seed)]
        assert len(pairs) == 1128
        for lhs, rhs in pairs:
            assert diagrams_equal(lhs, rhs) == nf_route_equal(lhs, rhs)

    def test_lemma_corpus_agrees(self):
        for e in lemma_corpus():
            assert diagrams_equal(e.lhs, e.rhs) == nf_route_equal(e.lhs, e.rhs), e.name

    def test_random_pairs_agree(self):
        seen: dict = {}
        for kind, a, b in pure_pairs(7, 300):
            verdict = diagrams_equal(a, b)
            assert verdict == nf_route_equal(a, b), (kind, a, b)
            seen.setdefault(kind, []).append(verdict)
        assert all(seen["phase"]) and all(seen["zero-both"])
        for kind in ("scale", "zero-one", "other", "scalar"):
            assert 0 < seen[kind].count(False), kind
        assert seen["scalar"].count(True) > 0
        assert sum(v.count(True) for v in seen.values()) > 100


def with_one_z_changed(rng: random.Random, d):
    """d with one Z spider's parameter r replaced by r + 1, or None when d has none."""
    count = sum(isinstance(g, ZSpider) for _, g in subdiagrams(d))
    if not count:
        return None
    k = rng.randrange(count)

    def gen(g):
        nonlocal k
        if isinstance(g, ZSpider):
            k -= 1
            if k == -1:
                return ZSpider(g.r + ONE, g.n, g.m)
        return g

    return fold(d, gen, Compose, Tensor)


def triangle_pairs(seed: int, count: int) -> list[tuple[object, object]]:
    """Seeded pairs around `count` terms of up to 3 wires, ticked or not, a
    quarter of them states: each term beside its multiples by 1, -1, w, i,
    2 and 1/2, a copy with one Z spider changed and an unrelated term of
    its arity; then rebuilt normal forms beside their unreduced rebuild, a
    multiple and another form.  The sides come in random order."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        ticked = i % 2 == 0
        d = random_state(rng, allow_tick=ticked) if i % 4 == 3 else random_term(rng, allow_tick=ticked)
        others = [scaled(c, d) for c in (ONE, MINUS_ONE, OMEGA, I, Scalar(2), HALF)]
        others += [with_one_z_changed(rng, d), same_arity_term(rng, d, ticked)]
        out += [(d, e) for e in others if e is not None]
    for _ in range(count // 4):
        nf = random_nf(rng, rng.randint(0, 2))
        d = nf_to_diagram(nf)
        other = nf_to_diagram(random_nf(rng, nf.qubits))
        out += [(d, nf_to_diagram(nf, unreduced=True)), (d, scaled(OMEGA, d)), (d, other)]
    return [pair if rng.random() < 0.5 else pair[::-1] for pair in out]


class TestChoiTriangles:
    """Ticked pairs are decided on the upper triangles of the Choi matrices;
    the verdict and the witness must be the normal-form route's."""

    def test_differential_against_normal_forms(self):
        shared = {n: _bend_flat(n) for n in range(4)}
        before = {n: list(flat) for n, flat in shared.items()}
        seen = Counter()
        pairs = triangle_pairs(43, 40)
        assert len(pairs) >= 300
        for a, b in pairs:
            equal, explain = compare_maps(a, b)
            ca, cb = canonical_of_map(a), canonical_of_map(b)
            assert equal == (ca == cb), (a, b)
            if not equal:
                assert explain() == first_difference(ca, cb), (a, b)
            seen[has_tick(a) or has_tick(b), equal] += 1
        for d in {d for pair in pairs for d in pair}:
            assert flatten(bend_inputs(d)) == _bend_flat(d.n_in) + flatten(d)
        assert all(_bend_flat(n) is shared[n] and shared[n] == before[n] for n in shared)
        assert min(seen[ticked, equal] for ticked in (True, False) for equal in (True, False)) >= 20, seen

    def test_choi_is_the_bent_state(self):
        rng = random.Random(44)
        for _ in range(40):
            d = random_term(rng)
            assert choi(d) == state_operator(bend_inputs(d))

    def test_dense_guard_as_the_bent_state(self):
        d = id_n(13)
        with pytest.raises(SemanticsError) as want:
            state_operator(bend_inputs(d))
        for route in (choi, canonical_of_map, lambda d: compare_maps(d, Tensor(Tick, id_n(12)))):
            with pytest.raises(SemanticsError, match=re.escape(str(want.value))):
                route(d)


class TestTextForm:
    def test_round_trip(self):
        rng = random.Random(36)
        for _ in range(20):
            nf = random_nf(rng, rng.randint(0, 3))
            assert parse_nf(format_nf(nf)) == nf

    def test_scalar_case_marker(self):
        nf = NormalForm(0, (NFTerm(0, 0, Scalar(2)),))
        text = format_nf(nf)
        assert text == "n 0\n- - 2\n"
        assert parse_nf(text) == nf

    def test_float_mode(self):
        nf = NormalForm(1, (NFTerm(0, 0, ONE), NFTerm(0, 1, OMEGA.conj()), NFTerm(1, 1, HALF)))
        assert format_nf(nf) == "n 1\n0 0 1\n0 1 -w^3\n1 1 1/2\n"
        assert format_nf(nf, float_mode=True) == (
            "n 1\n0 0 1+0i\n0 1 0.707106781187-0.707106781187i\n1 1 0.5+0i\n"
        )
        assert format_nf(NormalForm(0, (NFTerm(0, 0, Scalar(2)),)), float_mode=True) == "n 0\n- - 2+0i\n"

    def test_example(self):
        text = "n 1\n0 1 -w^2\n"
        assert parse_nf(text) == NormalForm(1, (NFTerm(0, 1, -I),))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "0 1 1",
            "n x",
            "n 1\n0 1",
            "n 1\n2 2 1",
            "n 1\n0 1 q",
            "n 1\n1 0 1",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(NormalFormError):
            parse_nf(bad)

    def test_one_qubit_pattern(self):
        h = Matrix([[ONE, MINUS_ONE * I], [I, Scalar(-2)]])
        nf = nf_from_matrix(h)
        assert nf == NormalForm(
            1, (NFTerm(0, 0, ONE), NFTerm(0, 1, -I), NFTerm(1, 1, Scalar(-2)))
        )


class TestFirstDifference:
    def test_missing_entries_read_as_zero(self):
        a = NormalForm(1, (NFTerm(0, 0, ONE), NFTerm(0, 1, I)))
        b = NormalForm(1, (NFTerm(0, 0, ONE), NFTerm(1, 1, ONE)))
        assert first_difference(a, b) == (0, 1, I, ZERO)
        assert first_difference(b, a) == (0, 1, ZERO, I)
        assert first_difference(a, a) is None

    def test_first_in_entry_order(self):
        a = NormalForm(2, (NFTerm(1, 2, ONE), NFTerm(3, 3, ONE)))
        b = NormalForm(2, (NFTerm(0, 3, ONE), NFTerm(1, 2, MINUS_ONE)))
        assert first_difference(a, b) == (0, 3, ZERO, ONE)
