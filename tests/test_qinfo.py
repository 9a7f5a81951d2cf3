"""Partial transpose, Bloch geometry, pairings, and the internal dagger."""

import random
from fractions import Fraction

import pytest

from zwtick import (
    BlochVector,
    Compose,
    HALF,
    I,
    Id,
    Matrix,
    ONE,
    SQRT2,
    Scalar,
    SemanticsError,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    apply_superop,
    bloch,
    canonical_of_map,
    choi,
    from_bloch,
    ground,
    internal_dagger,
    interp,
    is_unitary_semantic,
    ket0,
    min_pt_eigenvalue,
    not_gate,
    partial_transpose,
    ppt_check,
    proper_choi,
    sesqui_pairing,
    spin_flip,
    spin_flip_diagram,
)

from _support import (
    mat_kron,
    random_hermitian,
    random_qubit_density,
    random_separable,
    random_state,
    random_term,
)

BELL = Matrix(
    [
        [ONE, ZERO, ZERO, ONE],
        [ZERO, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ZERO],
        [ONE, ZERO, ZERO, ONE],
    ]
)


def normalized_plus_i_state():
    """Doubled (|0> + i|1>)/sqrt(2)."""
    unit = HALF * SQRT2 - ONE
    return Tensor(ZSpider(unit, 0, 0), ZSpider(I, 0, 1))


class TestPartialTranspose:
    def test_bell_becomes_swap(self):
        assert partial_transpose(BELL, 1) == interp(Swap)

    def test_involution(self):
        rng = random.Random(50)
        for _ in range(20):
            rho = random_hermitian(rng, 2)
            assert partial_transpose(partial_transpose(rho, 1), 1) == rho

    def test_product_rule(self):
        rng = random.Random(51)
        a = random_hermitian(rng, 1)
        b = random_hermitian(rng, 1)
        at = Matrix([[a[c, r] for c in range(2)] for r in range(2)])
        assert partial_transpose(mat_kron(a, b), 1) == mat_kron(at, b)

    def test_matches_tick_superop(self):
        rng = random.Random(52)
        for _ in range(15):
            rho = random_hermitian(rng, 2)
            assert apply_superop(Tensor(Tick, Id), rho) == partial_transpose(rho, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(SemanticsError):
            partial_transpose(Matrix.zeros(4, 4), 3)

    def test_requires_square(self):
        with pytest.raises(SemanticsError):
            partial_transpose(Matrix.zeros(2, 4), 1)

    def test_proper_choi_transposes_the_reference(self):
        rng = random.Random(41)
        for _ in range(200):
            d = random_term(rng)
            assert proper_choi(d) == partial_transpose(choi(d), d.n_in)


class TestPpt:
    def test_bell_fails(self):
        assert ppt_check(BELL, 1) is False
        assert abs(min_pt_eigenvalue(BELL, 1) + 1.0) < 1e-9

    def test_product_passes(self):
        rng = random.Random(53)
        rho = mat_kron(random_qubit_density(rng), random_qubit_density(rng))
        assert ppt_check(rho, 1) is True

    def test_classically_correlated_passes(self):
        diag = Matrix(
            [[HALF if r == c and r in (0, 3) else ZERO for c in range(4)] for r in range(4)]
        )
        assert ppt_check(diag, 1) is True

    def test_separable_mixtures_pass(self):
        rng = random.Random(54)
        for _ in range(15):
            assert ppt_check(random_separable(rng), 1) is True

    def test_requires_hermitian(self):
        m = Matrix([[ONE if (r, c) == (0, 1) else ZERO for c in range(4)] for r in range(4)])
        with pytest.raises(SemanticsError):
            ppt_check(m, 1)


class TestBloch:
    def test_basis_states(self):
        z0 = Matrix([[ONE, ZERO], [ZERO, ZERO]])
        v = bloch(z0)
        assert (v.rx, v.ry, v.rz) == (ZERO, ZERO, ONE)
        mixed = Matrix([[HALF, ZERO], [ZERO, HALF]])
        assert bloch(mixed) == BlochVector(ZERO, ZERO, ZERO)

    def test_round_trip(self):
        rng = random.Random(55)
        for _ in range(20):
            rho = random_qubit_density(rng)
            assert from_bloch(bloch(rho)) == rho

    def test_trace_must_be_one(self):
        with pytest.raises(SemanticsError):
            bloch(Matrix.zeros(2, 2))

    def test_coordinates_must_be_real(self):
        with pytest.raises(SemanticsError):
            BlochVector(I, ZERO, ZERO)

    def test_negate(self):
        v = BlochVector(HALF, ZERO, -HALF)
        assert v.negate() == BlochVector(-HALF, ZERO, HALF)


class TestSpinFlip:
    def test_flips_poles(self):
        z0 = Matrix([[ONE, ZERO], [ZERO, ZERO]])
        z1 = Matrix([[ZERO, ZERO], [ZERO, ONE]])
        assert spin_flip(z0) == z1

    def test_fixes_maximally_mixed(self):
        mixed = Matrix([[HALF, ZERO], [ZERO, HALF]])
        assert spin_flip(mixed) == mixed

    def test_bloch_negation(self):
        rng = random.Random(56)
        for _ in range(20):
            rho = random_qubit_density(rng)
            assert bloch(spin_flip(rho)) == bloch(rho).negate()

    def test_diagram_route_agrees(self):
        rng = random.Random(57)
        for _ in range(20):
            rho = random_qubit_density(rng)
            assert apply_superop(spin_flip_diagram, rho) == spin_flip(rho)

    def test_involution(self):
        rng = random.Random(58)
        rho = random_qubit_density(rng)
        assert spin_flip(spin_flip(rho)) == rho


class TestPairing:
    def test_plus_i_plain_vs_ticked(self):
        s = normalized_plus_i_state()
        assert sesqui_pairing(s, s, ticked=False) == ZERO
        assert sesqui_pairing(s, s, ticked=True) == ONE

    def test_orthogonal_basis(self):
        d0 = ket0
        d1 = WSpider(0, 1)
        assert sesqui_pairing(d0, d1, ticked=True) == ZERO
        assert sesqui_pairing(d0, d0, ticked=True) == ONE

    def test_real_states_agree_both_ways(self):
        # plain and ticked pairings coincide on real-amplitude doubled states
        rng = random.Random(59)
        def real_state():
            c = Scalar(Fraction(rng.randint(-2, 2)))
            r = Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            return Tensor(ZSpider(c, 0, 0), ZSpider(r, 0, 1))
        for _ in range(15):
            s1, s2 = real_state(), real_state()
            assert sesqui_pairing(s1, s2, ticked=False) == sesqui_pairing(
                s1, s2, ticked=True
            )

    def test_arity_mismatch(self):
        with pytest.raises(SemanticsError):
            sesqui_pairing(ket0, Tensor(ket0, ket0), ticked=True)

    def test_rejects_non_states(self):
        with pytest.raises(SemanticsError):
            sesqui_pairing(Tick, Tick, ticked=True)


class TestInternalDagger:
    def test_identity(self):
        assert canonical_of_map(internal_dagger(Id)) == canonical_of_map(Id)

    def test_involution(self):
        rng = random.Random(60)
        for _ in range(10):
            d = random_term(rng, max_wires=2)
            dd = internal_dagger(internal_dagger(d))
            assert canonical_of_map(dd) == canonical_of_map(d)

    def test_adjoint_property(self):
        rng = random.Random(61)
        maps = [Tick, not_gate, ZSpider(HALF, 1, 1), spin_flip_diagram, Compose(not_gate, Tick)]
        for d in maps:
            for _ in range(6):
                x = random_state(rng, max_wires=1, n_out=1)
                y = random_state(rng, max_wires=1, n_out=1)
                lhs = sesqui_pairing(Compose(internal_dagger(d), x), y, ticked=True)
                rhs = sesqui_pairing(x, Compose(d, y), ticked=True)
                assert lhs == rhs


class TestUnitarity:
    def test_doubled_not_is_unitary(self):
        assert is_unitary_semantic(WSpider(1, 1)) is True

    def test_tick_is_unitary(self):
        assert is_unitary_semantic(Tick) is True

    def test_identity(self):
        assert is_unitary_semantic(Id) is True

    def test_traced_term_is_not(self):
        assert is_unitary_semantic(Compose(ket0, ground)) is False

    def test_requires_square_arity(self):
        with pytest.raises(SemanticsError):
            is_unitary_semantic(ket0)

    def test_not_gate_is_unitary(self):
        assert is_unitary_semantic(not_gate) is True
