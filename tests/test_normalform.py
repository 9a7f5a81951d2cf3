"""Normal forms: extraction, rebuild fidelity, canonicity, and text form."""

import random

import pytest

from zwtick import (
    Cap,
    Compose,
    I,
    Id,
    MINUS_ONE,
    Matrix,
    NFTerm,
    NormalForm,
    NormalFormError,
    ONE,
    Scalar,
    Tensor,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    canonical_of_map,
    diagrams_equal,
    first_difference,
    format_nf,
    ground,
    id_n,
    interp,
    nf_from_matrix,
    nf_of_diagram,
    nf_to_diagram,
    nf_to_matrix,
    parse_nf,
    state_operator,
)
from zwtick import Swap

from _support import mat_kron, random_hermitian, random_nf, random_state


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
