"""The sparse `Matrix` against dense-table references, and its no-zero invariant."""

import random

import pytest

from zwtick import (
    Compose,
    I,
    MINUS_ONE,
    Matrix,
    NormalFormError,
    OMEGA,
    ONE,
    TWO,
    ZERO,
    ZSpider,
    bend_inputs,
    canonical_of_map,
    format_matrix,
    interp,
    lemma_corpus,
    nf_from_matrix,
    parse_matrix,
    partial_transpose,
    state_operator,
)

from _support import (
    dense_is_hermitian,
    dense_nf,
    random_hermitian,
    random_scalar,
    random_term,
)


def _check_against_dense(m: Matrix) -> None:
    """The sparse Hermitian check and read-off agree with the dense scans."""
    hermitian = dense_is_hermitian(m)
    assert m.is_hermitian() is hermitian
    if hermitian:
        assert nf_from_matrix(m) == dense_nf(m)
    else:
        with pytest.raises(NormalFormError):
            nf_from_matrix(m)


class TestDenseRoute:
    def test_bent_random_terms(self):
        rng = random.Random(60)
        for _ in range(200):
            d = random_term(rng)
            m = state_operator(bend_inputs(d))
            assert dense_is_hermitian(m)
            _check_against_dense(m)
            assert canonical_of_map(d) == dense_nf(m)

    def test_lemma_corpus_sides(self):
        for entry in lemma_corpus():
            for d in (entry.lhs, entry.rhs):
                m = state_operator(bend_inputs(d))
                _check_against_dense(m)
                assert canonical_of_map(d) == dense_nf(m), entry.name

    def test_random_hermitian_and_one_cell_changed(self):
        rng = random.Random(61)
        verdicts = set()
        for _ in range(200):
            h = random_hermitian(rng, rng.randint(0, 3))
            _check_against_dense(h)
            data = h.data
            data[rng.randrange(h.rows)][rng.randrange(h.cols)] = random_scalar(rng)
            m = Matrix(data)
            _check_against_dense(m)
            verdicts.add(m.is_hermitian())
        assert verdicts == {True, False}


ADVERSARIAL = [
    ("lower_mirror_absent", Matrix([[ONE, OMEGA], [ZERO, ONE]]), False),
    ("upper_mirror_absent", Matrix([[ZERO, ZERO], [I, ZERO]]), False),
    ("mirror_not_conjugate", Matrix([[ZERO, I], [I, ZERO]]), False),
    ("complex_diagonal", Matrix([[I]]), False),
    ("non_square", Matrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]), False),
    ("empty", Matrix([]), True),
    ("no_rows_three_cols", parse_matrix("0 3"), False),
]


@pytest.mark.parametrize("m, hermitian", [c[1:] for c in ADVERSARIAL], ids=[c[0] for c in ADVERSARIAL])
def test_adversarial_cases(m, hermitian):
    assert m.is_hermitian() is hermitian
    assert dense_is_hermitian(m) is hermitian
    # None is a 2^n x 2^n Hermitian matrix, so none has a normal form.
    with pytest.raises(NormalFormError):
        nf_from_matrix(m)


def test_empty_shapes_survive_text():
    m = parse_matrix("0 3")
    assert (m.rows, m.cols) == (0, 3)
    assert format_matrix(m) == "0 3\n"
    assert (Matrix([]).rows, Matrix([]).cols) == (0, 0)


class TestMatrixType:
    def test_constructor_drops_zeros(self):
        m = Matrix([[ZERO, ONE], [ONE + MINUS_ONE, ZERO]])
        assert m.entries == {(0, 1): ONE}
        assert m[1, 0] == ZERO

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            Matrix([[ONE, ZERO], [ONE]])

    def test_data_is_a_fresh_copy(self):
        m = Matrix([[ONE, ZERO], [ZERO, TWO]])
        m.data[0][0] = ZERO
        assert m.data == [[ONE, ZERO], [ZERO, TWO]]
        assert m.data is not m.data


def _stores_no_zero(m: Matrix) -> bool:
    return not any(v.is_zero() for v in m.entries.values())


class TestNoStoredZero:
    def test_matmul_cancellation(self):
        p = Matrix([[ONE, ONE]]).matmul(Matrix([[ONE], [MINUS_ONE]]))
        assert p.entries == {}
        assert p == Matrix([[ZERO]])

    def test_evaluator_cancellation(self):
        # (<0| - <1|)(|0> + |1>) = 0, summed inside the evaluator.
        d = Compose(ZSpider(MINUS_ONE, 1, 0), ZSpider(ONE, 0, 1))
        assert interp(d).entries == {}
        assert state_operator(d).entries == {}

    def test_random_results(self):
        rng = random.Random(62)
        for _ in range(100):
            assert _stores_no_zero(interp(random_term(rng, allow_tick=False)))
            s = bend_inputs(random_term(rng))
            rho = state_operator(s)
            assert _stores_no_zero(rho)
            assert _stores_no_zero(partial_transpose(rho, rng.randint(0, s.n_out)))
