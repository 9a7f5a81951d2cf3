"""Pure interpretation, wire doubling, superoperators, and Choi tests."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zwtick import (
    Cap,
    Compose,
    Cup,
    Fswap,
    HALF,
    I,
    Id,
    MINUS_ONE,
    Matrix,
    NormalFormError,
    OMEGA,
    ONE,
    Scalar,
    SQRT2,
    SemanticsError,
    Swap,
    Tensor,
    TWO,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    apply_superop,
    bend_inputs,
    choi,
    compose_many,
    dagger,
    format_matrix,
    ground,
    hp,
    id_n,
    interp,
    iota,
    is_completely_positive,
    is_hermiticity_preserving,
    is_psd,
    ket0,
    nf_from_matrix,
    not_gate,
    parse_matrix,
    proper_choi,
    ppt_check,
    psi,
    psi_inv,
    state_operator,
    tensor_many,
    ticked_cap,
    unzip,
)
from zwtick.semantics import MAX_DENSE_LOG2, interp_sparse

from _support import (
    mat_dagger,
    mat_kron,
    mat_mul,
    random_hermitian,
    random_real_scalar,
    random_scalar,
    random_state,
    random_term,
)


def M(rows):
    return Matrix([[v for v in row] for row in rows])


class TestGeneratorMatrices:
    """Frozen matrices computed by hand from the generator definitions."""

    def test_z_spider(self):
        r = Scalar(Fraction(1, 3))
        assert interp(ZSpider(r, 1, 1)) == M([[ONE, ZERO], [ZERO, r]])
        assert interp(ZSpider(r, 0, 0)) == M([[ONE + r]])
        assert interp(ZSpider(r, 2, 1)) == M(
            [[ONE, ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO, r]]
        )

    def test_w_spider(self):
        assert interp(WSpider(1, 1)) == M([[ZERO, ONE], [ONE, ZERO]])
        assert interp(WSpider(2, 1)) == M(
            [[ZERO, ONE, ONE, ZERO], [ONE, ZERO, ZERO, ZERO]]
        )
        assert interp(WSpider(0, 1)) == M([[ZERO], [ONE]])
        assert interp(WSpider(1, 0)) == M([[ZERO, ONE]])
        assert interp(WSpider(0, 0)) == M([[ZERO]])

    def test_fswap(self):
        assert interp(Fswap) == M(
            [
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ZERO, ONE, ZERO],
                [ZERO, ONE, ZERO, ZERO],
                [ZERO, ZERO, ZERO, MINUS_ONE],
            ]
        )

    def test_cup_cap(self):
        assert interp(Cup) == M([[ONE, ZERO, ZERO, ONE]])
        assert interp(Cap) == M([[ONE], [ZERO], [ZERO], [ONE]])

    def test_tick_has_no_pure_matrix(self):
        with pytest.raises(SemanticsError):
            interp(Tick)


class TestInterpHomomorphism:
    def test_compose_is_matmul(self):
        rng = random.Random(10)
        for _ in range(40):
            b = random_term(rng, allow_tick=False)
            a = random_term(rng, allow_tick=False, n_in=b.n_out)
            assert interp(Compose(a, b)) == mat_mul(interp(a), interp(b))

    def test_tensor_is_kron(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_term(rng, allow_tick=False)
            b = random_term(rng, allow_tick=False)
            assert interp(Tensor(a, b)) == mat_kron(interp(a), interp(b))

    def test_dagger_is_conjugate_transpose(self):
        rng = random.Random(12)
        for _ in range(40):
            d = random_term(rng, allow_tick=False)
            assert interp(dagger(d)) == mat_dagger(interp(d))


class TestUnzip:
    def test_tick_becomes_swap(self):
        assert unzip(Tick) == Swap

    def test_wire_doubles(self):
        assert unzip(Id) == Tensor(Id, Id)

    def test_doubling_law(self):
        rng = random.Random(13)
        for _ in range(60):
            d = random_term(rng, allow_tick=False, max_gens=6)
            rho = random_hermitian(rng, d.n_in)
            u = interp(d)
            expected = mat_mul(mat_mul(u, rho), mat_dagger(u))
            assert apply_superop(d, rho) == expected

    def test_tick_is_partial_transpose(self):
        rng = random.Random(14)
        d = Tensor(Tick, Id)
        for _ in range(25):
            rho = random_hermitian(rng, 2)
            out, inp = apply_superop(d, rho).data, rho.data
            for x in range(4):
                for y in range(4):
                    x1, x2 = x >> 1, x & 1
                    y1, y2 = y >> 1, y & 1
                    assert out[(y1 << 1) | x2][(x1 << 1) | y2] == inp[x][y]


class TestStateOperator:
    def test_cap_is_bell(self):
        expected = M(
            [
                [ONE, ZERO, ZERO, ONE],
                [ZERO, ZERO, ZERO, ZERO],
                [ZERO, ZERO, ZERO, ZERO],
                [ONE, ZERO, ZERO, ONE],
            ]
        )
        assert state_operator(Cap) == expected

    def test_ticked_cap_is_swap(self):
        assert state_operator(ticked_cap) == interp(Swap)

    def test_states_are_hermitian(self):
        rng = random.Random(15)
        for _ in range(60):
            assert state_operator(random_state(rng)).is_hermitian()

    def test_requires_state(self):
        with pytest.raises(SemanticsError):
            state_operator(Tick)


class TestChoi:
    def test_choi_of_tick_is_swap(self):
        assert choi(Tick) == interp(Swap)

    def test_proper_choi_of_tick_is_bell(self):
        assert proper_choi(Tick) == state_operator(Cap)

    def test_choi_of_identity_is_bell(self):
        assert choi(Id) == state_operator(Cap)

    def test_hp_everywhere(self):
        rng = random.Random(16)
        for _ in range(40):
            assert is_hermiticity_preserving(random_term(rng))

    def test_cp_classification(self):
        assert is_completely_positive(ground) is True
        assert is_completely_positive(Tick) is False
        assert is_completely_positive(not_gate) is True

    def test_doubled_terms_are_cp(self):
        rng = random.Random(17)
        for _ in range(25):
            assert is_completely_positive(random_term(rng, allow_tick=False))


def _interleaved(x, y, n):
    """Index of |x><y| in the vectorization x1 y1 x2 y2 ... of n qubits."""
    k = 0
    for b in range(n - 1, -1, -1):
        k = (k << 2) | (((x >> b) & 1) << 1) | ((y >> b) & 1)
    return k


def _unvec(col, n):
    """Read an interleaved column vector back as a 2^n x 2^n operator."""
    dim = 1 << n
    return Matrix(
        [[col.entries.get((_interleaved(x, y, n), 0), ZERO) for y in range(dim)] for x in range(dim)]
    )


class TestNetlistEvaluator:
    """The direct evaluator against the Kronecker reference interp_sparse(unzip(d))."""

    def test_state_operator_matches_reference(self):
        rng = random.Random(26)
        for _ in range(60):
            s = bend_inputs(random_term(rng, max_gens=10))
            assert state_operator(s) == _unvec(interp_sparse(unzip(s)), s.n_out)

    def test_apply_superop_matches_reference(self):
        rng = random.Random(27)
        for _ in range(60):
            d = random_term(rng, max_gens=10)
            rho = random_hermitian(rng, d.n_in)
            n = d.n_in
            vec = Matrix.from_entries(
                1 << (2 * n),
                1,
                {(_interleaved(x, y, n), 0): v for (x, y), v in rho.entries.items()},
            )
            want = _unvec(interp_sparse(unzip(d)).matmul(vec), d.n_out)
            assert apply_superop(d, rho) == want

    def test_interp_matches_reference(self):
        rng = random.Random(28)
        for _ in range(60):
            d = random_term(rng, allow_tick=False)
            assert interp(d) == interp_sparse(d)
            doubled = unzip(random_term(rng, max_gens=8))
            assert interp(doubled) == interp_sparse(doubled)

    def test_deep_chain_is_stack_safe(self):
        layers = 10_000
        chain = compose_many([ZSpider(OMEGA, 1, 1)] * layers)
        phase = ONE
        for _ in range(layers % 8):
            phase = phase * OMEGA
        assert interp(chain) == M([[ONE, ZERO], [ZERO, phase]])
        rho = random_hermitian(random.Random(29), 1, density=1.0)
        (a, b), (c, e) = rho.data
        assert apply_superop(chain, rho) == M([[a, b * phase.conj()], [c * phase, e]])
        assert state_operator(Compose(chain, ket0)) == M([[ONE, ZERO], [ZERO, ZERO]])


class TestHPPresentation:
    def test_matches_unzip_route(self):
        rng = random.Random(18)
        for _ in range(40):
            d = random_term(rng)
            lhs = hp(d)
            rhs = psi(unzip(d), d.n_in, d.n_out)
            assert interp(iota(lhs)) == interp(iota(rhs))

    def test_psi_inv_unbends(self):
        rng = random.Random(23)
        for _ in range(40):
            d = random_term(rng)
            doubled = interp(unzip(d))
            assert interp(psi_inv(psi(unzip(d), d.n_in, d.n_out))) == doubled
            assert interp(psi_inv(hp(d))) == doubled

    def test_ground_traces(self):
        rng = random.Random(19)
        for _ in range(10):
            rho = random_hermitian(rng, 1)
            out = apply_superop(ground, rho)
            assert out == M([[rho[0, 0] + rho[1, 1]]])


class TestPsd:
    def test_small_exact(self):
        assert is_psd(M([[ONE, ZERO], [ZERO, ZERO]])) is True
        assert is_psd(M([[MINUS_ONE]])) is False
        assert is_psd(interp(Swap)) is False

    def test_large_numeric(self):
        rng = random.Random(20)
        h = random_hermitian(rng, 3)
        sq = mat_mul(h, mat_dagger(h))
        assert is_psd(sq) is True

    def test_tiny_negative_eigenvalue_at_dim_8(self):
        diag = [ONE] * 8
        diag[5] = Scalar(Fraction(-1, 10**12))
        assert is_psd(_diagonal(diag)) is False

    def test_zero_pivot_with_nonzero_row_at_dim_8(self):
        diag = [ONE] * 8
        diag[3] = diag[6] = ZERO
        data = _diagonal(diag).data
        data[3][6] = data[6][3] = HALF
        assert is_psd(Matrix(data)) is False

    def test_rank_deficient_gram_at_dim_16(self):
        rng = random.Random(24)
        h = Matrix([[random_scalar(rng) for _ in range(3)] for _ in range(16)])
        assert is_psd(mat_mul(h, mat_dagger(h))) is True

    def test_ppt_at_the_werner_boundary(self):
        # Werner(1/3) (x) qubit: the partial transpose has eigenvalue exactly 0.
        p = Fraction(1, 3)
        q = Scalar((1 - p) / 4)
        werner = _diagonal([q] * 4).data
        for i, j, v in ((1, 1, 1), (2, 2, 1), (1, 2, -1), (2, 1, -1)):
            werner[i][j] = werner[i][j] + Scalar(p * v / 2)
        off = Scalar(0, 0, Fraction(1, 4))
        qubit = M([[Scalar(Fraction(1, 3)), off], [off.conj(), Scalar(Fraction(2, 3))]])
        assert ppt_check(mat_kron(Matrix(werner), qubit), 1) is True

    def test_matches_float_eigenvalues(self):
        # Each matrix is shifted so its smallest eigenvalue sits near +-1/4,
        # far enough from 0 that the float verdict is unambiguous.
        rng = random.Random(25)
        for dim in (2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64):
            data = _hermitian_of_dim(rng, dim, min(1.0, 3 / dim))
            low = np.linalg.eigvalsh(Matrix(data).to_numpy())[0]
            for target in (0.25, -0.25):
                shift = Scalar(Fraction(round((target - low) * 8), 8))
                m = Matrix(
                    [[v + shift if i == j else v for j, v in enumerate(row)] for i, row in enumerate(data)]
                )
                shifted = np.linalg.eigvalsh(m.to_numpy())[0]
                assert abs(shifted) >= 0.1
                assert is_psd(m) is bool(shifted > 0)


def _diagonal(entries):
    dim = len(entries)
    return Matrix([[entries[i] if i == j else ZERO for j in range(dim)] for i in range(dim)])


def _hermitian_of_dim(rng, dim, density):
    data = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        data[x][x] = random_real_scalar(rng)
        for y in range(x + 1, dim):
            if rng.random() < density:
                c = random_scalar(rng)
                data[x][y] = c
                data[y][x] = c.conj()
    return data


class TestMatrixText:
    def test_round_trip(self):
        rng = random.Random(21)
        m = random_hermitian(rng, 2)
        assert parse_matrix(format_matrix(m)) == m

    def test_float_mode(self):
        text = format_matrix(M([[I]]), float_mode=True)
        assert text == "1 1\n0+1i\n"

    def test_rejects_ragged(self):
        with pytest.raises(SemanticsError):
            parse_matrix("2 2\n1 0\n0")


class TestBending:
    def test_bent_identity_is_cap(self):
        assert state_operator(bend_inputs(Id)) == state_operator(Cap)

    def test_superop_arity_mismatch(self):
        with pytest.raises(SemanticsError):
            apply_superop(Id, Matrix.zeros(4, 4))


class TestHermiticityCheck:
    def test_one_conjugated_coordinate_differs(self):
        # u = (1 + 2w + 3w^2 + 4w^3) / 5 and conj(u) = (1 - 4w - 3w^2 - 2w^3) / 5.
        u = Scalar(Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
        good = M([[ONE, u], [u.conj(), TWO]])
        assert good.is_hermitian()
        assert nf_from_matrix(good).terms[1].coeff == u
        exact = [Fraction(1, 5), Fraction(-4, 5), Fraction(-3, 5), Fraction(-2, 5)]
        for k in range(4):
            off = list(exact)
            off[k] += 1
            bad = M([[ONE, u], [Scalar(*off), TWO]])
            assert not bad.is_hermitian(), k
            assert is_psd(bad) is False
            with pytest.raises(NormalFormError):
                nf_from_matrix(bad)
        # The same coordinates over another denominator.
        assert not M([[ONE, u], [Scalar(*(c * 5 / 7 for c in exact)), TWO]]).is_hermitian()

    def test_diagonal_must_be_real(self):
        assert not M([[OMEGA]]).is_hermitian()
        assert M([[SQRT2]]).is_hermitian()


class TestWidthGuard:
    """Wide boundaries are refused before anything of their size is built."""

    def _refused(self, call, *args):
        tracemalloc.start()
        try:
            with pytest.raises(SemanticsError, match="exceeds"):
                call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_interp_of_id_30(self):
        self._refused(interp, id_n(30))

    def test_state_operator_on_30_wires(self):
        self._refused(state_operator, tensor_many([ket0] * 30))
        self._refused(choi, id_n(30))

    def test_apply_superop_to_30_wires(self):
        rho = M([[ONE, ZERO], [ZERO, ZERO]])
        self._refused(apply_superop, ZSpider(ONE, 1, 30), rho)

    def test_limit_is_on_total_entries(self):
        assert MAX_DENSE_LOG2 == 24
        self._refused(interp, ZSpider(ONE, 12, 13))
        self._refused(state_operator, tensor_many([ket0] * 13))
        assert interp(ZSpider(ONE, 2, 3)).rows == 8
