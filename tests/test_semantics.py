"""Pure interpretation, wire doubling, superoperators, and Choi tests."""

import hashlib
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from zwtick import (
    Cap,
    Compose,
    Cup,
    Empty,
    Fswap,
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
    has_tick,
    hp,
    id_n,
    internal_dagger,
    interp,
    iota,
    is_completely_positive,
    is_hermiticity_preserving,
    is_psd,
    ket0,
    nf_from_matrix,
    nf_to_diagram,
    nf_to_matrix,
    not_gate,
    parse_diagram,
    parse_matrix,
    proper_choi,
    ppt_check,
    print_diagram,
    psi,
    psi_inv,
    state_operator,
    subdiagrams,
    tensor_many,
    ticked_cap,
    unzip,
)
from zwtick import semantics
from zwtick.diagram import flatten, route, wires
from zwtick.semantics import MAX_DENSE_LOG2, _gen_matrix, _netlist, _permute, _run_matrix, _table, interp_sparse

from _support import (
    flatten_reference,
    mat_dagger,
    mat_kron,
    mat_mul,
    random_hermitian,
    random_matrix,
    random_nf,
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

    # `_gen_matrix` feeds both the evaluator and its `interp_sparse` oracle,
    # so a wrong table would pass every differential test: pin the fixed
    # generators' entries as they were first written out by hand.
    @pytest.mark.parametrize(
        "g, rows, cols, entries",
        [
            (Id, 2, 2, {(0, 0): ONE, (1, 1): ONE}),
            (Swap, 4, 4, {(0, 0): ONE, (2, 1): ONE, (1, 2): ONE, (3, 3): ONE}),
            (Fswap, 4, 4, {(0, 0): ONE, (2, 1): ONE, (1, 2): ONE, (3, 3): MINUS_ONE}),
            (Cup, 1, 4, {(0, 0): ONE, (0, 3): ONE}),
            (Cap, 4, 1, {(0, 0): ONE, (3, 0): ONE}),
            (Empty, 1, 1, {(0, 0): ONE}),
        ],
        ids=["id", "swap", "fswap", "cup", "cap", "empty"],
    )
    def test_fixed_generator_tables(self, g, rows, cols, entries):
        got = _gen_matrix(g)
        assert (got.rows, got.cols, got.entries) == (rows, cols, entries)

    def test_reference_refuses_ticks(self):
        with pytest.raises(SemanticsError, match="pure interpretation undefined for ticked diagram"):
            interp_sparse(Compose(Tick, Id))


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


def _placed(g, above, width):
    """Layer applying g below `above` plain wires of a `width`-wire term."""
    return tensor_many([id_n(above), g, id_n(width - above - g.n_in)])


def _same_wire_run(rng, width, length):
    """Layers on `width` wires where each generator consumes exactly the
    outputs of the one before: runs of (w 1 1), (z r 1 1) and (w 2 1), with
    (z r 1 2) to widen the run again before a (w 2 1)."""
    at = rng.randrange(width)
    k = 2 if at + 2 <= width and rng.random() < 0.5 else 1
    layers = []
    for _ in range(length):
        if k == 2:
            g = WSpider(2, 1)
        else:
            g = rng.choice(
                [WSpider(1, 1), ZSpider(random_scalar(rng), 1, 1), ZSpider(random_scalar(rng), 1, 2)]
            )
        layers.append(_placed(g, at, width))
        width += g.n_out - g.n_in
        k = g.n_out
    return layers


def _relabel_run(rng, width, kind):
    """Layers of ticks and swaps on `width` wires: a lone tick, swaps only, or both."""
    if kind == "tick":
        gens = [Tick]
    elif kind == "swaps":
        gens = [Swap] * rng.randint(2, 8)
    else:
        gens = [Tick, Swap] + [rng.choice([Tick, Swap]) for _ in range(rng.randint(0, 6))]
        rng.shuffle(gens)
    return [_placed(g, rng.randrange(width - g.n_in + 1), width) for g in gens]


def _folded_relabel_term(rng, case, ticks):
    """A term whose first step carries a swap-and-tick run, then random layers.

    `case` picks the run: a tick on a wire the step leaves alone
    ("untouched_tick"), swaps across the edges of the step's outputs
    ("swaps_across"), a swap and a tick after a cup or a (w 2 1)
    ("narrowing"), or a swap and a tick with no step before them
    ("leading").  Without `ticks`, no tick is placed.  Returns the term
    without the random layers, then the whole term.
    """
    if case == "narrowing":
        g = rng.choice([Cup, WSpider(2, 1)])
        width = 4 if g is Cup else 3
    else:
        g = rng.choice(
            [WSpider(1, 1), WSpider(1, 2), ZSpider(random_scalar(rng), 1, 1), ZSpider(random_scalar(rng), 1, 2)]
        )
        width = rng.randint(2, 3)
    at = rng.randrange(width - g.n_in + 1)
    out = width + g.n_out - g.n_in

    def swap_and_tick(w):
        run = [_placed(Swap, rng.randrange(w - 1), w)] + ([_placed(Tick, rng.randrange(w), w)] if ticks else [])
        rng.shuffle(run)
        return run

    if case == "leading":
        layers = swap_and_tick(width) + [_placed(g, at, width)]
    elif case == "narrowing":
        layers = [_placed(g, at, width)] + swap_and_tick(out)
    elif case == "untouched_tick":
        free = [k for k in range(out) if not at <= k < at + g.n_out]
        layers = [_placed(g, at, width), _placed(Tick, rng.choice(free), out)]
    else:
        edges = [p for p in (at - 1, at + g.n_out - 1) if p >= 0 and p + 1 < out]
        layers = [_placed(g, at, width)] + [_placed(Swap, p, out) for p in rng.sample(edges, rng.randint(1, len(edges)))]
        if ticks:
            layers.append(_placed(Tick, rng.randrange(out), out))
    tail = random_term(rng, max_wires=3, max_gens=3, allow_tick=ticks, n_in=out)
    return compose_many(layers), compose_many(layers + [tail])


def _vec(rho):
    n = rho.rows.bit_length() - 1
    return Matrix.from_entries(
        1 << (2 * n), 1, {(_interleaved(x, y, n), 0): v for (x, y), v in rho.entries.items()}
    )


class TestNetlistEvaluator:
    """The direct evaluator against the Kronecker reference interp_sparse(unzip(d))."""

    def _check_doubled(self, rng, d):
        s = bend_inputs(d)
        assert state_operator(s) == _unvec(interp_sparse(unzip(s)), s.n_out)
        rho = random_hermitian(rng, d.n_in)
        assert apply_superop(d, rho) == _unvec(interp_sparse(unzip(d)).matmul(_vec(rho)), d.n_out)

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
            want = _unvec(interp_sparse(unzip(d)).matmul(_vec(rho)), d.n_out)
            assert apply_superop(d, rho) == want
        # Any other input is split into two Hermitian runs.
        rng = random.Random(32)
        skew = 0
        for _ in range(60):
            d = random_term(rng, max_gens=10)
            rho = random_matrix(rng, d.n_in, density=rng.choice([0.5, 1.0]))
            skew += not rho.is_hermitian()
            want = _unvec(interp_sparse(unzip(d)).matmul(_vec(rho)), d.n_out)
            assert apply_superop(d, rho) == want
        assert skew >= 40

    def test_same_wire_runs_fuse_into_one_step(self):
        rng = random.Random(31)
        for _ in range(40):
            base = random_term(rng, max_wires=3, max_gens=6)
            if base.n_out == 0:
                base = Tensor(base, ZSpider(random_scalar(rng), 0, 1))
            layers = _same_wire_run(rng, base.n_out, rng.randint(4, 12))
            d = compose_many([base] + layers)
            (steps, rs), (base_steps, base_rs) = _netlist(flatten(d), True), _netlist(flatten(base), True)
            assert len(steps) <= len(base_steps) + 1
            # The fused step holds the matrix of the generators it fused and
            # relabels nothing.
            gens = [g for layer in layers for _, g in subdiagrams(layer) if isinstance(g, (WSpider, ZSpider))]
            run = interp_sparse(compose_many(gens))
            if len(steps) == len(base_steps):  # the run extended the base's last step
                assert _relabelling(base_steps[-1]) == (0, 0, ())
                run = run.matmul(_run_matrix(_run_of(base_steps[-1], base_rs[-1])))
            assert _run_matrix(_run_of(steps[-1], rs[-1])) == run
            assert _relabelling(steps[-1]) == (0, 0, ())
            self._check_doubled(rng, d)
        # The pure evaluator keeps one step per generator.
        chain = flatten(compose_many([WSpider(1, 1), ZSpider(OMEGA, 1, 1)] * 3))
        assert len(_netlist(chain, False)[0]) == 6 and len(_netlist(chain, True)[0]) == 1
        # A step that relabels is never extended.
        ticked = flatten(compose_many([WSpider(1, 1), Tick, ZSpider(OMEGA, 1, 1)]))
        assert [step.exchange for step in _netlist(ticked, True)[0]] == [1, 0]

    def test_steps_match_the_reference_walk(self):
        # The steps built from `flatten`, which splices the kept lists of
        # shared networks, equal those built from a walk over every node.
        def steps(flat, doubled):
            return [(t.lo, t.n, t.m, t.run, r, *_relabelling(t), t.cols) for t, r in zip(*_netlist(flat, doubled))]

        rng = random.Random(33)
        terms = [random_term(rng, max_wires=4) for _ in range(100)]
        for _ in range(20):
            nf = random_nf(rng, rng.randint(0, 4), density=rng.random())
            terms += [nf_to_diagram(nf), nf_to_diagram(nf, unreduced=True)]
        terms += [Tensor(route(wires("a", 3), wires("a", 3)[::-1]), tensor_many([Tick, Id]))]
        for d in terms:
            for doubled in (True, False) if not has_tick(d) else (True,):
                assert steps(flatten(d), doubled) == steps(flatten_reference(d), doubled)

    def test_fused_run_builds_one_table(self, monkeypatch):
        # A run's matrix is carried along it; only the whole run gets a table,
        # and a later evaluation of an equal run reuses the stored one.
        built = _count_tables(monkeypatch)
        _table.cache_clear()
        chain = compose_many([not_gate] * 10_001)
        assert state_operator(Compose(chain, ket0)) == M([[ZERO, ZERO], [ZERO, ONE]])
        assert built == [0]
        again = compose_many([WSpider(1, 1)] * 10_001)
        assert state_operator(Compose(again, ZSpider(ZERO, 0, 1))) == M([[ZERO, ZERO], [ZERO, ONE]])
        assert built == [0]

    @pytest.mark.parametrize("kind", ["tick", "swaps", "mixed"])
    def test_swap_and_tick_runs_relabel_in_one_pass(self, kind):
        rng = random.Random(f"relabel:{kind}")
        for _ in range(40):
            base = random_term(rng, max_wires=3, max_gens=5)
            while base.n_out < 2:
                base = Tensor(base, ZSpider(random_scalar(rng), 0, 1))
            run = _relabel_run(rng, base.n_out, kind)
            # Alone, the run relabels one step whose run is the empty unit.
            steps, _ = _netlist(flatten(compose_many(run)), True)
            assert len(steps) <= 1
            assert all((step.lo, step.n, step.m, step.run) == (0, 0, 0, (Empty,)) for step in steps)
            if kind == "tick":
                # One exchanged bit, nothing routed.
                (step,) = steps
                assert bin(step.exchange).count("1") == 1 and (step.moved, step.moves) == (0, ())
            if kind == "swaps":
                assert all(step.exchange == 0 for step in steps)
            # After the base, it rides on the base's last step: no step of its own.
            base_steps, _ = _netlist(flatten(base), True)
            assert len(_netlist(flatten(compose_many([base] + run)), True)[0]) <= max(len(base_steps), 1)
            tail = random_term(rng, max_wires=3, max_gens=4, n_in=base.n_out)
            self._check_doubled(rng, compose_many([base] + run + [tail]))

    @pytest.mark.parametrize("case", ["untouched_tick", "swaps_across", "narrowing", "leading"])
    def test_folded_relabels_match_reference(self, monkeypatch, case):
        # Each term's first step carries a swap-and-tick run of the kind the
        # case names, unless the random layers after it change the run.
        # Every semantics of the term must match the reference.
        folded_on_diagonal = []
        apply_step = semantics._apply_step

        def watched(ops, doubled, table, dead, r):
            if doubled and (table.exchange or table.moved) and any(x == y for x, y in ops):
                folded_on_diagonal.append(table)
            return apply_step(ops, doubled, table, dead, r)

        monkeypatch.setattr(semantics, "_apply_step", watched)
        rng = random.Random(f"fold:{case}")
        skew = 0
        for k in range(30):
            ticks = case == "untouched_tick" or k % 2 == 0
            head, d = _folded_relabel_term(rng, case, ticks)
            flat = flatten(head)
            first = _netlist(flat, True)[0][0]
            n, m, exchange, moved = first.n, first.m, first.exchange, first.moved
            outputs = ((1 << m) - 1) << first.lo
            if case == "leading":
                for step in (first, _netlist(flat, False)[0][0]) if not ticks else (first,):
                    assert (step.lo, step.n, step.m, step.run) == (0, 0, 0, (Empty,))
                    assert step.exchange or step.moved
            elif case == "untouched_tick":
                assert exchange and not exchange & outputs and not moved
            elif case == "swaps_across":
                assert moved & outputs and moved & ~outputs
            else:
                assert m < n and (exchange or moved)
            s = Compose(d, random_state(rng, max_wires=d.n_in, n_out=d.n_in))
            assert state_operator(s) == _unvec(interp_sparse(unzip(s)), s.n_out)
            doubled = interp_sparse(unzip(d))
            for rho in (random_hermitian(rng, d.n_in), random_matrix(rng, d.n_in, density=1.0)):
                skew += not rho.is_hermitian()
                assert apply_superop(d, rho) == _unvec(doubled.matmul(_vec(rho)), d.n_out)
            if not ticks:
                assert interp(d) == interp_sparse(d)
        assert skew >= 25
        assert folded_on_diagonal

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

    def test_alternating_tick_chain_is_linear(self):
        # tick transposes a qubit operator; (z w 1 1) multiplies |0><1| by
        # conj(w) and |1><0| by w.  Each (z w 1 1) is its own step and
        # carries the tick after it; the first tick rides on an empty step.
        z = ZSpider(OMEGA, 1, 1)

        def run(layers):
            chain = compose_many([Tick, z] * (layers // 2) + [Tick] * (layers % 2))
            assert len(_netlist(flatten(chain), True)[0]) == layers // 2 + 1
            start = time.perf_counter()
            out = apply_superop(chain, rho), state_operator(Compose(chain, plus))
            return out, time.perf_counter() - start

        rho = random_hermitian(random.Random(30), 1, density=1.0)
        plus = ZSpider(ONE, 0, 1)
        layers = 10_001
        (superop, state), elapsed = run(layers)
        elapsed = min(elapsed, run(layers)[1])
        (a, b), (c, e) = rho.data
        p, q = ONE, ONE
        for k in range(layers):
            b, c = (c, b) if k % 2 == 0 else (b * OMEGA.conj(), c * OMEGA)
            p, q = (q, p) if k % 2 == 0 else (p * OMEGA.conj(), q * OMEGA)
        assert superop == M([[a, b], [c, e]])
        assert state == M([[ONE, p], [q, ONE]])
        quarter = min(run(layers // 4)[1] for _ in range(3))
        assert elapsed < 10 * quarter

    def test_dense_round_trip_step_count(self):
        # The normal-form diagram of a dense 3-qubit operator: each term's
        # ticks and routing ride on the step before them, and each binary
        # merge is one step.  One step per generator, tick and swap run
        # would be 246; a relabelling pass per swap-and-tick run, 128.
        nf = random_nf(random.Random(68), 3, density=0.55)
        assert len(nf.terms) == 20
        steps, rs = _netlist(flatten(nf_to_diagram(nf)), True)
        assert len(steps) <= 110
        assert not any(_run_matrix(_run_of(step, r)) == _gen_matrix(Empty) for step, r in zip(steps, rs))

    @pytest.mark.parametrize(
        "qubits, seed, density, most_fed, most_live", [(3, 68, 0.55, 1673, 59), (4, 131, 1.0, 81_081, 407)]
    )
    def test_dense_round_trip_entries_touched(self, monkeypatch, qubits, seed, density, most_fed, most_live):
        # Dropping dead (ket, bra) patterns cuts the entries fed to the steps
        # from 4,599 to 1,673 on the 3-qubit normal form above (peak live
        # entries 146 to 59), and from 266,523 to 81,081 on a full 4-qubit
        # one of 136 terms (peak 407).  The limits are those counts, so any
        # pruning lost on a normal form fails here.
        nf = random_nf(random.Random(seed), qubits, density=density)
        fed, live = [], []
        apply_step = semantics._apply_step

        def counting(ops, doubled, table, dead, r):
            out = apply_step(ops, doubled, table, dead, r)
            fed.append(len(ops))
            live.append(len(out))
            return out

        monkeypatch.setattr(semantics, "_apply_step", counting)
        assert state_operator(nf_to_diagram(nf)) == nf_to_matrix(nf)
        assert sum(fed) <= most_fed
        assert max(fed + live) <= most_live


def _relabelling(table) -> tuple:
    return table.exchange, table.moved, table.moves


def _run_of(table, r) -> tuple:
    """The generators of a step's run: its table's, or the one Z spider r of its bound shape."""
    return table.run if r is None else (ZSpider(r, *table.run),)


def _count_tables(monkeypatch) -> list:
    """Make every `_Table` built from now on append its `lo` to the returned list."""
    built = []

    class CountedTable(semantics._Table):
        __slots__ = ()

        def __init__(self, run, lo, exchange, moves):
            built.append(lo)
            super().__init__(run, lo, exchange, moves)

    monkeypatch.setattr(semantics, "_Table", CountedTable)
    return built


class TestTableStore:
    """Tables are shared across evaluations; sharing must not change a result."""

    @staticmethod
    def _results(d, h, k):
        out = [state_operator(bend_inputs(d)), apply_superop(d, h), apply_superop(d, k)]
        return out + ([] if has_tick(d) else [interp(d)])

    @staticmethod
    def _cases(seed, count):
        rng = random.Random(seed)
        cases = []
        for _ in range(count):
            d = random_term(rng, max_gens=8)
            cases.append((d, random_hermitian(rng, d.n_in), random_matrix(rng, d.n_in, density=1.0)))
        return cases

    @staticmethod
    def _tables(d) -> list:
        """The tables every evaluation in `_results` steps through."""
        flats = [(flatten(bend_inputs(d)), True), (flatten(d), True)]
        return [t for flat, doubled in flats + ([] if has_tick(d) else [(flatten(d), False)]) for t in _netlist(flat, doubled)[0]]

    def test_cold_and_warm_stores_agree(self, monkeypatch):
        cases = self._cases(71, 50)
        cold = []
        for d, h, k in cases:
            _table.cache_clear()
            got = self._results(d, h, k)
            doubled = interp_sparse(unzip(d))
            want = [
                _unvec(interp_sparse(unzip(bend_inputs(d))), d.n_in + d.n_out),
                _unvec(doubled.matmul(_vec(h)), d.n_out),
                _unvec(doubled.matmul(_vec(k)), d.n_out),
            ]
            assert got[:3] == want
            if len(got) == 4:
                assert got[3] == interp_sparse(d)
            cold.append(got)
        assert sum(not k.is_hermitian() for _, _, k in cases) == len(cases)
        # Warm: each term again, rebuilt from its text in another order, so
        # every step is a fresh but equal one that finds its stored table.
        for d, h, k in cases:
            self._results(d, h, k)
        built = _count_tables(monkeypatch)
        order = list(range(len(cases)))
        random.Random(72).shuffle(order)
        for i in order:
            d, h, k = cases[i]
            assert self._results(parse_diagram(print_diagram(d)), h, k) == cold[i]
        assert built == []

    def test_cancelling_term_leaves_stored_tables_intact(self):
        cases = self._cases(73, 30)
        # (w 2 1) on (|0> + |1>)(|0> - |1>): the two |0> amplitudes cancel.
        plus, minus = ZSpider(ONE, 0, 1), ZSpider(MINUS_ONE, 0, 1)
        cancel = Compose(WSpider(2, 1), Tensor(plus, minus))
        # 2|-><-| through |x> -> (w 2 1)|x+>: the |0> amplitudes cancel again.
        rho = M([[ONE, MINUS_ONE], [MINUS_ONE, ONE]])
        spread = Compose(WSpider(2, 1), Tensor(Id, plus))

        def cancelling():
            assert interp(cancel) == M([[ZERO], [ONE]])
            assert state_operator(cancel) == M([[ZERO, ZERO], [ZERO, ONE]])
            assert state_operator(compose_many([cancel, not_gate, not_gate])) == M([[ZERO, ZERO], [ZERO, ONE]])
            assert apply_superop(spread, rho) == M([[ZERO, ZERO], [ZERO, ONE]])

        def own_tables():
            tables = _netlist(flatten(cancel), False)[0] + _netlist(flatten(cancel), True)[0]
            tables += _netlist(flatten(compose_many([cancel, not_gate, not_gate])), True)[0]
            return tables + _netlist(flatten(spread), True)[0]

        def snapshot(tables):
            return [
                (
                    t,
                    {c: list(rows) for c, rows in t.cols.items()},
                    {dead: {p: list(b) for p, b in live.items()} for dead, live in t.live.items()},
                )
                for t in tables
            ]

        def check(stored):
            for table, cols, live in stored:
                assert table.cols == cols
                assert {dead: {p: list(table.live[dead][p]) for p in kept} for dead, kept in live.items()} == live

        before = [self._results(d, h, k) for d, h, k in cases]
        # Every table as it stands before any cancelling term has run: the
        # cases' tables, and the cancelling terms' own, which have no branches
        # yet.  Branches are stored both with no masks (None) and under some.
        tables = [t for d, _, _ in cases for t in self._tables(d)] + own_tables()
        stored = snapshot(tables)
        assert any(None in live for *_, live in stored)
        assert any(dead is not None for *_, live in stored for dead in live)
        cancelling()
        check(stored)
        # Again, with the branches that first run filled in.
        stored = snapshot(tables)
        assert any(any(live.values()) for *_, live in snapshot(own_tables()))
        cancelling()
        check(stored)
        # The checks read the tables the evaluations use.
        again = [t for d, _, _ in cases for t in self._tables(d)] + own_tables()
        assert all(a is b for a, b in zip(tables, again, strict=True))
        assert [self._results(d, h, k) for d, h, k in cases] == before

    def test_runs_are_keyed_by_placement(self):
        _table.cache_clear()
        flip_low, flip_high = Tensor(Id, not_gate), Tensor(not_gate, Id)
        assert interp(flip_low) != interp(flip_high)
        assert interp(flip_low).entries == {(1, 0): ONE, (0, 1): ONE, (3, 2): ONE, (2, 3): ONE}
        assert interp(flip_high).entries == {(2, 0): ONE, (3, 1): ONE, (0, 2): ONE, (1, 3): ONE}
        (low,), (high,) = _netlist(flatten(flip_low), False)[0], _netlist(flatten(flip_high), False)[0]
        assert low is not high
        assert (low.run, low.lo) == ((not_gate,), 0) and (high.run, high.lo) == ((not_gate,), 1)
        assert _table.cache_info().currsize == 2
        # A term parsed again from its text finds the same tables.
        for d, want in ((flip_low, low), (flip_high, high)):
            (again,), _ = _netlist(flatten(parse_diagram(print_diagram(d))), False)
            assert again is want

    def test_equal_runs_share_a_table(self):
        # Runs parsed apart, with spider parameters built apart, find one table.
        pure = "(compose (tensor (z 1/2w^3 1 1) (w 1 2)) (compose swap (tensor (id 1) (z -w 1 1))))"
        ticked = f"(compose (tensor tick (id 2)) {pure})"
        for text, doubled in ((pure, False), (pure, True), (ticked, True)):
            (first, r1), (second, r2) = (_netlist(flatten(parse_diagram(text)), doubled) for _ in range(2))
            assert first and all(a is b for a, b in zip(first, second, strict=True)) and r1 == r2

    def test_store_never_exceeds_its_bound(self, monkeypatch):
        bound = semantics._STORE_SIZE
        assert _table.cache_info().maxsize == bound
        _table.cache_clear()
        scales = [Scalar(k + 2) for k in range(bound + 50)]

        def check(r):
            # A 0 -> 0 Z spider weighs 1 + r, so its step keeps its value as key.
            assert interp(ZSpider(r, 0, 0)) == M([[ONE + r]])

        for r in scales:
            check(r)
        assert _table.cache_info().currsize == bound
        # The least recently used step is dropped first: scales[50], the
        # oldest left, is used again, so scales[49] displaces scales[51].
        built = _count_tables(monkeypatch)
        check(scales[50])
        assert built == []
        check(scales[49])
        assert built == [0]
        check(scales[50])
        assert built == [0]
        check(scales[51])
        assert built == [0, 0]
        assert _table.cache_info().currsize == bound
        # One evaluation with more distinct steps than the store holds: each
        # 1 + r is cancelled by the 1 + s after it.
        chain = [ZSpider(r, 0, 0) for r in scales] + [ZSpider((ONE + r).inverse() - ONE, 0, 0) for r in scales]
        assert interp(tensor_many(chain)) == M([[ONE]])
        assert _table.cache_info().currsize == bound

    def test_new_coefficients_add_no_miss(self):
        # A normal form's Z nodes take the table of their shape, so a second
        # form with the same positions and new coefficients builds no table,
        # in the doubled sweep or in the pure sweep of its doubled term.
        nf = random_nf(random.Random(77), 3, density=0.6)
        again = NormalForm(nf.qubits, tuple(NFTerm(t.x, t.y, t.coeff * Scalar(-3)) for t in nf.terms))
        _table.cache_clear()

        def round_trips(form):
            for unreduced in (False, True):
                d = nf_to_diagram(form, unreduced=unreduced)
                assert state_operator(d) == nf_to_matrix(form)
            assert _unvec(interp(unzip(nf_to_diagram(form))), form.qubits) == nf_to_matrix(form)

        round_trips(nf)
        misses = _table.cache_info().misses
        round_trips(again)
        assert _table.cache_info().misses == misses
        assert len(nf.terms) >= 15 and _table.cache_info().currsize == misses

    def test_concurrent_evaluations_agree(self):
        # Four threads evaluate the same terms, each in its own order, from
        # a cold store, so they build and fill the same tables at once.
        cases = self._cases(74, 30)
        want = [self._results(d, h, k) for d, h, k in cases]
        uses = Counter(id(t) for d, _, _ in cases for t in {id(t): t for t in self._tables(d)}.values())
        assert sum(count > 1 for count in uses.values()) >= 10  # steps shared between terms
        orders = [random.Random(75 + i).sample(range(len(cases)), len(cases)) for i in range(4)]
        got: list = [None] * 4
        start = threading.Barrier(4)

        def work(i):
            start.wait(timeout=60)
            got[i] = {j: self._results(*cases[j]) for j in orders[i]}

        _table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for results in got:
            assert results is not None and [results[j] for j in range(len(cases))] == want

    def test_stored_branches_are_relabelled(self):
        # A table keeps its branches relabelled: they are the branches of
        # the same run with no relabelling, exchanged and then permuted.
        # Under the masks `_dead_patterns` gives a step of the term or of its
        # bent form, it keeps those branches but the ones with a dead
        # pattern on some output wire.
        rng = random.Random(76)
        checked = dropped = 0
        for _ in range(60):
            d = random_term(rng, max_wires=3, max_gens=8)
            for t in (d, bend_inputs(d)):
                steps, _ = _netlist(flatten(t), True)
                for step, masks in zip(steps, semantics._dead_patterns(steps) or ()):
                    if not masks:
                        continue
                    for cx in range(1 << step.n):
                        for cy in range(1 << step.n):
                            every = step.branches(cx, cy, None)
                            want = [
                                (r, s, c) for r, s, c in every
                                if not any(step.outs >> b & 1 and masks[2 * (r >> b & 1) + (s >> b & 1)] >> b & 1 for b in range(step.outs.bit_length()))
                            ]
                            assert list(step.branches(cx, cy, masks)) == want
                            dropped += len(every) - len(want)
            for step in _netlist(flatten(d), True)[0]:
                if not (step.exchange or step.moves):
                    continue
                plain = _table(step.run, step.lo, 0, ())
                back = tuple((dst, src) for src, dst in step.moves)
                exchange = _permute(step.exchange, step.moved, back)  # the exchange before the permutation
                for cx in range(1 << step.n):
                    for cy in range(1 << step.n):
                        want = []
                        for rx, ry, c in plain.branches(cx, cy, None):
                            e = (rx ^ ry) & exchange
                            want.append((_permute(rx ^ e, step.moved, step.moves), _permute(ry ^ e, step.moved, step.moves), c))
                        assert list(step.branches(cx, cy, None)) == want
                        checked += 1
        assert checked >= 100 and dropped >= 40


class TestBoundCoefficients:
    """A step whose run is one Z spider with legs and r != 0 binds r when it is applied."""

    # 1 and r conj(r) = 1 give the shared ONE; conj(i) = -i and conj(w) = -w^3
    # differ from i and w; 1 + sqrt(2) is real with r conj(r) != 1.  On the
    # diagonal 2 gives the reduced form's node 1, which carries half the entry.
    DIAGONAL = (ONE, MINUS_ONE, TWO, ONE + SQRT2)
    OFF_DIAGONAL = (ONE, MINUS_ONE, I, OMEGA, ONE + SQRT2)

    @classmethod
    def _recoefficient(cls, nf, rng, turn):
        """nf's positions with other coefficients: the special ones by turn, and now and then seeded ones."""
        terms = []
        for j, t in enumerate(nf.terms):
            pool = cls.DIAGONAL if t.x == t.y else cls.OFF_DIAGONAL
            k = (turn + j) % (len(pool) + 1)
            if k < len(pool):
                c = pool[k]
            else:
                c = random_real_scalar(rng, nonzero=True) if t.x == t.y else random_scalar(rng, nonzero=True)
            terms.append(NFTerm(t.x, t.y, c))
        return NormalForm(nf.qubits, tuple(terms))

    def test_fresh_coefficients_on_fixed_positions(self):
        # Forms on the same positions run one after another, from a cold
        # store, so each finds the tables the one before it filled.
        _table.cache_clear()
        rng = random.Random(91)
        used = set()
        for qubits in (1, 2, 3, 4):
            for _ in range(3 if qubits < 4 else 1):
                positions = random_nf(rng, qubits, density=rng.uniform(0.4, 0.8))
                for turn in range(3):
                    nf = self._recoefficient(positions, rng, turn)
                    want = nf_to_matrix(nf)
                    for unreduced in (False, True):
                        assert state_operator(nf_to_diagram(nf, unreduced=unreduced)) == want
                    used |= {t.coeff for t in nf.terms}
        assert set(self.DIAGONAL + self.OFF_DIAGONAL) <= used
        assert any(c.conj() != c for c in used - set(self.OFF_DIAGONAL))

    @pytest.mark.parametrize("qubits, seed, density", [(3, 92, 1.0), (4, 93, 0.5)])
    def test_doubled_sweep_matches_pure_sweep(self, qubits, seed, density):
        # The pure sweep of the doubled term binds r and conj(r) on separate
        # nodes and shares none of the doubled branches.
        rng = random.Random(seed)
        nf = self._recoefficient(random_nf(rng, qubits, density=density), rng, seed)
        d = nf_to_diagram(nf)
        assert state_operator(d) == _unvec(interp(unzip(d)), qubits) == nf_to_matrix(nf)


def _effect_rich_term(rng, max_wires=3, layers=4, wide=False):
    """Random term rich in the runs the dead-pattern pass starts from: cups,
    ground, effects (w n 0) and (z r n 0), (w 2 1), ticks, and now and then
    (z -1 0 0), a run whose only entry is 0.

    With `wide`, the term starts on at most one input wire and two states
    beside it, and a layer on four or more wires may hold one run with a
    zero column on more wires than the pass's groups span: (w 4 0),
    (w 4 1), (z r 4 0) or (z r 5 1).
    """

    def r():
        return rng.choice([ONE, MINUS_ONE, HALF, OMEGA, random_scalar(rng, nonzero=True)])

    one = [
        lambda: Tick, lambda: Tick, lambda: Id, lambda: ground, lambda: WSpider(1, 0), lambda: WSpider(1, 1),
        lambda: ZSpider(r(), 1, 0), lambda: ZSpider(r(), 1, 1), lambda: ZSpider(r(), 1, 2), lambda: WSpider(1, 2),
    ]
    two = [
        lambda: Cup, lambda: Cup, lambda: Swap, lambda: WSpider(2, 1), lambda: WSpider(2, 0),
        lambda: ZSpider(r(), 2, 0), lambda: ZSpider(r(), 2, 1),
    ]
    none = [lambda: Cap, lambda: ticked_cap, lambda: ZSpider(r(), 0, 1), lambda: WSpider(0, 1), lambda: WSpider(0, 2)]
    wider = [lambda: WSpider(4, 0), lambda: WSpider(4, 1), lambda: ZSpider(r(), 4, 0), lambda: ZSpider(r(), 5, 1)]
    d = id_n(rng.randint(0, 1 if wide else max_wires))
    if wide:
        d = tensor_many([d, rng.choice(none)(), rng.choice(none)()])
    for _ in range(layers):
        parts, left = [], d.n_out
        if wide and left >= 4 and rng.random() < 0.5:
            parts.append(rng.choice(wider if left >= 5 else wider[:3])())
            left -= parts[0].n_in
        while left:
            k = rng.choice([1, 1, 2]) if left >= 2 else 1
            parts.append(rng.choice(one if k == 1 else two)())
            left -= k
        if not parts or rng.random() < 0.3:
            parts.insert(rng.randint(0, len(parts)), rng.choice(none)())
        if rng.random() < 0.03:
            parts.append(ZSpider(MINUS_ONE, 0, 0))
        layer = tensor_many(parts)
        if layer.n_out <= max_wires:
            d = Compose(layer, d)
    return d


def _dead(d):
    return semantics._dead_patterns(_netlist(flatten(d), True)[0])


class TestDeadPatterns:
    """Dropping dead (ket, bra) patterns never changes a result."""

    def test_pruning_matches_reference(self):
        rng = random.Random(81)
        pruned = zero = skew = 0
        for _ in range(120):
            d = _effect_rich_term(rng)
            s = bend_inputs(d)
            for t in (s, d):
                dead = _dead(t)
                zero += dead is None
                pruned += any(dead or ())
            want = _unvec(interp_sparse(unzip(s)), s.n_out)
            assert choi(d) == want
            assert state_operator(s) == want
            doubled = interp_sparse(unzip(d))
            for rho in (random_hermitian(rng, d.n_in), random_matrix(rng, d.n_in, density=1.0)):
                skew += not rho.is_hermitian()
                assert apply_superop(d, rho) == _unvec(doubled.matmul(_vec(rho)), d.n_out)
        assert pruned >= 80 and zero >= 20 and skew >= 100

    def test_normal_forms_match_reference(self):
        # The reference is slow past one qubit: 2-qubit forms stay sparse,
        # and 3-qubit ones are checked against the form's own matrix.
        rng = random.Random(82)
        pruned = 0
        forms = [random_nf(rng, rng.randint(0, 1), density=rng.random()) for _ in range(24)]
        forms += [random_nf(rng, 2, density=0.2) for _ in range(3)]
        for nf in forms:
            for d in (nf_to_diagram(nf), nf_to_diagram(nf, unreduced=True)):
                pruned += any(_dead(d) or ())
                doubled = interp_sparse(unzip(d))
                want = _unvec(doubled, nf.qubits)
                assert state_operator(d) == want
                assert choi(d) == want
                # On the one-cell input rho = i, which is not Hermitian.
                assert apply_superop(d, M([[I]])) == _unvec(doubled.matmul(_vec(M([[I]]))), nf.qubits)
        assert pruned >= 30
        for _ in range(4):
            nf = random_nf(rng, 3, density=rng.random())
            for d in (nf_to_diagram(nf), nf_to_diagram(nf, unreduced=True)):
                assert state_operator(d) == nf_to_matrix(nf)

    def test_masks_are_symmetric(self):
        # Each step's masks mark 0 1 dead exactly where they mark 1 0, so a
        # branch and its mirror below the diagonal are dropped together.
        rng = random.Random(83)
        terms = [bend_inputs(_effect_rich_term(rng)) for _ in range(150)]
        terms += [nf_to_diagram(random_nf(rng, rng.randint(1, 3), density=rng.random()), unreduced=k % 2 == 1) for k in range(20)]
        steps = 0
        for d in terms:
            for masks in _dead(d) or ():
                if masks:
                    d00, d01, d10, d11 = masks
                    assert d01 == d10
                    steps += 1
        assert steps >= 1000

    def test_zero_run_gives_empty_result(self):
        zero = ZSpider(MINUS_ONE, 0, 0)
        rng = random.Random(84)
        for _ in range(20):
            d = _effect_rich_term(rng, layers=3)
            d = Compose(Tensor(zero, d), Tensor(id_n(d.n_in), zero))
            assert _dead(d) is None and _dead(bend_inputs(d)) is None
            assert choi(d).entries == {}
            assert apply_superop(d, random_matrix(rng, d.n_in, density=1.0)).entries == {}
            state = Compose(d, random_state(rng, max_wires=d.n_in, n_out=d.n_in))
            assert state_operator(state) == Matrix.zeros(1 << d.n_out, 1 << d.n_out)

    def test_wide_zero_column_runs(self):
        # A run with a zero column on more wires than `_GROUP_WIRES` starts
        # no group, and a group pulled back through it is dropped: the pass
        # prunes less there, never wrongly, and no group grows too wide.
        rng = random.Random(85)
        wide = pruned = 0
        seen = set()
        for _ in range(40):
            d = _effect_rich_term(rng, max_wires=5, layers=6, wide=True)
            s = bend_inputs(d)
            want = _unvec(interp_sparse(unzip(s)), s.n_out)
            assert choi(d) == want
            assert state_operator(s) == want
            doubled = interp_sparse(unzip(d))
            for rho in (random_hermitian(rng, d.n_in), random_matrix(rng, d.n_in, density=1.0)):
                assert apply_superop(d, rho) == _unvec(doubled.matmul(_vec(rho)), d.n_out)
            for t in (s, d):
                tables, rs = _netlist(flatten(t), True)
                wide += any(table.n > semantics._GROUP_WIRES and not table.full for table in tables)
                seen |= {(type(g), g.n_in, g.n_out) for table, r in zip(tables, rs) for g in _run_of(table, r) if g.n_in > semantics._GROUP_WIRES}
                pruned += any(_dead(t) or ())
                for table in tables:
                    for _, groups in table.transfers.values():
                        assert all(len(on) <= semantics._GROUP_WIRES for on, _ in groups or ())
        assert wide >= 30 and pruned >= 30
        assert seen == {(WSpider, 4, 0), (WSpider, 4, 1), (ZSpider, 4, 0), (ZSpider, 5, 1)}


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


class TestWiringDigest:
    """Every term the bent presentation, the internal adjoint and the normal
    form rebuild produce is pinned: a change to any wire layout changes the
    digest, even when the denoted map stays the same."""

    def test_pinned(self):
        rng = random.Random(7)
        h = hashlib.sha256()
        for _ in range(400):
            d = random_term(rng, max_wires=4)
            for t in (
                hp(d).pure,
                psi(unzip(d), d.n_in, d.n_out).pure,
                psi_inv(hp(d)),
                internal_dagger(d),
            ):
                h.update(print_diagram(t).encode())
        for _ in range(200):
            nf = random_nf(rng, rng.randint(0, 4), density=rng.random())
            for t in (nf_to_diagram(nf), nf_to_diagram(nf, unreduced=True)):
                h.update(print_diagram(t).encode())
        assert h.hexdigest() == (
            "1afd646a32f2534d8055941ce38731058c4d0d952683275b6980e3659fcba012"
        )


class TestPsd:
    def test_eliminates_over_sparse_rows(self, monkeypatch):
        # Dimension 4,096 with 4,096 nonzeros: no dense table is ever built.
        bell = choi(id_n(6))
        ticked = choi(tensor_many([Tick] + [Id] * 5))

        def dense(self):
            raise AssertionError("is_psd read a dense table")

        monkeypatch.setattr(Matrix, "data", property(dense))
        assert is_psd(bell) is True
        assert is_psd(ticked) is False
        # 4,096 pivots, one per diagonal entry; the last is negative.
        diagonal = {(i, i): ONE for i in range(4096)}
        assert is_psd(Matrix.from_entries(4096, 4096, diagonal)) is True
        diagonal[4095, 4095] = MINUS_ONE
        assert is_psd(Matrix.from_entries(4096, 4096, diagonal)) is False

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
