"""Term construction, arity discipline, duality, and the text form."""

import random

import pytest

from zwtick import (
    ArityError,
    Cap,
    Compose,
    Cup,
    DiagramParseError,
    Empty,
    Fswap,
    HALF,
    Id,
    OMEGA,
    ONE,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    apply_rule,
    bra0,
    bra1,
    compose_many,
    conjugate_term,
    dagger,
    generator_count,
    ground,
    has_tick,
    hp,
    id_n,
    interp,
    ket0,
    not_gate,
    parse_diagram,
    permutation_diagram,
    print_diagram,
    render_dot,
    rule_named,
    subdiagrams,
    tensor_many,
    ticked_cap,
    ticked_cup,
    transpose_term,
    unzip,
)
from zwtick.semantics import _int_compose, interp_sparse

from _support import random_term


class TestArities:
    def test_generators(self):
        assert (ZSpider(HALF, 2, 3).n_in, ZSpider(HALF, 2, 3).n_out) == (2, 3)
        assert (WSpider(1, 2).n_in, WSpider(1, 2).n_out) == (1, 2)
        assert (Fswap.n_in, Fswap.n_out) == (2, 2)
        assert (Tick.n_in, Tick.n_out) == (1, 1)
        assert (Cup.n_in, Cup.n_out) == (2, 0)
        assert (Cap.n_in, Cap.n_out) == (0, 2)
        assert (Empty.n_in, Empty.n_out) == (0, 0)

    def test_compose_checks_arity(self):
        with pytest.raises(ArityError):
            Compose(Tick, Cup)
        Compose(Cup, Cap)

    def test_negative_spider_arity_rejected(self):
        with pytest.raises(ArityError):
            ZSpider(ONE, -1, 0)
        with pytest.raises(ArityError):
            WSpider(0, -2)

    def test_tensor_adds(self):
        t = Tensor(WSpider(1, 2), ZSpider(ONE, 2, 0))
        assert (t.n_in, t.n_out) == (3, 2)

    def test_id_n(self):
        assert id_n(0) is Empty
        assert id_n(1) is Id
        assert id_n(3).n_in == 3

    def test_compose_many_order(self):
        d = compose_many([ket0, not_gate])
        assert (d.n_in, d.n_out) == (0, 1)
        assert interp(d).data[1][0] == ONE

    def test_tensor_many(self):
        assert tensor_many([]) is Empty
        assert tensor_many([Id, Id, Id]).n_in == 3


class TestDuality:
    def test_dagger_swaps_arity(self):
        d = WSpider(1, 2)
        assert (dagger(d).n_in, dagger(d).n_out) == (2, 1)

    def test_dagger_involution(self):
        rng = random.Random(3)
        for _ in range(30):
            d = random_term(rng)
            assert dagger(dagger(d)) == d

    def test_dagger_conjugates_phase(self):
        assert dagger(ZSpider(OMEGA, 1, 1)) == ZSpider(OMEGA.conj(), 1, 1)

    def test_transpose_is_conjugate_of_dagger(self):
        rng = random.Random(4)
        for _ in range(30):
            d = random_term(rng)
            assert transpose_term(d) == conjugate_term(dagger(d))

    def test_sugar_constants(self):
        assert (ground.n_in, ground.n_out) == (1, 0)
        assert (ticked_cup.n_in, ticked_cup.n_out) == (2, 0)
        assert ticked_cap == dagger(ticked_cup)
        assert (ket0.n_in, ket0.n_out) == (0, 1)
        assert (bra1.n_in, bra1.n_out) == (1, 0)


class TestQueries:
    def test_has_tick(self):
        assert has_tick(Tick)
        assert has_tick(ground)
        assert not has_tick(Compose(Cup, Cap))

    def test_generator_count(self):
        assert generator_count(Tick) == 1
        assert generator_count(Tensor(Tick, Compose(Cup, Cap))) == 3

    def test_subdiagrams_paths(self):
        d = Compose(Cup, Cap)
        found = dict(subdiagrams(d))
        assert found[()] == d
        assert found[(0,)] is Cup
        assert found[(1,)] is Cap


class TestPermutations:
    def test_identity_perm(self):
        assert permutation_diagram([0, 1, 2]) == id_n(3)

    def test_transposition_is_swap(self):
        assert interp(permutation_diagram([1, 0])) == interp(Swap)

    def test_three_cycle(self):
        # wire i goes to position perm[i]
        p = permutation_diagram([1, 2, 0])
        m = interp(p)
        # |100> (wire 0 high bit set) must land on |010>
        assert m.data[0b010][0b100] == ONE

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permutation_diagram([0, 0])


class TestTextForm:
    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(50):
            d = random_term(rng)
            assert parse_diagram(print_diagram(d)) == d

    def test_sugar_tokens(self):
        assert parse_diagram("tick") is Tick
        assert parse_diagram("not") == not_gate
        assert parse_diagram("ground") == ground
        assert parse_diagram("tcup") == ticked_cup
        assert parse_diagram("ket0") == ket0
        assert parse_diagram("bra0") == bra0

    def test_core_forms(self):
        assert parse_diagram("(z 1/2 1 2)") == ZSpider(HALF, 1, 2)
        assert parse_diagram("(w 2 1)") == WSpider(2, 1)
        assert parse_diagram("(id 2)") == id_n(2)
        assert parse_diagram("(compose cup cap)") == Compose(Cup, Cap)
        assert parse_diagram("(tensor tick tick)") == Tensor(Tick, Tick)

    def test_comments_ignored(self):
        assert parse_diagram("tick ; trailing words") is Tick

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(z 1 1)",
            "(frob 1)",
            "(compose tick cup)",
            "(id -1)",
            "tick tick",
            "(tensor tick",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(DiagramParseError):
            parse_diagram(bad)

    DEEP = "(compose (w 1 1) " * 1500 + "(w 1 1)"

    @pytest.mark.parametrize(
        "bad, message",
        [
            (DEEP + ")" * 1499, "expected ')', found '<end>'"),
            (DEEP + ")" * 1500 + " tick", "trailing tokens starting at 'tick'"),
            (
                DEEP.replace("(w 1 1)", "(w 2 1)", 1) + ")" * 1500,
                "compose mismatch: before produces 1 wires but after consumes 2",
            ),
            (
                DEEP[: -len("(w 1 1)")] + "(w 1 2)" + ")" * 1500,
                "compose mismatch: before produces 2 wires but after consumes 1",
            ),
            ("(tensor " * 1500, "unexpected end of input"),
        ],
        ids=["missing-paren", "trailing-token", "outer-arity", "inner-arity", "open-forms"],
    )
    def test_deep_parse_errors(self, bad, message):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(bad)
        assert str(exc.value) == message


class TestRenderDot:
    def test_mentions_nodes_and_ticks(self):
        src = render_dot(Compose(ZSpider(HALF, 1, 1), Tick))
        assert src.startswith("digraph")
        assert "Z(1/2)" in src
        assert "dashed" in src

    def test_pinned_output(self):
        # Node numbers follow the traversal order: before, then after.
        d = Compose(
            Tensor(Cup, Tick),
            Compose(Tensor(ZSpider(HALF, 1, 1), Fswap), Tensor(Cap, WSpider(1, 1))),
        )
        d = Tensor(d, Compose(Cup, Compose(Tensor(Tick, Tick), Cap)))
        assert render_dot(d) == (
            "digraph zw {\n"
            "  rankdir=BT;\n"
            '  n0 [label="W" shape=circle style=filled fillcolor=black fontcolor=white];\n'
            '  n1 [label="Z(1/2)" shape=ellipse style=filled fillcolor=white];\n'
            '  n2 [label="fswap" shape=box];\n'
            '  in0 [label="in 0" shape=plaintext];\n'
            '  out0 [label="out 0" shape=plaintext];\n'
            '  n3 [label="" shape=point];\n'
            "  n1 -> n2;\n"
            "  in0 -> n0;\n"
            "  n0 -> n2;\n"
            "  n2 -> n1;\n"
            '  n2 -> out0 [style=dashed label="∤"];\n'
            '  n3 -> n3 [style=dashed label="∤x2"];\n'
            "}\n"
        )

    def test_runs_on_random_terms(self):
        rng = random.Random(6)
        for _ in range(20):
            src = render_dot(random_term(rng))
            assert src.rstrip().endswith("}")


class TestDeepTerms:
    """Term operations on a 10,000-layer chain, far past the recursion limit.

    Deep terms are compared through their text, because the dataclass `==`
    and `hash` still recurse.  Each expected term is built by a plain loop.
    """

    LAYERS = 10_000
    Z = ZSpider(OMEGA, 1, 1)

    @pytest.fixture(scope="class")
    def chain(self):
        # Tick and Z(w) alternate on one wire; the tick runs first.
        return compose_many([Tick, self.Z] * (self.LAYERS // 2))

    def test_involutions(self, chain):
        zbar = ZSpider(OMEGA.conj(), 1, 1)
        # The dagger reverses the chain: it runs Z(w)^dagger first, the tick last.
        expected = Tick
        for k in range(1, self.LAYERS):
            expected = Compose(expected, zbar if k % 2 else Tick)
        assert print_diagram(dagger(chain)) == print_diagram(expected)
        conj = compose_many([Tick, zbar] * (self.LAYERS // 2))
        assert print_diagram(conjugate_term(chain)) == print_diagram(conj)
        assert print_diagram(transpose_term(chain)) == print_diagram(dagger(conj))

    def test_queries(self, chain):
        assert has_tick(chain)
        assert not has_tick(compose_many([self.Z] * self.LAYERS))
        assert generator_count(chain) == self.LAYERS

    def test_text_round_trip(self, chain):
        text = print_diagram(chain)
        assert text.count("(compose ") == self.LAYERS - 1
        assert print_diagram(parse_diagram(text)) == text

    def test_unzip_and_hp(self, chain):
        assert print_diagram(unzip(chain)) == print_diagram(
            compose_many([unzip(Tick), unzip(self.Z)] * (self.LAYERS // 2))
        )
        ht, hz = hp(Tick), hp(self.Z)
        expected = ht
        for k in range(1, self.LAYERS):
            expected = _int_compose(hz if k % 2 else ht, expected)
        got = hp(chain)
        assert (got.n, got.m) == (1, 1)
        assert print_diagram(got.pure) == print_diagram(expected.pure)

    def test_render_dot(self, chain):
        out = render_dot(chain)
        assert out.count("Z(w)") == self.LAYERS // 2
        # in0 -> n0 -> ... -> out0; every edge but the last carries one tick.
        assert out.count(" -> ") == self.LAYERS // 2 + 1
        assert out.count('[style=dashed label="∤"]') == self.LAYERS // 2

    def test_interp_sparse(self):
        # w^8 = 1, so 10,001 layers of Z(w) multiply the |1> entry by w.
        m = interp_sparse(compose_many([self.Z] * (self.LAYERS + 1)))
        assert (m.rows, m.cols) == (2, 2)
        assert m.entries == {(0, 0): ONE, (1, 1): OMEGA}

    def test_apply_rule_deep_in_the_chain(self):
        d = compose_many([self.Z] * self.LAYERS)
        # After 9,998 steps into `before`, the last two layers remain.
        pos = ("before",) * (self.LAYERS - 2)
        params = {"r": OMEGA, "s": OMEGA, "n": 1, "m": 1}
        out = apply_rule(d, rule_named("zs"), params, pos)
        expected = compose_many([ZSpider(OMEGA * OMEGA, 1, 1)] + [self.Z] * (self.LAYERS - 2))
        assert print_diagram(out) == print_diagram(expected)

    def test_left_nested_tensor(self):
        parts = [self.Z, Tick] * (self.LAYERS // 2)
        d = tensor_many(parts)
        text = print_diagram(d)
        assert text.startswith("(tensor " * (self.LAYERS - 1))
        assert print_diagram(parse_diagram(text)) == text
        expected = tensor_many([dagger(p) for p in parts])
        assert print_diagram(dagger(d)) == print_diagram(expected)
