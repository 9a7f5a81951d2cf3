"""Term construction, arity discipline, duality, and the text form."""

import copy
import dataclasses
import pickle
import random
import sys
import threading

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
    NFTerm,
    NormalForm,
    NormalFormError,
    OMEGA,
    ONE,
    Scalar,
    ScalarParseError,
    SemanticsError,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    apply_rule,
    bend_cap,
    bend_cup,
    bra0,
    bra1,
    choi,
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
    nf_to_diagram,
    nf_to_matrix,
    not_gate,
    parse_diagram,
    parse_matrix,
    parse_nf,
    parse_scalar,
    permutation_diagram,
    print_diagram,
    render_dot,
    rule_named,
    state_operator,
    subdiagrams,
    subterm_at,
    tensor_many,
    ticked_cap,
    ticked_cup,
    transpose_term,
    unzip,
)
from zwtick import diagram
from zwtick.diagram import _SUGAR, flatten, interleave, route, wires
from zwtick.normalform import _term_wiring
from zwtick.program import Program
from zwtick.semantics import _int_compose, interp_sparse

from _support import flatten_reference, nf_to_diagram_reference, parse_diagram_reference, random_nf, random_term


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

    def test_compose_many_of_nothing(self):
        assert compose_many([]) is Empty

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

    @pytest.mark.parametrize("n", range(4))
    def test_bend_cup_is_the_transposed_bend_cap(self, n):
        cup = bend_cup(n)
        assert (cup.n_in, cup.n_out) == (2 * n, 0)
        assert interp(cup) == interp(bend_cap(n)).transpose()


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


class TestEquality:
    def test_structural_on_random_terms(self):
        # Equal exactly when the printed terms are; equal terms hash alike.
        rng = random.Random(40)
        terms = [random_term(rng, max_gens=6) for _ in range(150)]
        terms += [parse_diagram(print_diagram(d)) for d in terms[:50]]
        for _ in range(600):
            a, b = rng.choice(terms), rng.choice(terms)
            same = print_diagram(a) == print_diagram(b)
            assert (a == b) is same and (b == a) is same
            if same:
                assert hash(a) == hash(b)

    def test_generators_and_other_types(self):
        assert ZSpider(HALF, 1, 2) == ZSpider(HALF, 1, 2) != ZSpider(HALF, 2, 1)
        assert WSpider(1, 2) != ZSpider(ONE, 1, 2) and Swap != Fswap
        assert Tensor(Id, Cup) != Compose(Id, Id) and (Id == "(id 1)") is False
        assert len({ZSpider(HALF, 1, 1), ZSpider(HALF, 1, 1), Tick, Tick}) == 2

    def test_composites_and_other_types(self):
        d = Compose(not_gate, ket0)
        assert (d == 1) is False and (1 == d) is False and d != 1

    def test_kept_hashes_that_differ_decide_at_once(self, monkeypatch):
        # Two composites whose hashes are kept and differ are unequal
        # before either's children are read.
        a, b = Compose(not_gate, ket0), Compose(not_gate, not_gate)
        hash(a), hash(b)
        assert a._hash != b._hash
        monkeypatch.setattr(diagram, "_children", lambda node: pytest.fail("children read"))
        assert (a == b) is False and (b == a) is False

    def test_generators_are_values(self):
        # Separately built equal generators are equal and hash alike.
        for a, b in (
            (ZSpider(parse_scalar("1/2w"), 2, 1), ZSpider(HALF * OMEGA, 2, 1)),
            (WSpider(1, 3), parse_diagram("(w 1 3)")),
        ):
            assert a is not b and a == b and hash(a) == hash(b)
        # A fixed generator copies and pickles to its singleton.
        for g in (Id, Swap, Fswap, Cup, Cap, Tick, Empty):
            for copy_ in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
                assert copy_(g) is g
        # A generator never equals a composite, even one denoting the same map.
        z = ZSpider(HALF, 1, 1)
        for composite in (Compose(z, Id), Compose(Id, z), Tensor(z, Empty), Tensor(Empty, z)):
            assert (z == composite) is False and (composite == z) is False
            assert z != composite and composite != z

    def test_repr_reads_like_the_fields(self):
        assert repr(Compose(Tick, Tensor(Id, Empty))) == (
            "Compose(n_in=1, n_out=1, after=_Fixed(n_in=1, n_out=1, text='tick', arity=(1, 1)), "
            "before=Tensor(n_in=1, n_out=1, left=_Fixed(n_in=1, n_out=1, text='(id 1)', arity=(1, 1)), "
            "right=_Fixed(n_in=0, n_out=0, text='(id 0)', arity=(0, 0))))"
        )

    def test_copies_drop_the_kept_hash(self):
        d = Compose(not_gate, ket0)
        hash(d)
        copied = pickle.loads(pickle.dumps(d))
        assert copied == d and "_hash" not in vars(copied) and hash(copied) == hash(d)
        # The seven fixed generators copy to themselves: layers dispatch by identity.
        d = Compose(
            Tensor(Cup, Fswap),
            Tensor(Tensor(Tick, Id), Compose(Swap, Tensor(Cap, Empty))),
        )
        hash(d)
        routes = (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)))
        for route_ in routes:
            copied = route_(d)
            assert copied == d and "_hash" not in vars(copied)
            for (path, g), (_, h) in zip(subdiagrams(d), subdiagrams(copied)):
                if g in (Cup, Cap, Fswap, Swap, Tick, Id, Empty):
                    assert h is g, path
            assert choi(copied) == choi(d)

    def test_shared_subterms_compare_in_linear_time(self):
        def shared(leaf, first_leaf, depth):
            # d doubles in every layer; e is d with its first-applied leaf replaced.
            d, e = leaf, first_leaf
            for _ in range(depth):
                d, e = Compose(d, d), Compose(d, e)
            return d, e

        a, _ = shared(WSpider(1, 1), Tick, 40)
        b, c = shared(WSpider(1, 1), ZSpider(HALF, 1, 1), 40)
        assert a == b and b == a
        assert a != c and c != a


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
        with pytest.raises(ValueError):
            permutation_diagram([1, 2])


def _spine(d):
    """The layers of a chain of `Compose` nodes, last applied first."""
    layers = []
    while isinstance(d, Compose):
        layers.append(d.after)
        d = d.before
    return layers + [d]


class TestSharedBuilders:
    """Swap networks, wire bundles and normal-form layers are built once and shared."""

    def test_networks_are_shared_and_equal_to_hand_built_ones(self):
        net = permutation_diagram([1, 2, 0])
        assert permutation_diagram((1, 2, 0)) is net
        assert route(["a", "b", "c"], ["c", "a", "b"]) is net
        hand = Compose(Tensor(Swap, Id), Tensor(Id, Swap))
        assert net == hand and hash(net) == hash(hand)
        assert print_diagram(net) == print_diagram(hand)
        bundle = Tensor(Id, Tensor(Id, Tensor(Id, Id)))
        assert id_n(4) is id_n(4) and id_n(4) == bundle and hash(id_n(4)) == hash(bundle)
        assert permutation_diagram([0, 1, 2]) is id_n(3)
        assert id_n(1) is Id and id_n(0) is Empty
        with pytest.raises(ArityError):
            id_n(-1)

    def test_nf_rebuilds_share_their_wiring_layers(self):
        nf = random_nf(random.Random(5), 3, density=0.6)
        a, b = nf_to_diagram(nf), nf_to_diagram(nf)
        assert a is not b and a == b
        la, lb = _spine(a), _spine(b)
        assert len(la) == 4 * len(nf.terms) + 2
        assert la[0] is not lb[0] and la[-1] is not lb[-1]  # the plug layer and the kets
        for i in range(len(nf.terms)):
            merge, routing, ticks, node = la[1 + 4 * i : 5 + 4 * i]
            assert merge is lb[1 + 4 * i] and routing is lb[2 + 4 * i] and ticks is lb[3 + 4 * i]
            assert node is not lb[4 + 4 * i] and node.left is lb[4 + 4 * i].left

    def test_new_coefficients_reuse_the_wiring(self):
        # A term's wiring depends on its entry's position only, so a second
        # form with the same positions and new coefficients builds none.
        nf = random_nf(random.Random(78), 3, density=0.6)
        again = NormalForm(nf.qubits, tuple(NFTerm(t.x, t.y, t.coeff * Scalar(-3)) for t in nf.terms))
        for unreduced in (False, True):
            nf_to_diagram(nf, unreduced=unreduced)
        misses = _term_wiring.cache_info().misses
        for unreduced in (False, True):
            d = nf_to_diagram(again, unreduced=unreduced)
            assert flatten(d) == flatten_reference(d)
        assert _term_wiring.cache_info().misses == misses
        assert len(nf.terms) >= 15

    def test_kept_lists_stay_on_composite_nodes(self):
        # Fill the caches first: anything a builder kept on a generator would show below.
        rebuilt = nf_to_diagram(random_nf(random.Random(6), 2))
        for g in (Id, Empty, Swap, Fswap, Tick, Cup, Cap):
            assert "_kept" not in vars(g)
        net = permutation_diagram([2, 0, 1])
        assert "_kept" not in vars(net) and "_kept" not in vars(id_n(5)) and "_kept" in vars(rebuilt)
        assert type(rebuilt._kept) is Program and net._kept is None and id_n(5)._kept is None
        for copy_ in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
            for d in (net, id_n(5), Tensor(net, id_n(5)), rebuilt):
                copied = copy_(d)
                assert copied == d and copied is not d and "_kept" not in vars(copied)
                assert flatten(copied) == flatten(d)


def _deferred_forms() -> list:
    """Seeded forms on 0-4 qubits, with the empty 0-qubit form and every position on 4 qubits."""
    rng = random.Random(161)
    forms = [random_nf(rng, qubits, density=rng.uniform(0.2, 0.9)) for qubits in (0, 0, 1, 1, 2, 2, 3, 3, 4)]
    return forms + [NormalForm(0, ()), random_nf(random.Random(131), 4, density=1.0)]


def _walk_path(rng: random.Random, d) -> list:
    """A random path of child names from d down to a leaf."""
    path = []
    while isinstance(d, (Compose, Tensor)):
        path.append(rng.choice(("after", "before") if isinstance(d, Compose) else ("left", "right")))
        d = getattr(d, path[-1])
    return path


class TestDeferredTerm:
    """`nf_to_diagram` builds its term the first time something reads it, and the
    term it builds is the one the eager loop (`nf_to_diagram_reference`) builds."""

    def test_reads_agree_with_the_eager_term(self):
        rng = random.Random(162)
        for nf in _deferred_forms():
            for unreduced in (False, True):
                want = nf_to_diagram_reference(nf, unreduced)

                def fresh():
                    d = nf_to_diagram(nf, unreduced)
                    assert type(d) is Compose and "after" not in vars(d) and "before" not in vars(d)
                    return d

                assert fresh() == want and want == fresh()
                assert hash(fresh()) == hash(want)
                assert print_diagram(fresh()) == print_diagram(want) and repr(fresh()) == repr(want)
                for copy_ in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
                    copied = copy_(fresh())
                    assert copied == want and type(copied) is Compose and "_build" not in vars(copied)
                assert dataclasses.replace(fresh()) == want
                assert dataclasses.replace(fresh(), after=want.after) == want
                for _ in range(4):
                    path = _walk_path(rng, want)
                    assert subterm_at(fresh(), path) == subterm_at(want, path)
                d = fresh()
                assert flatten(d) == flatten_reference(want)
                assert "after" not in vars(d)
                assert flatten_reference(d) == flatten_reference(want)
                # Once read, the children are plain attributes and the builder is gone.
                assert vars(d)["after"] == want.after and vars(d)["_build"] is None

    def test_round_trip_builds_no_composite_node(self, monkeypatch):
        forms = _deferred_forms()
        assert any(nf.qubits == 0 for nf in forms)
        # Fill the shared builders first: each position's layers are built once.
        for nf in forms:
            for unreduced in (False, True):
                state_operator(nf_to_diagram(nf, unreduced))
        built = []
        for cls in (Compose, Tensor):

            def counted(self, post_init=cls.__post_init__):
                built.append(type(self))
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        for nf in forms:
            for unreduced in (False, True):
                d = nf_to_diagram(nf, unreduced)
                assert state_operator(d) == nf_to_matrix(nf)
                assert "after" not in vars(d)
        assert built == []
        # The counters see the term once it is read.
        print_diagram(d)
        assert Compose in built and Tensor in built

    def test_threads_read_one_deferred_form(self):
        nf = random_nf(random.Random(131), 4, density=1.0)
        for unreduced in (False, True):
            want = nf_to_diagram_reference(nf, unreduced)
            d = nf_to_diagram(nf, unreduced)
            got: list = [None] * 4
            start = threading.Barrier(4)

            def work(i):
                start.wait(timeout=60)
                got[i] = hash(d), print_diagram(d)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert got == [(hash(want), print_diagram(want))] * 4


class TestFlatten:
    """`flatten` against the node-by-node walk that ignores kept lists."""

    def test_random_terms(self):
        rng = random.Random(41)
        for _ in range(300):
            d = random_term(rng, max_wires=4)
            assert flatten(d) == flatten_reference(d)

    def test_nf_rebuilds(self):
        rng = random.Random(42)
        for _ in range(40):
            nf = random_nf(rng, rng.randint(0, 4), density=rng.random())
            for d in (nf_to_diagram(nf), nf_to_diagram(nf, unreduced=True)):
                assert flatten(d) == flatten_reference(d)
                # Its kept list spliced in below and beside other wires.
                under = Compose(random_term(rng, max_wires=4, n_in=d.n_out), d)
                for t in (Tensor(Id, d), Tensor(d, id_n(2)), under):
                    assert flatten(t) == flatten_reference(t)

    def test_shared_networks_at_offsets(self):
        net = route(["a", "b", "c"], ["c", "b", "a"])
        split = ZSpider(ONE, 1, 3)
        cases = [
            net,
            Tensor(id_n(2), net),
            Tensor(net, id_n(1)),
            Tensor(net, net),
            Tensor(Tensor(split, net), Id),  # the spider widens the wires before the network
            Tensor(Tensor(net, ZSpider(ONE, 1, 0)), Id),  # and narrows them after
            Compose(Tensor(net, id_n(2)), Tensor(Tensor(Id, split), Id)),
            Compose(Tensor(Cup, net), Tensor(Tensor(Id, split), Id)),
            Compose(Tensor(Id, Tensor(bend_cap(2), id_n(3))), Tensor(Id, Tensor(net, Cup))),
        ]
        for d in cases:
            assert flatten(d) == flatten_reference(d), print_diagram(d)
        # Shifted by the wires below it: the swaps of `net` move down by one.
        assert flatten(Tensor(net, Id)) == [(g, lo + 1) for g, lo in flatten(net)]

    def test_random_terms_around_shared_networks(self):
        rng = random.Random(43)
        for _ in range(200):
            d = random_term(rng, max_wires=4)
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(0, d.n_out)
                below = rng.randint(0, d.n_out - k)
                net = permutation_diagram(rng.sample(range(k), k))
                layer = tensor_many([id_n(d.n_out - k - below), net, id_n(below)])
                d = Compose(random_term(rng, max_wires=5, n_in=d.n_out), Compose(layer, d))
            assert flatten(d) == flatten_reference(d)


class TestRoute:
    def test_matches_permutation_diagram(self):
        rng = random.Random(29)
        perms = [[], [0], list(range(8))]
        perms += [rng.sample(range(k), k) for k in (rng.randint(0, 8) for _ in range(197))]
        for perm in perms:
            src = [f"w{i}" for i in range(len(perm))]
            dst = [src[perm.index(k)] for k in range(len(perm))]
            assert print_diagram(route(src, dst)) == print_diagram(permutation_diagram(perm))

    def test_labels(self):
        assert wires("k", 3) == [("k", 0), ("k", 1), ("k", 2)]
        assert wires("k", 0) == []
        assert interleave([1, 2, 3], ["a", "b", "c"]) == [1, "a", 2, "b", 3, "c"]

    def test_block_swap(self):
        # (x0, y0, y1) -> (y0, y1, x0): x0 ends at the bottom.
        x, y = wires("x", 1), wires("y", 2)
        assert route(x + y, y + x) == permutation_diagram([2, 0, 1])


class TestAsciiDigits:
    """Numbers and bitstrings are ASCII only; other digits are each parser's own error."""

    @pytest.mark.parametrize(
        "parse, text, error",
        [
            (parse_diagram, "(z \u0661 1 1)", DiagramParseError),
            (parse_diagram, "(id \u00b2)", DiagramParseError),
            (parse_diagram, "(w 1 \u0662)", DiagramParseError),
            (parse_scalar, "\u00b2", ScalarParseError),
            (parse_scalar, "1/\u0662", ScalarParseError),
            (parse_scalar, "\u0663w", ScalarParseError),
            (parse_matrix, "1 \u00b2\n1", SemanticsError),
            (parse_matrix, "\u0661 1\n1", SemanticsError),
            (parse_matrix, "1 1\n\u0661", SemanticsError),
            (parse_nf, "n 1_0\n", NormalFormError),
            (parse_nf, "n +1\n", NormalFormError),
            (parse_nf, "n \u0661\n", NormalFormError),
            (parse_nf, "n -1\n", NormalFormError),
            (parse_nf, "n 3\n0_1 001 1", NormalFormError),
            (parse_nf, "n 2\n+1 01 1", NormalFormError),
            (parse_nf, "n 1\n1 \u0661 1", NormalFormError),
            (parse_nf, "n 2\n12 01 1", NormalFormError),
        ],
    )
    def test_rejects_non_ascii_digits(self, parse, text, error):
        with pytest.raises(error):
            parse(text)

    def test_ascii_digits_still_parse(self):
        assert parse_diagram("(z 1/2 1 2)") == ZSpider(HALF, 1, 2)
        assert parse_scalar("10/3w^2") == parse_scalar("10/3") * OMEGA * OMEGA
        assert parse_matrix("1 1\n1").rows == 1
        assert parse_nf("n 2\n01 10 1").terms[0].y == 0b10


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
        for g in (Fswap, Tick, Id, Swap, Cup, Cap, Empty):
            assert parse_diagram(print_diagram(g)) is g

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
    DEEP_ERRORS = [
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
    ]

    @pytest.mark.parametrize(
        "bad, message",
        DEEP_ERRORS,
        ids=["missing-paren", "trailing-token", "outer-arity", "inner-arity", "open-forms"],
    )
    def test_deep_parse_errors(self, bad, message):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(bad)
        assert str(exc.value) == message

    # Pieces of diagram text, valid and not.  Random strings of them, and
    # printed random terms with pieces swapped in or out, reach every branch
    # of the grammar, `;` comments, `\r`, `\r\n` and form-feed line breaks,
    # and non-ASCII digits included.
    PIECES = ("(", ")", "compose", "tensor", "id", "z", "w", *_SUGAR, "0", "1", "2", "3", "10", "-1", "1/2", "w^2", "1/0", "q", "\u0661", "\u00b2", "; note", ";")
    GAPS = (" ", " ", " ", "", "\n", "\r", "\r\n", "\x0c", "\t")

    @staticmethod
    def _outcome(parse, text):
        try:
            return parse(text)
        except Exception as exc:  # the two readers must fail alike, whatever the error
            return type(exc), str(exc)

    def test_matches_reference_reader(self):
        rng = random.Random(21)
        texts = [bad for bad, _ in self.DEEP_ERRORS]
        for _ in range(20_000):
            if rng.random() < 0.5:
                pieces = print_diagram(random_term(rng)).replace("(", "( ").replace(")", " )").split()
            else:
                pieces = rng.choices(self.PIECES, k=rng.randint(1, 12))
            for _ in range(rng.choice((0, 0, 1, 2))):
                k = rng.randrange(len(pieces) + 1)
                op = rng.randrange(3)
                if op == 0:
                    pieces[k:k] = [rng.choice(self.PIECES)]
                elif op == 1:
                    del pieces[k : k + 1]
                else:
                    pieces[k : k + 1] = [rng.choice(self.PIECES)]
            texts.append("".join(p + rng.choice(self.GAPS) for p in pieces))
        accepted = 0
        for text in texts:
            got = self._outcome(parse_diagram, text)
            assert got == self._outcome(parse_diagram_reference, text), repr(text)
            accepted += not isinstance(got, tuple)
        assert 2_000 < accepted < len(texts) - 2_000


class TestRenderDot:
    def test_mentions_nodes_and_ticks(self):
        src = render_dot(Compose(ZSpider(HALF, 1, 1), Tick))
        assert src.startswith("digraph")
        assert "Z(1/2)" in src
        assert "dashed" in src

    @pytest.mark.parametrize(
        "d, expected",
        [
            pytest.param(
                Tensor(
                    Compose(
                        Tensor(Cup, Tick),
                        Compose(Tensor(ZSpider(HALF, 1, 1), Fswap), Tensor(Cap, WSpider(1, 1))),
                    ),
                    Compose(Cup, Compose(Tensor(Tick, Tick), Cap)),
                ),
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
                "}\n",
                id="mixed",
            ),
            pytest.param(
                Id,
                "digraph zw {\n"
                "  rankdir=BT;\n"
                '  in0 [label="in 0" shape=plaintext];\n'
                '  out0 [label="out 0" shape=plaintext];\n'
                "  in0 -> out0;\n"
                "}\n",
                id="wire",
            ),
            pytest.param(
                Compose(Cup, Cap),
                "digraph zw {\n"
                "  rankdir=BT;\n"
                '  n0 [label="" shape=point];\n'
                "  n0 -> n0;\n"
                "}\n",
                id="loop",
            ),
            pytest.param(
                parse_diagram(
                    "(compose (tensor (id 1) cup)"
                    " (compose (tensor (id 1) (tensor tick (id 1))) (tensor cap (id 1))))"
                ),
                "digraph zw {\n"
                "  rankdir=BT;\n"
                '  in0 [label="in 0" shape=plaintext];\n'
                '  out0 [label="out 0" shape=plaintext];\n'
                '  in0 -> out0 [style=dashed label="∤"];\n'
                "}\n",
                id="snake-through-tick",
            ),
            pytest.param(
                parse_diagram(
                    "(compose (tensor (z 1/2 1 1) (w 1 1))"
                    " (compose swap (tensor (w 1 1) (z w 1 1))))"
                ),
                "digraph zw {\n"
                "  rankdir=BT;\n"
                '  n0 [label="W" shape=circle style=filled fillcolor=black fontcolor=white];\n'
                '  n1 [label="Z(w)" shape=ellipse style=filled fillcolor=white];\n'
                '  n2 [label="Z(1/2)" shape=ellipse style=filled fillcolor=white];\n'
                '  n3 [label="W" shape=circle style=filled fillcolor=black fontcolor=white];\n'
                '  in0 [label="in 0" shape=plaintext];\n'
                '  in1 [label="in 1" shape=plaintext];\n'
                '  out0 [label="out 0" shape=plaintext];\n'
                '  out1 [label="out 1" shape=plaintext];\n'
                "  in0 -> n0;\n"
                "  n0 -> n3;\n"
                "  in1 -> n1;\n"
                "  n1 -> n2;\n"
                "  n2 -> out0;\n"
                "  n3 -> out1;\n"
                "}\n",
                id="spiders-at-both-boundaries",
            ),
        ],
    )
    def test_pinned_output(self, d, expected):
        # Node numbers follow the traversal order: before, then after.
        assert render_dot(d) == expected

    def test_runs_on_random_terms(self):
        rng = random.Random(6)
        for _ in range(20):
            src = render_dot(random_term(rng))
            assert src.rstrip().endswith("}")


class TestDeepTerms:
    """Term operations on a 10,000-layer chain, far past the recursion limit.

    Each expected term is built by a plain loop.
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

    def test_equality_hash_and_repr(self, chain):
        again = compose_many([Tick, ZSpider(OMEGA, 1, 1)] * (self.LAYERS // 2))
        assert chain == again and again == chain
        assert hash(chain) == hash(again)
        assert {chain: 1}[again] == 1
        # The terms differ only in the generator applied first.
        other = compose_many([WSpider(1, 1), self.Z] + [Tick, self.Z] * (self.LAYERS // 2 - 1))
        assert chain != other and other not in {chain: 1}
        shown = repr(chain)
        assert shown.count("Compose(") == self.LAYERS - 1
        assert shown.startswith("Compose(n_in=1, n_out=1, after=ZSpider(")

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

    def test_pickle_and_deepcopy(self):
        chain = compose_many([not_gate] * self.LAYERS)
        dag = WSpider(1, 1)
        for _ in range(40):  # 2^40 leaves, 41 distinct nodes
            dag = Compose(dag, dag)
        for d in (chain, dag):
            hash(d)
            for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
                assert copied is not d and copied == d and hash(copied) == hash(d)
        copied = pickle.loads(pickle.dumps(dag))
        assert copied.after is copied.before and copied.after.after is copied.after.before
        assert len(pickle.dumps(dag)) < 2_000

    def test_left_nested_tensor(self):
        parts = [self.Z, Tick] * (self.LAYERS // 2)
        d = tensor_many(parts)
        text = print_diagram(d)
        assert text.startswith("(tensor " * (self.LAYERS - 1))
        assert print_diagram(parse_diagram(text)) == text
        expected = tensor_many([dagger(p) for p in parts])
        assert print_diagram(dagger(d)) == print_diagram(expected)
