"""Rule schemas, semantic certification, and positional rewriting."""

import json
import random
from dataclasses import replace

import pytest

from zwtick import (
    Cap,
    Compose,
    Cup,
    HALF,
    Id,
    MINUS_ONE,
    MatchError,
    ONE,
    RULES,
    RULES_BY_NAME,
    RuleError,
    RuleSchema,
    Scalar,
    Tensor,
    Tick,
    WSpider,
    ZERO,
    ZSpider,
    apply_rule,
    canonical_of_map,
    check_corpus,
    check_soundness,
    compose_many,
    diagrams_equal,
    first_difference,
    id_n,
    instantiate,
    lemma_corpus,
    not_gate,
    rule_named,
    subterm_at,
)
from zwtick.diagram import fold
from zwtick.rules import _assoc_key, _certify

from _support import assoc_key_reference, random_term


class TestSchemas:
    def test_names_unique(self):
        names = [r.name for r in RULES]
        assert len(names) == len(set(names))
        assert RULES_BY_NAME["zs"] is rule_named("zs")

    def test_unknown_rule(self):
        with pytest.raises(RuleError):
            rule_named("nope")

    def test_instances_are_arity_consistent(self):
        lhs, rhs = instantiate(rule_named("zs"), {"r": HALF, "s": MINUS_ONE, "n": 2, "m": 1})
        assert (lhs.n_in, lhs.n_out) == (rhs.n_in, rhs.n_out) == (2, 1)

    def test_rejects_missing_params(self):
        with pytest.raises(RuleError):
            instantiate(rule_named("zs"), {"r": HALF})

    def test_rejects_extra_params(self):
        with pytest.raises(RuleError):
            instantiate(rule_named("id"), {"n": 1})

    def test_rejects_bad_kinds(self):
        with pytest.raises(RuleError):
            instantiate(rule_named("zs"), {"r": 1, "s": HALF, "n": 0, "m": 0})
        with pytest.raises(RuleError):
            instantiate(rule_named("zs"), {"r": HALF, "s": HALF, "n": 0, "m": 9})

    def test_side_condition(self):
        with pytest.raises(RuleError):
            instantiate(rule_named("b"), {"n": 0, "m": 1})
        instantiate(rule_named("b"), {"n": 0, "m": 0})
        instantiate(rule_named("b"), {"n": 2, "m": 0})


class TestCertification:
    def test_every_schema_is_sound(self):
        report = check_soundness()
        bad = [e.line() for e in report.entries if not e.ok]
        assert report.all_pass, bad
        assert report.total > 1000

    def test_deterministic_under_seed(self):
        assert check_soundness(seed=3).entries == check_soundness(seed=3).entries

    def test_report_shape(self):
        report = check_corpus()
        assert report.total >= 30
        assert report.all_pass
        last = report.lines()[-1]
        assert last == f"total {report.total} pass {report.passed} fail {report.failed}"
        assert last == f"total {len(report.entries)} pass {report.total} fail 0"
        assert all(json.loads(json.dumps(e.as_dict()))["ok"] for e in report.entries)

    def test_corpus_names_unique(self):
        names = [e.name for e in lemma_corpus()]
        assert len(names) == len(set(names))

    def test_corpus_entries_semantically_equal(self):
        for entry in lemma_corpus()[:8]:
            assert canonical_of_map(entry.lhs) == canonical_of_map(entry.rhs), entry.name


class TestRewriting:
    def test_fusion_at_root(self):
        d = Compose(ZSpider(MINUS_ONE, 1, 2), ZSpider(HALF, 1, 1))
        out = apply_rule(d, rule_named("zs"), {"r": HALF, "s": MINUS_ONE, "n": 1, "m": 2})
        assert out == ZSpider(HALF * MINUS_ONE, 1, 2)
        assert diagrams_equal(d, out)

    def test_reverse_direction(self):
        d = ZSpider(HALF, 1, 1)
        out = apply_rule(
            d,
            rule_named("zs"),
            {"r": HALF, "s": ONE, "n": 1, "m": 1},
            direction="rl",
        )
        assert isinstance(out, Compose)
        assert diagrams_equal(d, out)

    def test_positional_rewrite(self):
        inner = Compose(ZSpider(ONE, 1, 1), Tick)
        d = Compose(Tick, inner)
        assert subterm_at(d, ("before",)) == inner
        out = apply_rule(
            d,
            rule_named("id"),
            {},
            position=("before", "after"),
        )
        assert out == Compose(Tick, Compose(Id, Tick))
        assert diagrams_equal(out, d)

    def test_no_match_reports_location(self):
        with pytest.raises(MatchError) as exc:
            apply_rule(Tick, rule_named("id"), {})
        assert "no match" in str(exc.value)

    def test_bad_position(self):
        with pytest.raises(MatchError, match="found tick$"):
            subterm_at(Tick, ("after",))

    def test_bialgebra_round_trip(self):
        base = Compose(WSpider(1, 2), ZSpider(ONE, 1, 1))
        out = apply_rule(base, rule_named("b"), {"n": 1, "m": 2})
        assert out != base
        assert diagrams_equal(out, base)
        back = apply_rule(
            out, rule_named("b"), {"n": 1, "m": 2}, direction="rl"
        )
        assert back == base


class TestStructuralRules:
    def test_snake(self):
        lhs, rhs = instantiate(rule_named("snake"), {})
        assert diagrams_equal(lhs, rhs)
        assert rhs == Id or lhs == Id

    def test_tick_rules_present(self):
        for name in ("nz", "nw", "nf", "tl", "tick-snake"):
            rule_named(name)

    def test_normal_form_rules_present(self):
        for name in ("zt", "td", "th"):
            rule_named(name)


class TestCertificationReport:
    def test_entries_carry_seconds_outside_line_and_equality(self):
        report = check_corpus()
        assert all(e.seconds > 0 for e in report.entries)
        e = report.entries[0]
        assert "seconds" not in e.line() and str(e.seconds) not in e.line()
        d = e.as_dict()
        assert d["seconds"] == e.seconds and d["witness"] is None
        assert json.loads(json.dumps(d))["seconds"] == e.seconds
        assert replace(e, seconds=e.seconds + 1) == e
        assert hash(replace(e, seconds=e.seconds + 1)) == hash(e)

    def test_fail_carries_first_differing_entry(self):
        bogus = RuleSchema("bogus-tick-is-id", (), (), lambda: (Tick, Id))
        report = check_soundness(rules=[bogus])
        (e,) = report.entries
        assert not e.ok and e.line() == "RULE bogus-tick-is-id FAIL"
        # Choi states on wires (reference, output): tick gives the swap, whose
        # |00><11| entry is 0, where the identity's Bell state has 1.
        assert e.witness == (0, 3, ZERO, ONE)
        a, b = canonical_of_map(Tick), canonical_of_map(Id)
        assert first_difference(a, b) == e.witness
        assert e.as_dict()["witness"] == {"x": 0, "y": 3, "lhs": "0", "rhs": "1"}

    def test_pass_has_no_witness(self):
        report = check_soundness(rules=[rule_named("zs")])
        assert report.all_pass
        assert all(e.witness is None for e in report.entries)

    def test_arity_mismatch_fails_without_witness(self):
        # Cap (0 -> 2) and Cup (2 -> 0) bend to the same Bell state.
        assert canonical_of_map(Cap) == canonical_of_map(Cup)
        e = _certify("LEMMA", "cap-is-cup", (), Cap, Cup)
        assert not e.ok and e.witness is None

    def test_wide_tick_free_pairs_past_the_choi_guard(self):
        # 8 -> 8 maps: the pure matrices have 2^16 cells, the normal forms 2^32.
        wide = id_n(8)
        minus, two = Tensor(ZSpider(Scalar(-2), 0, 0), wide), Tensor(ZSpider(ONE, 0, 0), wide)
        phase = RuleSchema("wide-phase", (), (), lambda: (minus, wide))
        scale = RuleSchema("wide-scale", (), (), lambda: (two, wide))
        passed, failed = check_soundness(rules=[phase, scale]).entries
        assert passed.ok and passed.witness is None
        assert not failed.ok and failed.witness is None
        assert failed.as_dict()["witness"] is None


def rebracket(rng: random.Random, d):
    """d with random chains re-associated: same operands, same order."""

    def compose(after, before):
        if isinstance(before, Compose) and rng.random() < 0.5:
            return Compose(Compose(after, before.after), before.before)
        return Compose(after, before)

    def tensor(left, right):
        if isinstance(left, Tensor) and rng.random() < 0.5:
            return Tensor(left.left, Tensor(left.right, right))
        return Tensor(left, right)

    return fold(d, lambda g: g, compose, tensor)


class TestAssocKey:
    def test_matches_the_reference_on_seeded_terms(self):
        rng = random.Random(41)
        for _ in range(600):
            d = random_term(rng, max_wires=rng.randint(1, 4))
            if rng.random() < 0.5:
                d = Tensor(d, random_term(rng))
            e = rebracket(rng, d)
            assert _assoc_key(d) == assoc_key_reference(d)
            assert _assoc_key(e) == assoc_key_reference(e) == _assoc_key(d)

    def test_nested_chains(self):
        z = ZSpider(HALF, 1, 1)
        after = Tensor(Tensor(z, Id), Compose(z, z))
        d = Compose(after, Compose(id_n(3), Tensor(Id, Tensor(Id, Tick))))
        assert _assoc_key(d) == (
            "compose",
            (
                ("tensor", (Id, Id, Tick)),
                ("tensor", (Id, Id, Id)),
                ("tensor", (z, Id, ("compose", (z, z)))),
            ),
        )
        assert _assoc_key(d) == assoc_key_reference(d)

    def test_linear_on_a_long_chain(self):
        # The reference concatenates at every node: about 40 s at this length.
        chain = compose_many([not_gate] * 100_000)
        assert _assoc_key(chain) == ("compose", (not_gate,) * 100_000)
