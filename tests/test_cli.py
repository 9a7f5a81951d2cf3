"""End-to-end checks of the `zwt` command line front end, run in process."""

from __future__ import annotations

import json

import pytest

from zwtick import (
    ArityError,
    DiagramParseError,
    NormalFormError,
    ScalarParseError,
    SemanticsError,
    semantics,
)
from zwtick.cli import main


def write(tmp_path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestMatrixVerbs:
    def test_interp_exact(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "(z 1/2 1 2)")
        assert main(["interp", f]) == 0
        assert capsys.readouterr().out == "4 2\n1 0\n0 0\n0 0\n0 1/2\n"

    def test_interp_float(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "(z 1/2 1 2)")
        assert main(["interp", f, "--float"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "4 2"
        assert out.splitlines()[4] == "0+0i 0.5+0i"

    def test_interp_rejects_ticked_term(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "tick")
        assert main(["interp", f]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_choi_of_tick_is_swap(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "tick")
        assert main(["choi", f]) == 0
        assert capsys.readouterr().out == (
            "4 4\n1 0 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1\n"
        )

    def test_proper_choi_of_tick_is_bell(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "tick")
        assert main(["choi", f, "--proper"]) == 0
        assert capsys.readouterr().out == (
            "4 4\n1 0 0 1\n0 0 0 0\n0 0 0 0\n1 0 0 1\n"
        )

    def test_superop_tick_transposes(self, tmp_path, capsys):
        d = write(tmp_path, "d.zwt", "tick")
        r = write(tmp_path, "rho.mat", "2 2\n0 1\n0 0\n")
        assert main(["superop", d, "--rho", r]) == 0
        assert capsys.readouterr().out == "2 2\n0 0\n1 0\n"

    def test_spinflip(self, tmp_path, capsys):
        r = write(tmp_path, "rho.mat", "2 2\n1 0\n0 0\n")
        assert main(["spinflip", r]) == 0
        assert capsys.readouterr().out == "2 2\n0 0\n0 1\n"


class TestNormalFormVerb:
    def test_map_route(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "tick")
        assert main(["nf", f]) == 0
        assert capsys.readouterr().out == "n 2\n00 00 1\n01 10 1\n11 11 1\n"

    def test_state_route(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "cap")
        assert main(["nf", f]) == 0
        assert capsys.readouterr().out == "n 2\n00 00 1\n00 11 1\n11 11 1\n"

    def test_float_coefficients(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "cap")
        assert main(["nf", f, "--float"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "00 00 1+0i"


class TestEqVerb:
    def test_equal(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(compose tick tick)")
        b = write(tmp_path, "b.zwt", "(id 1)")
        assert main(["eq", a, b]) == 0
        assert capsys.readouterr().out == "equal\n"

    def test_not_equal(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "tick")
        b = write(tmp_path, "b.zwt", "(id 1)")
        assert main(["eq", a, b]) == 1
        assert capsys.readouterr().out == "not equal\n"


class TestClassifyVerb:
    def test_discard_is_cp(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "ground")
        assert main(["classify", f]) == 0
        assert capsys.readouterr().out == "HP: yes, CP: yes\n"

    def test_tick_is_hp_not_cp(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "tick")
        assert main(["classify", f]) == 0
        assert capsys.readouterr().out == "HP: yes, CP: no\n"

    @pytest.mark.parametrize("text", ["ground", "tick", "(z 1/2 1 2)"])
    def test_evaluates_the_choi_operator_once(self, tmp_path, capsys, monkeypatch, text):
        calls = []
        evaluate = semantics._evaluate

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(semantics, "_evaluate", counting)
        f = write(tmp_path, "d.zwt", text)
        assert main(["classify", f]) == 0
        assert len(calls) == 1


class TestPptVerb:
    def test_entangled_fails(self, tmp_path, capsys):
        f = write(
            tmp_path,
            "rho.mat",
            "4 4\n1/2 0 0 1/2\n0 0 0 0\n0 0 0 0\n1/2 0 0 1/2\n",
        )
        assert main(["ppt", f, "--split", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "PPT: no"
        assert out[1] == "min eigenvalue -0.5"

    def test_separable_passes(self, tmp_path, capsys):
        f = write(
            tmp_path,
            "rho.mat",
            "4 4\n1/2 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 1/2\n",
        )
        assert main(["ppt", f, "--split", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "PPT: yes"


class TestCheckVerbs:
    def test_lemma_summary(self, capsys):
        assert main(["check-lemmas"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "36 checks / 36 passed / 0 failures"
        assert all(ln.endswith("PASS") for ln in lines[:-1])
        assert lines == sorted(lines[:-1]) + [lines[-1]]

    def test_lemma_json(self, capsys):
        assert main(["check-lemmas", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(lines[-1])
        assert summary == {"failed": 0, "passed": 36, "total": 36}
        first = json.loads(lines[0])
        assert first["kind"] == "LEMMA" and first["ok"] is True

    def test_axiom_grid(self, capsys):
        assert main(["check-axioms", "--seed", "0"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        total = int(last.split()[0])
        assert last.endswith(f"/ {total} passed / 0 failures")
        assert total >= 1000


class TestRenderVerb:
    def test_dot_output(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "(compose tick (z 1/2 1 1))")
        assert main(["render", f, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "dashed" in out and "Z(1/2)" in out


class TestFailureModes:
    def test_library_errors_are_value_errors(self):
        # `main` reports bad input by catching OSError and ValueError only.
        errors = (ArityError, DiagramParseError, NormalFormError, ScalarParseError, SemanticsError)
        assert all(issubclass(e, ValueError) for e in errors)

    def test_missing_file(self, capsys):
        assert main(["interp", "/nonexistent/d.zwt"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_diagram_text(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "(z oops)")
        assert main(["interp", f]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_term(self, tmp_path, capsys):
        depth = 3000
        text = "(compose (w 1 1) " * depth + "(w 1 1)" + ")" * depth
        f = write(tmp_path, "deep.zwt", text)
        assert main(["interp", f]) == 0
        captured = capsys.readouterr()
        assert captured.out == "2 2\n0 1\n1 0\n"
        assert captured.err == ""

    def test_bad_matrix_text(self, tmp_path, capsys):
        d = write(tmp_path, "d.zwt", "tick")
        r = write(tmp_path, "rho.mat", "2 2\n1 0\n")
        assert main(["superop", d, "--rho", r]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("verb", ["interp", "nf"])
    def test_digit_limit_is_named(self, tmp_path, capsys, verb):
        # The product of four 1,500-digit parameters is computed exactly but
        # has 6,000 digits to print; a 5,001-digit parameter is refused as read.
        n = "7" * 1500
        chain = write(tmp_path, "chain.zwt", f"(compose (z {n} 1 1) (compose (z {n} 1 1) (compose (z {n} 1 1) (z {n} 1 1))))")
        wide = write(tmp_path, "wide.zwt", "(z " + "3" * 5001 + " 1 1)")
        for f in (chain, wide):
            assert main([verb, f]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "more than 4300 decimal digits, the most zwtick reads or writes in one number" in captured.err
            assert "set_int_max_str_digits" not in captured.err

    def test_unknown_verb_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_verb_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestWideBoundaries:
    @pytest.mark.parametrize("verb", ["interp", "choi", "nf", "classify"])
    def test_id_30_is_refused(self, tmp_path, capsys, verb):
        f = write(tmp_path, "wide.zwt", "(id 30)")
        assert main([verb, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dense result 2^")
        assert "exceeds 2^24 entries" in captured.err

    def test_superop_onto_30_wires_is_refused(self, tmp_path, capsys):
        d = write(tmp_path, "wide.zwt", "(z 1 1 30)")
        r = write(tmp_path, "rho.mat", "2 2\n1 0\n0 0\n")
        assert main(["superop", d, "--rho", r]) == 2
        assert capsys.readouterr().err.startswith("error: dense result 2^30 x 2^30")


class TestEqWitness:
    def test_witness_under_not_equal(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "tick")
        b = write(tmp_path, "b.zwt", "(id 1)")
        assert main(["eq", a, b]) == 1
        captured = capsys.readouterr()
        assert captured.out == "not equal\n"
        assert captured.err == "first difference at 00 11: 0 vs 1\n"

    def test_scalar_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(z 1/2 1 1)")
        b = write(tmp_path, "b.zwt", "(id 1)")
        assert main(["eq", a, b]) == 1
        captured = capsys.readouterr()
        assert captured.out == "not equal\n"
        assert captured.err == "first difference at 00 11: 1/2 vs 1\n"

    def test_arity_mismatch(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(id 1)")
        b = write(tmp_path, "b.zwt", "(id 2)")
        assert main(["eq", a, b]) == 1
        captured = capsys.readouterr()
        assert captured.out == "not equal\n"
        assert captured.err == "arities differ: 1 -> 1 vs 2 -> 2\n"

    def test_equal_prints_no_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(compose tick tick)")
        b = write(tmp_path, "b.zwt", "(id 1)")
        assert main(["eq", a, b]) == 0
        assert capsys.readouterr().err == ""

    def test_phase_multiple_is_equal(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(w 1 2)")
        b = write(tmp_path, "b.zwt", "(tensor (z -1+w 0 0) (w 1 2))")
        assert main(["eq", a, b]) == 0
        assert capsys.readouterr() == ("equal\n", "")


class TestWideEq:
    """Tick-free pairs are decided from pure matrices of 2^(n+m) cells, so
    they pass the 2^24 guard up to n + m = 24, where normal forms stop at 12."""

    NOTS = "(tensor not " * 7 + "not" + ")" * 7

    def test_equal_8_to_8(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(id 8)")
        b = write(tmp_path, "b.zwt", f"(tensor (z -2 0 0) (compose {self.NOTS} {self.NOTS}))")
        assert main(["eq", a, b]) == 0
        assert capsys.readouterr() == ("equal\n", "")

    def test_unequal_8_to_8_has_no_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.zwt", "(id 8)")
        b = write(tmp_path, "b.zwt", "(tensor (z 1 0 0) (id 8))")
        assert main(["eq", a, b]) == 1
        assert capsys.readouterr() == (
            "not equal\n",
            "no witness: normal form exceeds 2^24 entries\n",
        )

    def test_id_30_is_refused(self, tmp_path, capsys):
        f = write(tmp_path, "wide.zwt", "(id 30)")
        assert main(["eq", f, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dense result 2^30 x 2^30")
        assert "exceeds 2^24 entries" in captured.err


def chain_dot(gates: int) -> str:
    """The Graphviz text of a chain of `gates` NOT gates, written out by hand."""
    w = 'label="W" shape=circle style=filled fillcolor=black fontcolor=white'
    lines = [f"  n{k} [{w}];" for k in range(gates)]
    lines += ['  in0 [label="in 0" shape=plaintext];', '  out0 [label="out 0" shape=plaintext];']
    lines += ["  in0 -> n0;"] + [f"  n{k} -> n{k + 1};" for k in range(gates - 1)]
    lines += [f"  n{gates - 1} -> out0;"]
    return "digraph zw {\n  rankdir=BT;\n" + "\n".join(lines) + "\n}\n"


class TestDeepInput:
    """Every verb that reads a diagram accepts a 10,000-deep chain.

    The chain composes 10,001 NOT gates, so it denotes NOT: each verb but
    `render` must print what it prints for a single `not`, and `render` must
    draw the whole chain.
    """

    DEPTH = 10_000

    @pytest.fixture
    def files(self, tmp_path):
        deep = "(compose (w 1 1) " * self.DEPTH + "(w 1 1)" + ")" * self.DEPTH
        return {
            "deep": write(tmp_path, "deep.zwt", deep),
            "not": write(tmp_path, "not.zwt", "not"),
            "rho": write(tmp_path, "rho.mat", "2 2\n1 1/2\n1/2 0\n"),
        }

    EXTRA_ARGS = {"superop": ["--rho", "{rho}"], "eq": ["{not}"]}

    @pytest.mark.parametrize(
        "verb", ["interp", "choi", "superop", "nf", "eq", "classify", "render"]
    )
    def test_verb_on_deep_chain(self, files, capsys, verb):
        def run(d: str) -> tuple[int, str, str]:
            args = [a.format(**files) for a in self.EXTRA_ARGS.get(verb, [])]
            code = main([verb, d] + args)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        if verb == "render":
            expected = (0, chain_dot(self.DEPTH + 1), "")
        else:
            expected = run(files["not"])
            assert expected[0] == 0 and expected[1] and expected[2] == ""
        assert run(files["deep"]) == expected

    def test_even_tick_chain(self, tmp_path, capsys):
        # 5,000 ticks cancel in one relabelling pass, leaving (w 1 1).
        depth = 4999
        text = "(compose tick " * depth + "(compose tick (w 1 1))" + ")" * depth
        f = write(tmp_path, "ticks.zwt", text)
        w11 = write(tmp_path, "w11.zwt", "(w 1 1)")
        assert main(["eq", f, w11]) == 0
        assert capsys.readouterr().out == "equal\n"
        assert main(["classify", f]) == 0
        assert capsys.readouterr().out == "HP: yes, CP: yes\n"

    def test_chain_dot_matches_short_chain(self, tmp_path, capsys):
        f = write(tmp_path, "d.zwt", "(compose (w 1 1) (compose (w 1 1) (w 1 1)))")
        assert main(["render", f]) == 0
        assert capsys.readouterr().out == chain_dot(3)
