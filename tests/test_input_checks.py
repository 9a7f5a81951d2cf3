"""Input checks across the library: each bad input raises its own error type
with its own message."""

from __future__ import annotations

import pytest

from zwtick import (
    Compose,
    Cup,
    DiagramParseError,
    Id,
    Matrix,
    MatchError,
    NFTerm,
    NormalForm,
    NormalFormError,
    OMEGA,
    ONE,
    RuleError,
    RuleSchema,
    SemanticsError,
    ZERO,
    apply_rule,
    apply_superop,
    bloch,
    instantiate,
    parse_diagram,
    parse_matrix,
    parse_nf,
    rule_named,
    spin_flip,
    subterm_at,
)
from zwtick.scalar import MAX_DIGITS
from zwtick.semantics import LinZW, psi

NOT_HERMITIAN = Matrix([[ONE, ONE], [ZERO, ONE]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: NormalForm(-1, ()), NormalFormError, "negative qubit count -1"),
        (
            lambda: NormalForm(1, (NFTerm(0, 1, ONE), NFTerm(0, 1, ONE))),
            NormalFormError,
            "duplicate entry positions",
        ),
        (lambda: parse_nf("n 1\n- 1 1"), NormalFormError, "empty-bitstring marker needs n = 0, got n = 1"),
        (lambda: parse_nf("n 2\n0 01 1"), NormalFormError, "bitstring '0' is not 2 bits"),
        (
            lambda: apply_superop(Id, Matrix([[ZERO] * 3] * 3)),
            SemanticsError,
            "state dimension 3 is not a power of two",
        ),
        (lambda: parse_matrix(""), SemanticsError, "empty matrix text"),
        (lambda: Matrix([[ONE, ONE]]).matmul(Matrix([[ONE]])), ValueError, "matmul mismatch: 2 vs 1"),
        (lambda: Matrix([[ONE, ONE]]).trace(), ValueError, "trace of a non-square matrix"),
        (lambda: LinZW(Id, 1, 1), SemanticsError, "bent presentation must be (2)->(2), got 1->1"),
        (lambda: psi(Id, 1, 1), SemanticsError, "doubled diagram must be (2)->(2), got 1->1"),
        (lambda: bloch(Matrix([[ONE]])), SemanticsError, "bloch requires a 2x2 matrix"),
        (lambda: bloch(NOT_HERMITIAN), SemanticsError, "bloch requires an exactly Hermitian matrix"),
        (lambda: spin_flip(Matrix([[ONE]])), SemanticsError, "spin_flip requires a 2x2 matrix"),
        (
            lambda: instantiate(rule_named("ws"), {"n": 1}),
            RuleError,
            "rule (ws): missing arity parameter m",
        ),
        (
            lambda: instantiate(RuleSchema("bogus", (), (), lambda: (Id, Cup)), {}),
            RuleError,
            "rule (bogus): sides disagree on arity",
        ),
        (lambda: subterm_at(Compose(Id, Id), ["up"]), MatchError, "invalid path step: up"),
        (
            lambda: apply_rule(Id, rule_named("id"), {}, direction="up"),
            MatchError,
            "direction must be 'lr' or 'rl', got 'up'",
        ),
        (lambda: OMEGA.rational_value(), ValueError, "scalar w is not rational"),
        (lambda: OMEGA.sign_real(), ValueError, "scalar w is not real"),
        (lambda: parse_diagram("frob"), DiagramParseError, "unknown diagram token 'frob'"),
    ],
    ids=[
        "nf-negative-qubits",
        "nf-duplicate-positions",
        "parse-nf-empty-marker",
        "parse-nf-bitstring-length",
        "apply-superop-3x3",
        "parse-matrix-empty",
        "matmul-mismatch",
        "trace-non-square",
        "linzw-arity",
        "psi-arity",
        "bloch-not-2x2",
        "bloch-not-hermitian",
        "spin-flip-not-2x2",
        "instantiate-missing-arity",
        "schema-sides-disagree",
        "subterm-invalid-step",
        "apply-rule-direction",
        "rational-value",
        "sign-real",
        "parse-unknown-token",
    ],
)
def test_bad_input_raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


LONG = "1" * (MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "read, text, error, what",
    [
        (parse_diagram, f"(z 1 {LONG} 1)", DiagramParseError, "a natural number"),
        (parse_diagram, f"(id {LONG})", DiagramParseError, "a natural number"),
        (parse_nf, f"n {LONG}\n", NormalFormError, "the qubit count"),
        (parse_matrix, f"{LONG} 1\n1\n", SemanticsError, "a matrix dimension"),
        (parse_matrix, f"1 {LONG}\n1\n", SemanticsError, "a matrix dimension"),
    ],
    ids=["arity", "wire-count", "qubit-count", "matrix-rows", "matrix-cols"],
)
def test_long_numbers_are_refused_in_own_words(read, text, error, what):
    # A number token longer than MAX_DIGITS is refused by the reader's own
    # error, not by the interpreter's limit on int/str conversion.
    with pytest.raises(error) as exc:
        read(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{what} has more than {MAX_DIGITS} decimal digits, the most zwtick reads or writes in one number"
    # MAX_DIGITS digits still read.
    assert read(text.replace(LONG, "0" * (MAX_DIGITS - 1) + "1")) == read(text.replace(LONG, "1"))
