"""Command line front end for the diagram engine (`zwt <verb> ...`)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagram import Diagram, parse_diagram, render_dot
from .normalform import (
    _bits,
    canonical_of_map,
    compare_maps,
    format_nf,
)
from .qinfo import min_pt_eigenvalue, ppt_check, spin_flip
from .rules import CheckReport, check_corpus, check_soundness
from .matrix import MAX_DENSE_LOG2, Matrix, SemanticsError, format_matrix, parse_matrix
from .semantics import apply_superop, choi, interp, is_psd, proper_choi

_USAGE_ERROR = 2
_CHECK_ERROR = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_diagram(path: str) -> Diagram:
    return parse_diagram(_read(path))


def _load_matrix(path: str) -> Matrix:
    return parse_matrix(_read(path))


def _emit_matrix(m: Matrix, float_mode: bool) -> None:
    sys.stdout.write(format_matrix(m, float_mode=float_mode))


def _cmd_interp(args: argparse.Namespace) -> int:
    d = _load_diagram(args.file)
    _emit_matrix(interp(d), args.float)
    return 0


def _cmd_choi(args: argparse.Namespace) -> int:
    d = _load_diagram(args.file)
    m = proper_choi(d) if args.proper else choi(d)
    _emit_matrix(m, args.float)
    return 0


def _cmd_superop(args: argparse.Namespace) -> int:
    d = _load_diagram(args.file)
    rho = _load_matrix(args.rho)
    _emit_matrix(apply_superop(d, rho), args.float)
    return 0


def _cmd_nf(args: argparse.Namespace) -> int:
    d = _load_diagram(args.file)
    sys.stdout.write(format_nf(canonical_of_map(d), float_mode=args.float))
    return 0


def _cmd_eq(args: argparse.Namespace) -> int:
    d1 = _load_diagram(args.file1)
    d2 = _load_diagram(args.file2)
    equal, explain = compare_maps(d1, d2)
    if equal:
        print("equal")
        return 0
    # The verdict stays alone on stdout; the witness goes to stderr under it.
    print("not equal")
    try:
        witness = explain()
    except SemanticsError:
        print(f"no witness: normal form exceeds 2^{MAX_DENSE_LOG2} entries", file=sys.stderr)
        return 1
    if witness is None:
        print(f"arities differ: {d1.n_in} -> {d1.n_out} vs {d2.n_in} -> {d2.n_out}", file=sys.stderr)
        return 1
    x, y, lhs, rhs = witness
    n = d1.n_in + d1.n_out
    print(f"first difference at {_bits(x, n)} {_bits(y, n)}: {lhs} vs {rhs}", file=sys.stderr)
    return 1


def _report_lines(report: CheckReport, as_json: bool) -> int:
    entries = sorted(
        report.entries,
        key=lambda e: (e.name, tuple(str(v) for _, v in e.params)),
    )
    if as_json:
        for e in entries:
            print(json.dumps(e.as_dict(), sort_keys=True))
        summary = {
            "total": report.total,
            "passed": report.passed,
            "failed": report.failed,
        }
        print(json.dumps(summary, sort_keys=True))
    else:
        for e in entries:
            print(e.line())
        print(f"{report.total} checks / {report.passed} passed / {report.failed} failures")
    return 0 if report.all_pass else _CHECK_ERROR


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    return _report_lines(check_soundness(seed=args.seed), args.json)


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    return _report_lines(check_corpus(), args.json)


def _cmd_classify(args: argparse.Namespace) -> int:
    m = choi(_load_diagram(args.file))
    print(f"HP: {'yes' if m.is_hermitian() else 'no'}, CP: {'yes' if is_psd(m) else 'no'}")
    return 0


def _cmd_ppt(args: argparse.Namespace) -> int:
    rho = _load_matrix(args.rho)
    ok = ppt_check(rho, args.split)
    print("PPT: yes" if ok else "PPT: no")
    print(f"min eigenvalue {min_pt_eigenvalue(rho, args.split):.12g}")
    return 0 if ok else 1


def _cmd_spinflip(args: argparse.Namespace) -> int:
    rho = _load_matrix(args.rho)
    _emit_matrix(spin_flip(rho), args.float)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    d = _load_diagram(args.file)
    sys.stdout.write(render_dot(d))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zwt",
        description="Exact diagram engine: interpret, normalize, and check terms.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def _float_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--float",
            action="store_true",
            help="print complex floats (12 significant digits) instead of exact scalars",
        )

    p = sub.add_parser("interp", help="pure matrix of a tick-free diagram")
    p.add_argument("file")
    _float_flag(p)
    p.set_defaults(run=_cmd_interp)

    p = sub.add_parser("choi", help="Choi matrix of the doubled map")
    p.add_argument("file")
    p.add_argument("--proper", action="store_true", help="column-pair layout")
    _float_flag(p)
    p.set_defaults(run=_cmd_choi)

    p = sub.add_parser("superop", help="apply the diagram to an operator")
    p.add_argument("file")
    p.add_argument("--rho", required=True, metavar="RHOFILE")
    _float_flag(p)
    p.set_defaults(run=_cmd_superop)

    p = sub.add_parser("nf", help="canonical normal form of the diagram")
    p.add_argument("file")
    _float_flag(p)
    p.set_defaults(run=_cmd_nf)

    p = sub.add_parser("eq", help="decide semantic equality of two diagrams")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(run=_cmd_eq)

    p = sub.add_parser("check-axioms", help="certify every rule schema semantically")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled scalars")
    p.set_defaults(run=_cmd_check_axioms)

    p = sub.add_parser("check-lemmas", help="certify the derived-equation corpus")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    p.set_defaults(run=_cmd_check_lemmas)

    p = sub.add_parser("classify", help="report HP / CP status of the map")
    p.add_argument("file")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("ppt", help="positive-partial-transpose test on an operator")
    p.add_argument("rho", metavar="RHOFILE")
    p.add_argument("--split", type=int, required=True, help="qubits in the first block")
    p.set_defaults(run=_cmd_ppt)

    p = sub.add_parser("spinflip", help="spin flip of a single-qubit operator")
    p.add_argument("rho", metavar="RHOFILE")
    _float_flag(p)
    p.set_defaults(run=_cmd_spinflip)

    p = sub.add_parser("render", help="render the diagram term")
    p.add_argument("file")
    p.add_argument("--format", default="dot", choices=["dot"])
    p.set_defaults(run=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as ex:  # the library's input errors all subclass ValueError
        print(f"error: {ex}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
