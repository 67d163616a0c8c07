"""Command-line front end.

Subcommands wrap one module operation each and are deterministic: identical
inputs give byte-identical outputs.  Formula files are UTF-8 text with one
formula per line (a single-formula file is the one-line case); ``-`` reads
standard input.  Exit codes: 0 success, 1 semantic failure (with a
machine-readable JSON error line on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .kripke import (
    DEFAULT_VALUATION_BUDGET,
    ValuationBudgetError,
    frame_class_check,
    frame_from_json,
    frame_to_dot,
    frame_validates,
    model_to_json,
    wgrz_axiom,
)
from .pipeline import report_lines, report_summary, run_verify
from .reduction import (
    alpha,
    encode_alpha,
    encode_star,
    extend_model,
    frame_fm,
    frame_fm_plus,
    prepare_context,
    quantifier_tree,
)
from .qbf import evaluate, is_true_qbf, to_prenex
from .solver import (
    DEFAULT_TABLEAU_BUDGET,
    SolverBudgetError,
    sat_bounded,
    sat_k_tableau,
)
from .syntax import _require_int, parse_modal, parse_qbf, render

__all__ = ["main"]


def _read_formula_lines(path: str) -> list[str]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return [line.strip() for line in text.splitlines() if line.strip()]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _single_formula(args) -> str:
    lines = _read_formula_lines(args.formulas)
    if len(lines) != 1:
        raise ValueError(
            f"this command needs exactly one input formula, got {len(lines)}"
        )
    return lines[0]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def cmd_qbf(args) -> int:
    lines = _read_formula_lines(args.formulas)
    if args.qbf_command == "eval":
        model = frozenset(
            int(tok) for tok in args.model.split(",") if tok.strip()
        )
        for line in lines:
            verdict = evaluate(model, parse_qbf(line))
            print("true" if verdict else "false")
        return 0
    if args.qbf_command == "tqbf":
        all_true = True
        for line in lines:
            verdict = is_true_qbf(parse_qbf(line))
            print("true" if verdict else "false")
            all_true = all_true and verdict
        return 0 if all_true else 1
    for line in lines:  # prenex
        print(render(to_prenex(parse_qbf(line))))
    return 0


def cmd_encode(args) -> int:
    for line in _read_formula_lines(args.formulas):
        f = parse_qbf(line)
        if args.stage == "star":
            star, _ = encode_star(f)
            print(render(star))
        else:
            print(render(encode_alpha(f)))
    return 0


def cmd_sat(args) -> int:
    # the limit the chosen engine uses, checked even when there is no formula
    limit = ("budget", args.budget) if args.engine == "tableau" else ("max_worlds", args.bound)
    _require_int(*limit)
    lines = _read_formula_lines(args.formulas)
    if args.emit_witness and len(lines) != 1:
        raise ValueError("--emit-witness needs exactly one input formula")
    for line in lines:
        f = parse_modal(line)
        if args.engine == "tableau":
            verdict = sat_k_tableau(f, budget=args.budget)
        else:
            verdict = sat_bounded(f, args.bound)
        print(
            json.dumps(
                {
                    "verdict": "satisfiable" if verdict.satisfiable else "unsatisfiable",
                    "engine": verdict.engine,
                    "bound": verdict.bound,
                    "nodes": verdict.nodes,
                    "depth": verdict.depth,
                },
                sort_keys=True,
            )
        )
        if args.emit_witness and verdict.satisfiable:
            _write_text(args.emit_witness, model_to_json(verdict.witness))
    return 0


def cmd_witness(args) -> int:
    f = parse_qbf(_single_formula(args))
    if args.model == "tree":
        model = quantifier_tree(f)
    else:
        ctx = prepare_context(f)
        model = extend_model(quantifier_tree(f), ctx)
    _write_text(args.out, model_to_json(model))
    return 0


_FRAME_CLASSES = {"gl": "GL", "grz": "Grz", "ktb": "KTB"}


def cmd_frame(args) -> int:
    _require_int("--alpha-max", args.alpha_max)
    if args.gadget is not None and args.input is not None:
        raise ValueError("frame takes --gadget M or --input FILE, not both")
    if args.plus and args.gadget is None:
        raise ValueError("--plus needs --gadget M")
    if args.gadget is not None:
        frame = frame_fm_plus(args.gadget) if args.plus else frame_fm(args.gadget)
    elif args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            frame = frame_from_json(handle.read())
    else:
        raise ValueError("frame needs --gadget M or --input FILE")
    if args.dot:
        sys.stdout.write(frame_to_dot(frame))
    if args.check is None:
        if not args.dot:
            raise ValueError("frame needs --check or --dot")
        return 0
    if args.check in _FRAME_CLASSES:
        ok = frame_class_check(frame, _FRAME_CLASSES[args.check])
        print(f"{args.check}: {'true' if ok else 'false'}")
        return 0 if ok else 1
    if args.check == "wgrz-axiom":
        ok = frame_validates(frame, wgrz_axiom(), budget=args.budget_bits)
        print(f"wgrz-axiom: {'valid' if ok else 'refuted'}")
        return 0 if ok else 1
    as_expected = True  # --check alpha-validity
    for k in range(1, args.alpha_max + 1):
        valid = frame_validates(frame, alpha(k), budget=args.budget_bits)
        print(f"alpha {k}: {'valid' if valid else 'refuted'}")
        if args.gadget is not None:
            expected = (k != args.gadget) if args.plus else True
            as_expected = as_expected and (valid == expected)
    return 0 if as_expected else 1


def cmd_verify(args) -> int:
    report = run_verify(
        n_max=args.n_max,
        matrix_size_max_n1=args.matrix_size_n1,
        matrix_size_max=args.matrix_size,
        count=args.count,
        seed=args.seed,
        budget=args.budget,
    )
    if args.out:
        _write_text(args.out, report_lines(report))
    else:
        sys.stdout.write(report_lines(report))
    sys.stdout.write(report_summary(report))
    return 0 if report.aggregate_pass else 1


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalred",
        description="TQBF-to-modal reductions, K satisfiability and frame checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qbf = sub.add_parser("qbf", help="evaluate, test, or prenex QBF formulas")
    qbf_sub = p_qbf.add_subparsers(dest="qbf_command", required=True)
    for name, text in (
        ("eval", "evaluate against a model"),
        ("tqbf", "identical-truth test"),
        ("prenex", "prefix normal form"),
    ):
        q = qbf_sub.add_parser(name, help=text)
        q.add_argument("formulas", help="formula file, one per line, or -")
        if name == "eval":
            q.add_argument(
                "--model",
                default="",
                help="comma-separated true variable indices, e.g. 1,3",
            )
        q.set_defaults(handler=cmd_qbf)

    p_encode = sub.add_parser("encode", help="emit the modal encoding of a QBF")
    p_encode.add_argument("formulas", help="formula file or -")
    p_encode.add_argument("--stage", choices=("star", "alpha"), required=True)
    p_encode.set_defaults(handler=cmd_encode)

    p_sat = sub.add_parser("sat", help="K-satisfiability of modal formulas")
    p_sat.add_argument("formulas", help="formula file or -")
    p_sat.add_argument("--engine", choices=("tableau", "bounded"), default="tableau")
    p_sat.add_argument("--bound", type=int, default=6, help="bounded-engine world limit")
    p_sat.add_argument(
        "--budget", type=int, default=DEFAULT_TABLEAU_BUDGET, help="tableau node budget"
    )
    p_sat.add_argument("--emit-witness", metavar="PATH", default=None)
    p_sat.set_defaults(handler=cmd_sat)

    p_witness = sub.add_parser("witness", help="emit a witness Kripke model")
    p_witness.add_argument("formulas", help="formula file or -")
    p_witness.add_argument("--model", choices=("tree", "extended"), required=True)
    p_witness.add_argument("--out", metavar="PATH", default=None)
    p_witness.set_defaults(handler=cmd_witness)

    p_frame = sub.add_parser("frame", help="build or check finite frames")
    p_frame.add_argument("--gadget", type=int, metavar="M", default=None)
    p_frame.add_argument("--plus", action="store_true", help="include the entry world")
    p_frame.add_argument("--input", metavar="FILE", default=None)
    p_frame.add_argument(
        "--check",
        choices=("gl", "grz", "ktb", "wgrz-axiom", "alpha-validity"),
        default=None,
    )
    p_frame.add_argument("--alpha-max", type=int, default=6)
    p_frame.add_argument("--budget-bits", type=int, default=DEFAULT_VALUATION_BUDGET)
    p_frame.add_argument("--dot", action="store_true", help="print the frame as DOT")
    p_frame.set_defaults(handler=cmd_frame)

    p_verify = sub.add_parser("verify", help="run the end-to-end verification pipeline")
    p_verify.add_argument("--n-max", type=int, default=1)
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--matrix-size-n1", type=int, default=3)
    p_verify.add_argument("--matrix-size", type=int, default=9)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_TABLEAU_BUDGET)
    p_verify.add_argument("--out", metavar="PATH", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ValueError,
        ValuationBudgetError,
        SolverBudgetError,
        OSError,
        RecursionError,  # an input nested deeper than a recursive stage can go
    ) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
