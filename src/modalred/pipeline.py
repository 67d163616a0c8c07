"""Desk-scale verification pipeline and instance generators.

For every corpus formula the pipeline checks the whole chain at once:

  * truth of the QBF (brute-force evaluation) against K-satisfiability of
    both encodings, decided by the tableau;
  * the witness side: the quantifier tree model-checks the encoding, its
    closures land in the GL / Grz / KTB frame classes, and the extended model
    satisfies the variable-free encoding with the ladder equivalence holding
    at every world;
  * size accounting: the variable-free encoding stays within the quadratic
    bound fixed once from the first corpus instance.

Reports are line-delimited JSON, one object per instance, plus a short human
summary; everything is a pure function of the parameters and seed, so rerun
reports are byte-identical.

A process computes once what depends only on inputs it has seen: one
tableau context, one witness table keyed by quantifier tree and the pairs
the substitution check has matched (see ``check_instance``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .kripke import close, frame_class_check, model_check
from .qbf import is_true_qbf, prenex_join
from .reduction import (
    alpha,
    encode_alpha,
    encode_star,
    extend_model,
    quantifier_tree,
    star_equivalence_violations,
)
from .solver import DEFAULT_TABLEAU_BUDGET, SolverBudgetError, TableauContext, sat_k_tableau
from .syntax import (
    MVar,
    ModalFormula,
    QAnd,
    QbfFormula,
    QFalse,
    QImp,
    QOr,
    QVar,
    _CHILDREN,
    _require_int,
    formula_size,
    is_constant,
    render,
    substitute,
)

__all__ = [
    "VerifyReport",
    "exhaustive_matrices",
    "random_matrix",
    "build_corpus",
    "check_instance",
    "run_verify",
    "report_lines",
    "report_summary",
]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def exhaustive_matrices(max_size: int) -> list[QbfFormula]:
    """All quantifier-free formulas over ``false`` and p1 up to the size
    bound, in deterministic (size, structure) order."""
    leaves: list[QbfFormula] = [QFalse(), QVar(1)]
    by_size: dict[int, list[QbfFormula]] = {1: leaves}
    for size in range(3, max_size + 1, 2):
        bucket: list[QbfFormula] = []
        for left_size in range(1, size - 1, 2):
            right_size = size - 1 - left_size
            if right_size < 1 or right_size not in by_size:
                continue
            for op in (QAnd, QOr, QImp):
                for left in by_size[left_size]:
                    for right in by_size[right_size]:
                        bucket.append(op(left, right))
        by_size[size] = bucket
    ordered: list[QbfFormula] = []
    for size in range(1, max_size + 1, 2):
        ordered.extend(by_size.get(size, []))
    return ordered


def random_matrix(rng: random.Random, n: int, max_size: int) -> QbfFormula:
    """Random quantifier-free formula over p_1..p_n of odd size <= max_size."""
    _require_int("max_size", max_size)
    sizes = list(range(1, max_size + 1, 2))
    target = rng.choice(sizes)

    def build(size: int) -> QbfFormula:
        if size == 1:
            if rng.random() < 0.2:
                return QFalse()
            return QVar(rng.randint(1, n))
        left_size = rng.choice(list(range(1, size - 1, 2)))
        right_size = size - 1 - left_size
        op = rng.choice((QAnd, QOr, QImp))
        return op(build(left_size), build(right_size))

    return build(target)


def build_corpus(
    n_max: int = 3,
    matrix_size_max_n1: int = 3,
    matrix_size_max: int = 9,
    count: int = 200,
    seed: int = 0,
) -> list[QbfFormula]:
    """Corpus of closed prenex formulas in canonical shape.

    n = 1 is exhaustive over all matrices on p_1 up to ``matrix_size_max_n1``;
    n = 2..n_max contributes ``count`` seeded random instances (round-robin
    over n) with matrices up to ``matrix_size_max``.  Raises ValueError when
    ``n_max`` or ``matrix_size_max`` is not a positive integer, or
    ``matrix_size_max_n1`` or ``count`` is not a non-negative one (a bool is
    neither); a ``matrix_size_max_n1`` of 0 gives no n = 1 instances.
    """
    _require_int("n_max", n_max)
    _require_int("matrix_size_max_n1", matrix_size_max_n1, least=0)
    _require_int("matrix_size_max", matrix_size_max)
    _require_int("count", count, least=0)
    corpus: list[QbfFormula] = []
    for matrix in exhaustive_matrices(matrix_size_max_n1):
        for kind in ("A", "E"):
            corpus.append(prenex_join([(kind, 1)], matrix))
    depths = [n for n in range(2, n_max + 1)]
    if depths and count > 0:
        rng = random.Random(seed)
        for i in range(count):
            n = depths[i % len(depths)]
            prefix = [(rng.choice("AE"), k) for k in range(1, n + 1)]
            matrix = random_matrix(rng, n, matrix_size_max)
            corpus.append(prenex_join(prefix, matrix))
    return corpus


# ---------------------------------------------------------------------------
# Per-instance checking
# ---------------------------------------------------------------------------


# The tableau context of every query of the process: the star and the
# variable-free encodings of one corpus share their subformulas, and the
# latter their ladders alpha(k), so a saturated state one query decided, or a
# two-bit core one query stored, answers the others.  The context starts
# afresh when its memo holds more than ``solver._CONTEXT_MEMO_CAP`` states.
_CONTEXT = TableauContext()

# The witness table, by (quantifier tree, variable count): the extended
# models in _EXTENDED, on whose frames an alpha encoding evaluates only the
# nodes no earlier one shared, and the closure verdicts and star-equivalence
# violations in _WITNESSES.  Both start afresh before a new tree joins when
# the models hold more than _WITNESS_WORLDS_CAP worlds.
_EXTENDED: dict = {}
_WITNESSES: dict = {}
_WITNESS_WORLDS_CAP = 10_000
# each closure check: its record key, the closure and the frame class
_CLOSURES = (
    ("gl", "transitive", "GL"), ("grz", "reflexive_transitive", "Grz"), ("ktb", "reflexive_symmetric", "KTB")
)


def check_instance(
    f: QbfFormula,
    index: int,
    c2: int,
    budget: int = DEFAULT_TABLEAU_BUDGET,
) -> dict:
    """Run every cross-module check on one corpus instance.

    ``c2`` is the frozen quadratic size constant; the record's ``pass`` field
    aggregates all applicable checks, and a solver budget exhaustion is
    reported as unknown (which fails the record).  Both encodings are
    decided in the one tableau context that every query of the process
    shares, so each verdict is that of a lone query but its node count, and
    hence whether it reaches ``budget``, may depend on the queries decided
    before it.  The ladder map ``{i: alpha(i)}`` is built once: the alpha
    encoding is the star encoding with it substituted, and the substitution
    check reads the same map, skipping pairs it matched before.  A true
    instance whose quantifier tree was met before reads its closure verdicts
    and star-equivalence violations from the witness table, and
    ``extend_model`` hands it the stored extended model to check.
    """
    record: dict = {"index": index, "formula": render(f)}
    try:
        star, ctx = encode_star(f)
        record["n"] = ctx.n
        truth = is_true_qbf(f)
        record["is_true"] = truth
        star_verdict = sat_k_tableau(star, budget=budget, context=_CONTEXT)
        record["star_sat"] = star_verdict.satisfiable
        amap = {i: alpha(i) for i in range(1, ctx.var_count + 1)}
        alpha_formula = substitute(star, amap)
        record["alpha_constant"] = is_constant(alpha_formula)
        alpha_verdict = sat_k_tableau(alpha_formula, budget=budget, context=_CONTEXT)
        record["alpha_sat"] = alpha_verdict.satisfiable
        record["star_size"] = formula_size(star)
        record["alpha_size"] = formula_size(alpha_formula)
        record["size_bound_ok"] = (
            record["alpha_size"] <= c2 * record["star_size"] ** 2
        )
        record["substitution_ok"] = _substitutes(star, alpha_formula, amap)
        checks = [
            record["star_sat"] == truth,
            record["alpha_sat"] == truth,
            record["alpha_constant"],
            record["size_bound_ok"],
            record["substitution_ok"],
        ]
        if truth:
            tree = quantifier_tree(f)
            record["witness_ok"] = model_check(tree, tree.root, star)
            key = (tree, ctx.var_count)
            witness = _WITNESSES.get(key)
            if witness is None and sum(len(m.frame.order) for m in _EXTENDED.values()) > _WITNESS_WORLDS_CAP:
                _EXTENDED.clear()
                _WITNESSES.clear()
            # called on a hit too: perfbench's traced run sums the worlds of
            # the models extend_model returns against the records
            extended = extend_model(tree, ctx, _EXTENDED)
            record["extended_worlds"] = len(extended.frame.worlds)
            record["extended_ok"] = model_check(extended, extended.root, alpha_formula)
            if witness is None:
                closures = {
                    name: frame_class_check(close(tree.frame, mode), cls)
                    for name, mode, cls in _CLOSURES
                }
                violations = star_equivalence_violations(tree, extended, ctx)
                witness = _WITNESSES[key] = (closures, violations)
            record["closures"] = dict(witness[0])
            record["star_equivalence_ok"] = not witness[1]
            checks.append(record["witness_ok"])
            checks.extend(record["closures"].values())
            checks.append(record["extended_ok"])
            checks.append(record["star_equivalence_ok"])
        else:
            record["witness_ok"] = None
            record["closures"] = None
            record["extended_ok"] = None
            record["star_equivalence_ok"] = None
        record["pass"] = all(checks)
    except SolverBudgetError as exc:
        record["error"] = f"unknown: {exc}"
        record["pass"] = False
    return record


# mapping -> the (node, image) pairs a whole walk matched under it
_MATCHED: dict = {}


def _substitutes(f: ModalFormula, image: ModalFormula, mapping: dict) -> bool:
    """Whether ``image`` is ``f`` with ``mapping[i]`` in place of each
    MVar(i) in the mapping: both are walked side by side on an explicit
    stack, each distinct pair once, skipping the pairs of earlier matches
    under an equal mapping, and nothing is rebuilt."""
    matched = _MATCHED.setdefault(frozenset(mapping.items()), set())
    stack, seen = [(f, image)], set()
    while stack:
        pair = stack.pop()
        if pair in seen or pair in matched:
            continue
        seen.add(pair)
        node, other = pair
        if isinstance(node, MVar):
            if other is not mapping.get(node.index, node):
                return False
            continue
        if type(node) is not type(other) or node._params() != other._params():
            return False
        children = _CHILDREN.get(type(node))
        if children is not None:
            kids, other_kids = children(node), children(other)
            if len(kids) != len(other_kids):
                return False
            stack.extend(zip(kids, other_kids))
    matched |= seen
    return True


@dataclass
class VerifyReport:
    params: dict
    c1: int
    c2: int
    records: list[dict] = field(default_factory=list)

    @property
    def aggregate_pass(self) -> bool:
        return all(r["pass"] for r in self.records)


def run_verify(
    n_max: int = 1,
    matrix_size_max_n1: int = 3,
    matrix_size_max: int = 9,
    count: int = 200,
    seed: int = 0,
    budget: int = DEFAULT_TABLEAU_BUDGET,
) -> VerifyReport:
    _require_int("budget", budget)
    corpus = build_corpus(
        n_max=n_max,
        matrix_size_max_n1=matrix_size_max_n1,
        matrix_size_max=matrix_size_max,
        count=count,
        seed=seed,
    )
    if not corpus:
        raise ValueError(
            f"empty corpus: matrix_size_max_n1={matrix_size_max_n1} gives no n = 1 "
            f"instances and n_max={n_max}, count={count} give no others"
        )
    c1 = formula_size(alpha(1))
    star_size = formula_size(encode_star(corpus[0])[0])
    alpha_size = formula_size(encode_alpha(corpus[0]))
    # integer ceiling of the first instance's quadratic ratio
    c2 = -(-alpha_size // star_size**2)
    report = VerifyReport(
        params={
            "n_max": n_max,
            "matrix_size_max_n1": matrix_size_max_n1,
            "matrix_size_max": matrix_size_max,
            "count": count,
            "seed": seed,
        },
        c1=c1,
        c2=c2,
    )
    for index, f in enumerate(corpus):
        report.records.append(check_instance(f, index, c2, budget=budget))
    return report


def report_lines(report: VerifyReport) -> str:
    """Line-delimited JSON: one object per instance."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in report.records)


def report_summary(report: VerifyReport) -> str:
    total = len(report.records)
    failed = [r for r in report.records if not r["pass"]]
    true_count = sum(1 for r in report.records if r.get("is_true"))
    lines = [
        f"instances: {total} ({true_count} true, {total - true_count} false)",
        f"size constants: c1={report.c1} c2={report.c2}",
        f"seed: {report.params['seed']}",
    ]
    if failed:
        lines.append(f"FAIL: {len(failed)} instances failed")
        for r in failed[:10]:
            lines.append(f"  #{r['index']} {r['formula']}: {r.get('error', 'check failed')}")
    else:
        lines.append("PASS: all instances satisfied every check")
    return "\n".join(lines) + "\n"
