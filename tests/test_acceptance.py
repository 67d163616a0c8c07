"""Acceptance suite: every criterion as one test with a printed verdict line.

The shared corpus is exhaustive for n = 1 (all matrices over p1 of size <= 5,
both quantifiers: 316 instances) plus 200 seeded random instances with
n in {2, 3} and matrices of size <= 9.  Facts about each instance (truth,
encodings, solver verdicts, sizes) are computed once and reused by the
criteria.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion verdict lines.
"""

import functools
import random
import time

from conftest import random_closed_qbf, random_modal_formula
from modalred.kripke import (
    GadgetWorld,
    KripkeModel,
    close,
    frame_class_check,
    frame_validates,
    model_check,
    wgrz_axiom,
)
from modalred.pipeline import build_corpus
from modalred.qbf import is_true_qbf, to_prenex
from modalred.reduction import (
    alpha,
    encode_alpha,
    encode_star,
    extend_model,
    frame_fm_plus,
    quantifier_tree,
    star_equivalence_violations,
)
from modalred.solver import sat_bounded, sat_k_tableau
from modalred.syntax import formula_size, is_constant, render

SEED = 0
N1_MATRIX_MAX = 5
RANDOM_COUNT = 200
STAR_TIME_LIMIT = 300.0
ALPHA_TIME_LIMIT = 900.0


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@functools.cache
def corpus():
    return build_corpus(
        n_max=3,
        matrix_size_max_n1=N1_MATRIX_MAX,
        matrix_size_max=9,
        count=RANDOM_COUNT,
        seed=SEED,
    )


@functools.cache
def corpus_facts():
    facts = []
    star_elapsed = 0.0
    alpha_elapsed = 0.0
    for f in corpus():
        t0 = time.monotonic()
        truth = is_true_qbf(f)
        star, ctx = encode_star(f)
        star_sat = sat_k_tableau(star).satisfiable
        t1 = time.monotonic()
        alpha_formula = encode_alpha(f)
        alpha_verdict = sat_k_tableau(alpha_formula)
        t2 = time.monotonic()
        star_elapsed += t1 - t0
        alpha_elapsed += t2 - t1
        witness = alpha_verdict.witness
        facts.append(
            {
                "formula": f,
                "ctx": ctx,
                "truth": truth,
                "star": star,
                "alpha": alpha_formula,
                "star_sat": star_sat,
                "alpha_sat": alpha_verdict.satisfiable,
                # whether the tableau witness satisfies the encoding at its root
                "alpha_witness_ok": witness and model_check(witness, witness.root, alpha_formula),
                "star_size": formula_size(star),
                "alpha_size": formula_size(alpha_formula),
            }
        )
    return facts, star_elapsed, alpha_elapsed


def test_criterion_1_star_equivalence():
    facts, star_elapsed, _ = corpus_facts()
    mismatches = [
        render(x["formula"]) for x in facts if x["truth"] != x["star_sat"]
    ]
    ok = not mismatches and star_elapsed <= STAR_TIME_LIMIT
    _report(
        1,
        "truth matches K-satisfiability of the star encoding",
        ok,
        f"{len(facts)} instances, {len(mismatches)} mismatches, {star_elapsed:.1f}s",
    )


def test_criterion_2_alpha_equivalence():
    facts, _, alpha_elapsed = corpus_facts()
    mismatches = [
        render(x["formula"]) for x in facts if x["truth"] != x["alpha_sat"]
    ]
    non_constant = [render(x["formula"]) for x in facts if not is_constant(x["alpha"])]
    bad_witnesses = [
        render(x["formula"]) for x in facts if x["alpha_sat"] and not x["alpha_witness_ok"]
    ]
    ok = not mismatches and not non_constant and not bad_witnesses and alpha_elapsed <= ALPHA_TIME_LIMIT
    _report(
        2,
        "truth matches K-satisfiability of the variable-free encoding",
        ok,
        f"{len(facts)} instances, {len(mismatches)} mismatches,"
        f" {len(non_constant)} non-constant, {len(bad_witnesses)} witnesses failing"
        f" the model check, {alpha_elapsed:.1f}s",
    )


def test_criterion_3_tree_witness():
    facts, _, _ = corpus_facts()
    failures = []
    checked = 0
    for x in facts:
        if not x["truth"]:
            continue
        checked += 1
        tree = quantifier_tree(x["formula"])
        if not model_check(tree, tree.root, x["star"]):
            failures.append((render(x["formula"]), "model check"))
            continue
        closures_ok = (
            frame_class_check(close(tree.frame, "transitive"), "GL")
            and frame_class_check(close(tree.frame, "reflexive_transitive"), "Grz")
            and frame_class_check(close(tree.frame, "reflexive_symmetric"), "KTB")
        )
        if not closures_ok:
            failures.append((render(x["formula"]), "closures"))
    _report(
        3,
        "quantifier trees witness the encoding and close into GL/Grz/KTB",
        not failures,
        f"{checked} true instances, {len(failures)} failures",
    )


def test_criterion_4_extended_witness():
    facts, _, _ = corpus_facts()
    failures = []
    checked = 0
    for x in facts:
        if not x["truth"]:
            continue
        checked += 1
        tree = quantifier_tree(x["formula"])
        extended = extend_model(tree, x["ctx"])
        if not model_check(extended, extended.root, x["alpha"]):
            failures.append((render(x["formula"]), "root check"))
            continue
        violations = star_equivalence_violations(tree, extended, x["ctx"])
        if violations:
            failures.append((render(x["formula"]), f"{len(violations)} violations"))
    _report(
        4,
        "extended models witness the constant encoding with the ladder equivalence",
        not failures,
        f"{checked} true instances (every n), {len(failures)} failures",
    )


def test_criterion_5_gadget_properties():
    failures = []
    for m in range(1, 7):
        frame = frame_fm_plus(m)
        for k in range(1, 7):
            if k == m:
                continue
            if not frame_validates(frame, alpha(k)):
                failures.append(f"F_{m}+ does not validate alpha({k})")
        entry = GadgetWorld(m, "c")
        if model_check(KripkeModel(frame, {}, entry), entry, alpha(m)):
            failures.append(f"alpha({m}) not refuted at the entry world of F_{m}+")
        if not frame_validates(frame, wgrz_axiom()):
            failures.append(f"F_{m}+ does not validate the weak Grzegorczyk axiom")
    _report(
        5,
        "gadget frames validate exactly the off-index ladder formulas and the wGrz axiom",
        not failures,
        "; ".join(failures) if failures else "m, k in 1..6",
    )


def test_criterion_6_size_bounds():
    facts, _, _ = corpus_facts()
    c1 = formula_size(alpha(1))
    alpha_bound_ok = all(formula_size(alpha(m)) <= c1 * m for m in range(1, 11))
    first = facts[0]
    # integer ceiling of the first instance's ratio |alpha| / |star|^2
    c2 = -(-first["alpha_size"] // first["star_size"] ** 2)
    quad_ok = all(x["alpha_size"] <= c2 * x["star_size"] ** 2 for x in facts)
    _report(
        6,
        "ladder sizes are linear and the constant encoding is quadratically bounded",
        alpha_bound_ok and quad_ok,
        f"c1={c1} c2={c2}",
    )


def test_criterion_7_solver_cross_validation():
    rng = random.Random(SEED)
    failures = []
    sat_count = 0
    for _ in range(200):
        f = random_modal_formula(rng, 12)
        tableau = sat_k_tableau(f)
        bounded = sat_bounded(f, 6)
        if bounded.satisfiable and not tableau.satisfiable:
            failures.append(render(f))
        if tableau.satisfiable:
            sat_count += 1
            if not model_check(tableau.witness, tableau.witness.root, f):
                failures.append(f"witness fails: {render(f)}")
            if len(tableau.witness.frame.worlds) <= 6 and not bounded.satisfiable:
                failures.append(f"bounded missed a small model: {render(f)}")
        elif bounded.satisfiable:
            failures.append(render(f))
    _report(
        7,
        "tableau and bounded oracle agree wherever the oracle is conclusive",
        not failures,
        f"200 formulas, {sat_count} satisfiable, {len(failures)} disagreements",
    )


def test_criterion_8_qbf_layer():
    rng = random.Random(SEED)
    failures = 0
    total = 500
    for _ in range(total):
        f = random_closed_qbf(rng, 9)
        truth = is_true_qbf(f)
        if is_true_qbf(to_prenex(f)) != truth:
            failures += 1
    _report(
        8,
        "prenexing preserves truth",
        failures == 0,
        f"{total} sampled closed formulas, {failures} failures",
    )
