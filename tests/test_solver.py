"""Tableau and bounded-oracle behavior."""

import functools
import hashlib
import itertools
import json
import operator
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cnf_frontier_recipe, frontier_recipe, make_random_model, modal_formulas, random_modal_formula
from modalred import solver
from modalred.kripke import BaseWorld, _assigned_model, _bits, model_check, model_check_all, model_to_json
from modalred.pipeline import build_corpus, random_matrix
from modalred.qbf import is_true_qbf, prenex_join, prenex_split
from modalred.solver import (
    SolverBudgetError,
    TableauContext,
    _Layout,
    _Search,
    _nnf_step,
    _spawn_step,
    _subformulas,
    _tableau_search,
    sat_bounded,
    sat_k_tableau,
)
from modalred.reduction import alpha, encode_alpha, encode_star
from modalred.syntax import (
    MAnd,
    MBox,
    MBoxPow,
    MDia,
    MDiaPow,
    MFalse,
    MImp,
    MNot,
    MOr,
    MTrue,
    MVar,
    _fold,
    expand_sugar,
    modal_vars,
    parse_modal,
    parse_qbf,
    render,
)


class TestTableau:
    def test_blind_world(self):
        verdict = sat_k_tableau(parse_modal("[] false"))
        assert verdict.satisfiable and verdict.engine == "tableau"
        assert len(verdict.witness.frame.worlds) == 1
        assert verdict.witness.frame.relation == frozenset()

    def test_diamond_contradicts_blindness(self):
        assert not sat_k_tableau(parse_modal("<> true & [] false")).satisfiable

    def test_encoding_verdicts(self):
        assert not sat_k_tableau(encode_alpha(parse_qbf("A p1 . p1"))).satisfiable
        assert sat_k_tableau(encode_alpha(parse_qbf("E p1 . p1"))).satisfiable

    def test_witness_depth_within_modal_depth(self):
        f = parse_modal("<> (p1 & <> (p2 & <> p3))")
        verdict = sat_k_tableau(f)
        assert verdict.satisfiable
        deepest = max(w.level for w in verdict.witness.frame.worlds)
        assert deepest <= 3  # the modal depth of f

    def test_budget_refusal(self):
        f = encode_alpha(parse_qbf("A p1 . E p2 . p1 -> p2"))
        with pytest.raises(SolverBudgetError):
            sat_k_tableau(f, budget=10)

    def test_verdict_is_deterministic(self):
        f = parse_modal("(<> p1 | <> p2) & [] (p1 -> p2) & <> ~p2")
        a = sat_k_tableau(f)
        b = sat_k_tableau(f)
        assert a == b

    def test_exponential_tree_witness_is_emitted_in_shared_form(self):
        # the tree unfolding would have 2^26 worlds; the witness has one world
        # per distinct search result and still model-checks
        f = parse_modal("box<=25 (<> p1 & <> ~p1)")
        verdict = sat_k_tableau(f)
        assert verdict.satisfiable
        assert len(verdict.witness.frame.worlds) < 1000
        assert model_check(verdict.witness, verdict.witness.root, f)


def by_query(rows):
    """Parameters named by stage and query text alone, so that a change to
    the search changes the pinned counts but not the test names."""
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in rows]


# (satisfiable, nodes, depth, witness worlds, sha256 of the witness JSON);
# a change in the first three means the search itself changed
GOLDEN_TABLEAU = [
    ("star", "A p1 . p1", (False, 5, 1, 0, None)),
    ("alpha", "A p1 . p1", (False, 49, 4, 0, None)),
    ("star", "E p1 . p1", (True, 4, 1, 2, (
        "5566f467e55fc0eec6cf313474293c0fea0dfd905c0bb1970d34fb4418f21e34"
    ))),
    ("alpha", "E p1 . p1", (True, 48, 4, 14, (
        "0342de17eb8ca81c7b1d82f919d87b0cd0c29894ecbbb7c562d65c6f16ae7b57"
    ))),
    ("star", "A p1 . E p2 . p1 -> p2", (True, 14, 2, 5, (
        "167e0b3ed67f63c3d274005636f62265d453d00f1ea241628c1c11bd8f66d310"
    ))),
    ("alpha", "A p1 . E p2 . p1 -> p2", (True, 397, 9, 32, (
        "e80fffc7af2ac4240a83716b382873fe68f734a907faac020df547b6ae58958a"
    ))),
    ("star", "E p1 . A p2 . p1 & p2", (False, 17, 2, 0, None)),
    ("alpha", "E p1 . A p2 . p1 & p2", (False, 393, 8, 0, None)),
    ("star", "A p1 . E p2 . A p3 . p2 | p3", (True, 64, 3, 9, (
        "8c61128d007c9086c127751bd0842b42b81fabc65217b6aab468343d5547d228"
    ))),
    ("alpha", "A p1 . E p2 . A p3 . p2 | p3", (True, 954, 11, 49, (
        "3c00e43c5a6715a7723347994f16d0ee7ef241d257a7f06a1866db187c978c32"
    ))),
    ("star", "E p1 . A p2 . E p3 . p1 & p2", (False, 34, 3, 0, None)),
    ("alpha", "E p1 . A p2 . E p3 . p1 & p2", (False, 883, 11, 0, None)),
    ("modal", "(<> p1 | <> p2) & [] (p1 -> p2) & <> ~p2", (True, 4, 1, 3, (
        "a628b2dcca107da47e29c297e6c38af51be2d30525a73468b31756d581857e66"
    ))),
    # the tree unfolding would have 2^26 worlds
    ("modal", "box<=25 (<> p1 & <> ~p1)", (True, 103, 26, 53, (
        "4c0598873d346cb3fbb69f0ad505246c1c64c74e33b906851afe6ef947b4da84"
    ))),
]


def golden_formula(stage, text):
    if stage == "modal":
        return parse_modal(text)
    if stage == "star":
        return encode_star(parse_qbf(text))[0]
    return encode_alpha(parse_qbf(text))


@pytest.mark.parametrize("stage, text, expected", by_query(GOLDEN_TABLEAU))
def test_golden_tableau_counters(stage, text, expected):
    verdict = sat_k_tableau(golden_formula(stage, text))
    witness = verdict.witness
    assert (
        verdict.satisfiable,
        verdict.nodes,
        verdict.depth,
        len(witness.frame.worlds) if witness else 0,
        hashlib.sha256(model_to_json(witness).encode()).hexdigest() if witness else None,
    ) == expected


# labels that branched on a disjunction, those of them refuted by a first
# side whose core did not use it (backjumps), and labels whose saturated
# state held a stored two-bit core (nogood hits), one per GOLDEN_TABLEAU
# query
GOLDEN_BRANCHES = [
    ("star", "A p1 . p1", 1, 0, 0),
    ("alpha", "A p1 . p1", 17, 0, 1),
    ("star", "E p1 . p1", 1, 0, 0),
    ("alpha", "E p1 . p1", 17, 0, 1),
    ("star", "A p1 . E p2 . p1 -> p2", 6, 0, 0),
    ("alpha", "A p1 . E p2 . p1 -> p2", 215, 72, 19),
    ("star", "E p1 . A p2 . p1 & p2", 7, 2, 0),
    ("alpha", "E p1 . A p2 . p1 & p2", 218, 81, 19),
    ("star", "A p1 . E p2 . A p3 . p2 | p3", 31, 0, 0),
    ("alpha", "A p1 . E p2 . A p3 . p2 | p3", 639, 243, 35),
    ("star", "E p1 . A p2 . E p3 . p1 & p2", 18, 8, 0),
    ("alpha", "E p1 . A p2 . E p3 . p1 & p2", 601, 244, 32),
    ("modal", "(<> p1 | <> p2) & [] (p1 -> p2) & <> ~p2", 1, 0, 0),
    ("modal", "box<=25 (<> p1 & <> ~p1)", 0, 0, 0),
]


def test_golden_branches_cover_golden_tableau():
    assert [row[:2] for row in GOLDEN_BRANCHES] == [row[:2] for row in GOLDEN_TABLEAU]
    assert [row[:2] for row in GOLDEN_SUBSUMPTION_HITS] == [row[:2] for row in GOLDEN_TABLEAU]


@pytest.mark.parametrize("stage, text, branches, backjumps, nogood_hits", by_query(GOLDEN_BRANCHES))
def test_golden_branches(stage, text, branches, backjumps, nogood_hits):
    verdict = sat_k_tableau(golden_formula(stage, text))
    assert (verdict.branches, verdict.backjumps, verdict.nogood_hits) == (branches, backjumps, nogood_hits)


# successor labels that a world stored for the same diamond satisfied, or
# that contained a stored refuted one's core (subsumption hits, counted in
# nodes too), one per GOLDEN_TABLEAU query
GOLDEN_SUBSUMPTION_HITS = [
    ("star", "A p1 . p1", 0),
    ("alpha", "A p1 . p1", 13),
    ("star", "E p1 . p1", 0),
    ("alpha", "E p1 . p1", 13),
    ("star", "A p1 . E p2 . p1 -> p2", 0),
    ("alpha", "A p1 . E p2 . p1 -> p2", 87),
    ("star", "E p1 . A p2 . p1 & p2", 0),
    ("alpha", "E p1 . A p2 . p1 & p2", 82),
    ("star", "A p1 . E p2 . A p3 . p2 | p3", 1),
    ("alpha", "A p1 . E p2 . A p3 . p2 | p3", 159),
    ("star", "E p1 . A p2 . E p3 . p1 & p2", 0),
    ("alpha", "E p1 . A p2 . E p3 . p1 & p2", 135),
    ("modal", "(<> p1 | <> p2) & [] (p1 -> p2) & <> ~p2", 0),
    # at each level the ~p1 world's two successor labels are the p1 world's
    ("modal", "box<=25 (<> p1 & <> ~p1)", 50),
]


@pytest.mark.parametrize(
    "stage, text, expected",
    [pytest.param(stage, text, expected, id=f"{stage}-{text}") for stage, text, expected in GOLDEN_SUBSUMPTION_HITS],
)
def test_golden_subsumption_hits(stage, text, expected):
    assert sat_k_tableau(golden_formula(stage, text)).subsumption_hits == expected


@pytest.mark.parametrize(
    "text, first",
    [
        ("<> p1 | p2", "p2"),  # only the left side spawns: swapped
        ("p2 | <> p1", "p2"),
        ("<> p1 | <> p2", "<> p1"),  # both spawn: kept
        ("[] <> p1 | p2", "[] <> p1"),  # a box body is not the top level
        ("(p3 & <> p1) | (p2 | [] p1)", "p2 | [] p1"),  # through conjuncts
        ("(p3 | <> p1) | (p2 & <> p1)", "p3 | <> p1"),  # through both sides
    ],
)
def test_disjunction_asserts_the_side_that_spawns_no_world_first(text, first):
    context = TableauContext()
    assert context.join(parse_modal(text)) == 1
    left, right, not_left, not_right = context.data[0]
    assert render(context.formulas[left.bit_length() - 1]) == first
    assert not left & right and not_left != not_right


def test_alpha_guard_refuted_within_a_small_budget():
    # the right side of a ladder disjunction is a box and builds no world;
    # asserting it first, backjumping over a branch its refutation did not
    # use, refuting a state that holds a stored two-bit core at once and
    # answering a successor label by a stored world that satisfies it
    # refutes this instance in 1,714 nodes (1,619 when a memo of saturated
    # states answered repeated ones); before stored worlds were
    # checked against new labels it took 4,994 (6,684 without those
    # nogoods, 8,476 when a label probed its diamonds once its first side
    # failed, 39,026 without backjumping, 64,187 when every label probed
    # its diamonds before branching, 306,691 when the diamond side went
    # first)
    f = encode_alpha(parse_qbf("E p1 . A p2 . E p3 . A p4 . (p1 & p2) | (p3 & p4)"))
    assert not sat_k_tableau(f, budget=2_000).satisfiable


@pytest.mark.parametrize("first", ["p{}", "[] p{}"])
def test_backjumping_keeps_a_visible_refutation_linear(first):
    # the diamond fails beside the box before any branch; the search
    # branches on every disjunction first, and the one label left with none
    # open is refuted by its diamond's child, whose core is the diamond and
    # the box alone; no first side is in it, so every label backjumps over
    # its second side: each of the 40 disjunctions costs one node, where a
    # search that tries every second side doubles with each of them
    disjunctions = [f"({first.format(i)} | p{i + 1})" for i in range(2, 81, 2)]
    f = parse_modal(" & ".join(["<> p1", "[] ~p1", *disjunctions]))
    verdict = sat_k_tableau(f, budget=len(disjunctions) + 2)
    assert not verdict.satisfiable
    assert verdict.backjumps == len(disjunctions)


def test_backjumping_skips_branches_a_refutation_did_not_use():
    # the last four clauses are unsatisfiable on their own; the k before
    # them branch first, and every refutation below uses none of their
    # bits, so each label backjumps over its second side: k + 3 nodes, where
    # a search that tries every second side needs 2 ** (k + 2) - 1
    k = 20
    clauses = [f"(p{i} | p{100 + i})" for i in range(1, k + 1)]
    clauses += ["(p90 | p91)", "(p90 | ~p91)", "(~p90 | p91)", "(~p90 | ~p91)"]
    verdict = sat_k_tableau(parse_modal(" & ".join(clauses)), budget=k + 3)
    assert (verdict.satisfiable, verdict.nodes, verdict.backjumps) == (False, k + 3, k)


def test_a_tableau_holds_only_its_context_budget_and_counters():
    # the search keeps no state past its call: it hands back its result
    # and the counters a verdict is built from, and over a fresh context
    # those are a lone query's
    f = expand_sugar(golden_formula("alpha", "E p1 . A p2 . p1 & p2"))
    context = TableauContext()
    result, *counters = _tableau_search(context, context.join(f), 10_000)
    assert isinstance(result, int)
    verdict = sat_k_tableau(f)
    assert counters == [
        verdict.nodes, verdict.depth, verdict.branches, verdict.backjumps, verdict.nogood_hits,
        verdict.subsumption_hits,
    ]


def test_stored_cores_are_refuted_subsets_of_their_labels():
    # ``core_rows`` holds, per diamond, the core of each refuted successor:
    # a non-empty subset of the successor's label, which the reference
    # search of the same numbering forms, that is refuted on its own
    rng = random.Random(5)
    queries = [encode_alpha(f) for f in build_corpus(n_max=2, count=56, seed=0)]
    queries += [random_modal_formula(rng, 30) for _ in range(60)]
    cores = []
    for f in queries:
        context = TableauContext()
        root = context.join(expand_sugar(f))
        refuted = _reference_search(context, root, [])[5]
        _tableau_search(context, root, 10**6)
        assert {i: rows for i, rows in context.core_rows.items() if rows} == {
            i: [core for _, core in rows] for i, rows in refuted.items()
        }
        for rows in refuted.values():
            for label, core in rows:
                assert isinstance(core, int) and core and not core & ~label
                cores.append([context.formulas[i] for i in _bits(core)])
    assert len(cores) > 1000
    for parts in rng.sample(cores, 200):
        assert not sat_k_tableau(parts[0] if len(parts) == 1 else MAnd(tuple(parts))).satisfiable


def test_stored_successors_are_models_and_refuted_cores():
    # a satisfiable successor label is stored with its result, whose world
    # must satisfy every formula of the label, since the lookup skips the
    # label's bits when it checks a later label at that world; a refuted
    # one's core must be refuted on its own, since it answers any label
    # that contains it
    rng = random.Random(5)
    queries = [encode_alpha(f) for f in build_corpus(n_max=2, count=24, seed=0)]
    queries += [random_modal_formula(rng, 30) for _ in range(60)]
    labels = cores = 0
    refuted = set()
    for f in queries:
        context = TableauContext()
        sat_k_tableau(f, context=context)
        variables = modal_vars(f)
        for i, rows in context.sat_rows.items():
            assert rows  # the lookup reads the lists without adding empty ones
            for label, result in rows:
                model = solver._tree_to_model(result, variables)
                parts = [context.formulas[j] for j in _bits(label)]
                assert model_check(model, model.root, MAnd(tuple(parts)) if len(parts) > 1 else parts[0])
                labels += 1
        for i, rows in context.core_rows.items():
            for core in rows:
                assert core and context.core_keys[i] & core
                refuted.add(tuple(context.formulas[j] for j in _bits(core)))
                cores += 1
    assert labels > 1_000 and cores > 250
    for parts in refuted:
        assert not sat_k_tableau(parts[0] if len(parts) == 1 else MAnd(parts)).satisfiable


def test_subsumption_keeps_the_alpha_verdicts_and_witnesses():
    for qbf in build_corpus(n_max=3, count=100, seed=0):
        f = encode_alpha(qbf)
        verdict = sat_k_tableau(f)
        assert verdict.satisfiable == is_true_qbf(qbf)
        if verdict.satisfiable:
            assert model_check(verdict.witness, verdict.witness.root, f)


def test_frontier_witnesses_model_check():
    # a world that the lookup hands to a later label is checked by the
    # tableau's own evaluator; ``kripke.model_check`` shares no code with it
    # and must find every satisfiable instance's witness a model
    satisfiable = 0
    for qbf in frontier_recipe(6):
        f = encode_alpha(qbf)
        verdict = sat_k_tableau(f)
        assert verdict.satisfiable == is_true_qbf(qbf)
        if verdict.satisfiable:
            satisfiable += 1
            assert model_check(verdict.witness, verdict.witness.root, f)
            assert verdict.subsumption_hits
    assert satisfiable == 9


# (n, alpha nodes, satisfiable) of each query of the two frontier recipes up
# to n = 8, each decided alone; a change to the search states its moves
FRONTIER_NODES = {
    "random": [
        (2, 413, False), (2, 381, True), (2, 383, True), (3, 878, True), (3, 952, True), (3, 838, False),
        (4, 1612, True), (4, 1492, True), (4, 1528, False), (5, 3275, True), (5, 2949, False), (5, 2824, True),
        (6, 4095, False), (6, 3896, False), (6, 4475, True), (7, 7434, True), (7, 13173, True), (7, 5358, False),
        (8, 9662, True), (8, 8515, False), (8, 6851, False),
    ],
    "3-cnf": [
        (6, 4961, True), (6, 3850, False), (6, 4552, True), (6, 3952, False),
        (8, 21896, True), (8, 11704, True), (8, 9493, False), (8, 12172, True),
    ],
}


@pytest.mark.parametrize("recipe", FRONTIER_NODES)
def test_frontier_recipes_keep_their_node_counts(recipe):
    generate = frontier_recipe if recipe == "random" else cnf_frontier_recipe
    rows = []
    for qbf in generate(8):
        verdict = sat_k_tableau(encode_alpha(qbf))
        assert verdict.satisfiable == is_true_qbf(qbf)
        rows.append((len(prenex_split(qbf)[0]), verdict.nodes, verdict.satisfiable))
    assert rows == FRONTIER_NODES[recipe]


def _saturate_from_scratch(context, label):
    """Reference saturation of ``label`` that reads every open disjunction
    on every pass: (saturated state, steps, None), or (None, steps, clash
    bits) when it meets a clash, a ``false`` or a dead disjunction."""
    data = context.data
    steps, seen, ors, pending = [], 0, 0, label
    while pending:
        while pending:
            seen |= pending
            if pending & context.falses:
                return None, steps, pending & context.falses
            for i in _bits(pending & context.lits):
                if seen & data[i]:
                    return None, steps, 1 << i | seen & data[i]
            ors |= pending & context.ors
            derived = 0
            for i in _bits(pending & context.ands):
                new = data[i] & ~(seen | derived)
                if new:
                    derived |= new
                    steps.append((new, 1 << i))
            pending = derived
        keep = 0
        for i in _bits(ors):
            left, right, not_left, not_right = data[i]
            if seen & (left | right):
                continue
            left_dead, right_dead = seen & not_left, seen & not_right
            if left_dead and right_dead:
                return None, steps, 1 << i | left_dead | right_dead
            if left_dead or right_dead:
                side, dead = (right, left_dead) if left_dead else (left, right_dead)
                if not pending & side:
                    pending |= side
                    steps.append((side, 1 << i | dead))
            else:
                keep |= 1 << i
        ors = keep
    return seen & context.lits | ors | seen & (context.boxes | context.dias), steps, None


def _reference_search(context, root, events):
    """The tableau's search as a recursion that saturates every label from
    scratch (``_saturate_from_scratch``), with its own nogoods and successor
    lists; it logs each core it lifts as the tableau's loop logs them
    through ``_lift``.  A successor label is answered by a stored core that
    it contains, else by the first of the latest 8 stored worlds of its
    diamond at which ``kripke.model_check`` finds every formula of the label
    true, so a world the loop hands back must satisfy the label.  (result,
    labels saturated from scratch, branch children, whose labels the loop
    resumes, successor labels answered by a stored one, those of them
    answered by a world whose stored label does not contain theirs, the
    refuted successor labels with their cores per diamond, the refuted
    states with their two-bit cores)."""
    data = context.data
    variables = frozenset(g.index for g in context.formulas if isinstance(g, MVar))
    partners = {}  # the two-bit cores: lower bit -> higher bits
    # diamond position -> the satisfiable successor labels and their results,
    # in the order stored; the refuted ones and their cores, likewise
    satisfied, refuted = {}, {}
    nogoods = []
    counts = [0, 0, 0, 0]
    # id of a stored result -> its model, and (that id, bit) -> whether the
    # bit's formula holds at its root; ``satisfied`` keeps every such result
    # alive, so no id is reused
    models, truths = {}, {}

    def holds(result, j):
        key = (id(result), j)
        if key not in truths:
            model = models.get(id(result))
            if model is None:
                model = models[id(result)] = solver._tree_to_model(result, variables)
            truths[key] = model_check(model, model.root, context.formulas[j])
        return truths[key]

    def stored(i, label):
        core = next((core for _, core in refuted.get(i, []) if not core & ~label), None)
        if core is not None:
            return core
        for kept, result in satisfied.get(i, [])[::-1][:8]:
            if all(holds(result, j) for j in _bits(label)):
                counts[3] += bool(label & ~kept)
                return result
        return None

    def lift(core, steps):
        events.append(("lift", core, list(steps)))
        for new, origin in reversed(steps):
            if core & new:
                core = core & ~new | origin
        return core

    def search(label, resumed):
        counts[resumed] += 1
        state, steps, clash = _saturate_from_scratch(context, label)
        if clash:
            return lift(clash, steps)
        for i in _bits(state):
            second = state & partners.get(i, 0)
            if second:
                return lift(1 << i | second & -second, steps)
        ors = state & context.ors
        if ors:
            low = ors & -ors
            first, second, not_first, _ = data[low.bit_length() - 1]
            result = search(state | first, 1)
            if isinstance(result, int) and result & first:
                core = result & ~first | low
                result = search(state | not_first | second, 1)
                if isinstance(result, int) and result & (not_first | second):
                    result = core | result & ~(not_first | second)
        else:
            boxes = list(_bits(state & context.boxes))
            bodies = functools.reduce(operator.or_, (data[i] for i in boxes), 0)
            children = []
            for i in _bits(state & context.dias):
                label = data[i] | bodies
                child = stored(i, label)
                if child is not None:
                    counts[2] += 1
                else:
                    child = search(label, 0)
                    if isinstance(child, int):
                        refuted.setdefault(i, []).append((label, child))
                    else:
                        satisfied.setdefault(i, []).append((label, child))
                if isinstance(child, int):
                    result = 1 << i | sum(1 << j for j in boxes if child & data[j])
                    break
                children.append(child)
            else:
                true_vars = frozenset(context.formulas[i].index for i in _bits(state & context.var_bits))
                result = (true_vars, tuple(children))
        if isinstance(result, tuple):
            return result
        if bin(result).count("1") == 2:
            low = result & -result
            partners[low.bit_length() - 1] = partners.get(low.bit_length() - 1, 0) | result ^ low
            nogoods.append((state, result))
        return lift(result, steps)

    return search(root, 0), *counts, refuted, nogoods


def test_a_resumed_branch_child_saturates_as_from_scratch(monkeypatch):
    # a branch child starts from its parent's saturated state, with its
    # parent's open disjunctions but the one branched on, and reads only the
    # disjunctions that its new bits touch; every label the search meets
    # must reach the state, the steps and the clash core that saturating it
    # from scratch gives, so the loop lifts the cores, with the steps, that
    # the reference recursion does, in the same order; and a
    # successor label that a stored successor of its diamond answers must
    # be one the reference's plain scan of its lists answers too, by the
    # same core or by the same world, which model-checks
    events = []
    lift = solver._lift

    def logged_lift(core, steps):
        events.append(("lift", core, list(steps)))
        return lift(core, steps)

    monkeypatch.setattr(solver, "_lift", logged_lift)
    # labels saturated from scratch, resumed, answered by a stored successor,
    # answered by a world whose stored label does not contain theirs
    checked = [0, 0, 0, 0]
    rng = random.Random(28)
    queries = [random_modal_formula(rng, 40) for _ in range(150)]
    queries += [random_modal_formula(rng, 40, 0) for _ in range(50)]
    queries += [encode_alpha(f) for f in build_corpus(n_max=2, count=70, seed=3)]
    for f in queries:
        context = TableauContext()
        root = context.join(expand_sugar(f))
        reference_events = []
        expected, scratch, resumed, hits, semantic, *_ = _reference_search(context, root, reference_events)
        events.clear()
        result, nodes, *_, subsumption_hits = _tableau_search(context, root, 10**6)
        assert result == expected
        assert events == reference_events
        assert (nodes, subsumption_hits) == (scratch + resumed + hits, hits)
        checked[0] += scratch
        checked[1] += resumed
        checked[2] += hits
        checked[3] += semantic
    scratch, resumed, hits, semantic = checked
    assert scratch > 4_000 and resumed > 6_000 and hits > 3_000 and semantic > 4_000


def test_indexed_nogoods_are_stored_cores_refuted_on_their_own():
    # every two-bit nogood is the core of a refuted state, which the
    # reference search of the same numbering meets, so it lies within that
    # state, and a fresh search refutes it; a nogood that answered for a
    # satisfiable state would fail the last check
    rng = random.Random(6)
    queries = [encode_alpha(f) for f in build_corpus(n_max=3, count=45, seed=1)]
    queries += [random_modal_formula(rng, 40, var_count) for var_count in (0, 3) for _ in range(100)]
    hits, nogoods = 0, set()
    for f in queries:
        context = TableauContext()
        root = context.join(expand_sugar(f))
        refuted_states = _reference_search(context, root, [])[6]
        hits += _tableau_search(context, root, 10**6)[5]
        stored = {core for _, core in refuted_states}
        assert stored == {1 << i | 1 << j for i in _bits(context.firsts) for j in _bits(context.partners[i])}
        for i in _bits(context.firsts):
            assert context.partners[i]
            for j in _bits(context.partners[i]):
                core = 1 << i | 1 << j
                assert i < j
                assert any(not core & ~state for state, kept in refuted_states if kept == core)
                nogoods.add(MAnd((context.formulas[i], context.formulas[j])))
        assert not any(context.partners[i] for i in range(len(context.formulas)) if not context.firsts >> i & 1)
    assert hits > 1_000 and len(nogoods) > 50
    for f in nogoods:
        assert not sat_k_tableau(f).satisfiable


@pytest.mark.parametrize("budget", [0, -5, 1.5, "10", True])
def test_tableau_budget_must_be_a_positive_integer(budget):
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        sat_k_tableau(parse_modal("p1"), budget=budget)


@pytest.mark.parametrize("text", ["A p1 . E p2 . p1 -> p2", "E p1 . A p2 . p1 & p2"])
def test_budget_counts_subsumption_hits(text):
    # a successor label that a stored successor answers is a node, so every
    # budget below the query's nodes cuts it short, whichever node it ends
    # on, and a budget of exactly its nodes answers it in full
    f = golden_formula("alpha", text)
    verdict = sat_k_tableau(f)
    assert verdict.subsumption_hits > 0
    assert sat_k_tableau(f, budget=verdict.nodes) == verdict
    for budget in range(1, verdict.nodes):
        with pytest.raises(SolverBudgetError):
            sat_k_tableau(f, budget=budget)


@pytest.mark.parametrize("text", ["A p1 . E p2 . p1 -> p2", "E p1 . A p2 . p1 & p2"])
def test_a_cut_search_counts_its_nodes(text):
    # a search cut short by its budget has searched one node more than the
    # budget, and its context counts them all towards the reset cap; one
    # with a budget of exactly its nodes counts its nodes
    f = golden_formula("alpha", text)
    nodes = sat_k_tableau(f).nodes
    for budget in range(1, nodes):
        context = TableauContext()
        with pytest.raises(SolverBudgetError):
            sat_k_tableau(f, budget=budget, context=context)
        assert context.nodes == budget + 1
    context = TableauContext()
    sat_k_tableau(f, budget=nodes, context=context)
    assert context.nodes == nodes


# the GOLDEN_TABLEAU alpha queries of two and three quantifiers
@pytest.mark.parametrize("stage, text", by_query([row[:2] for row in GOLDEN_TABLEAU[4:12] if row[0] == "alpha"]))
def test_a_context_counts_the_nodes_of_its_queries(stage, text):
    # the count the reset rule reads starts at 0 and grows by each query's
    # nodes, whether the query is new to the context or asked again
    f = golden_formula(stage, text)
    context = TableauContext()
    assert context.nodes == 0
    first = sat_k_tableau(f, context=context)
    assert first == sat_k_tableau(f)
    assert context.nodes == first.nodes
    again = sat_k_tableau(f, context=context)
    assert again.satisfiable == first.satisfiable
    assert context.nodes == first.nodes + again.nodes <= solver._CONTEXT_NODE_CAP


# sha256 over the verdict and the witness JSON of each query of
# test_witnesses_stay_as_pinned; it pins what the search finds apart from
# how much it searches, so a change to the search order keeps it
WITNESS_DIGEST = "ae51a6351d0d61b9356c9277ef39fc11a63100f9f56e159d1982864dae3bb3b4"


def test_witnesses_stay_as_pinned():
    rng = random.Random(11)
    queries = [random_modal_formula(rng, 40) for _ in range(300)]
    for f in build_corpus(n_max=2, count=40, seed=0):
        queries += [encode_star(f)[0], encode_alpha(f)]
    digest = hashlib.sha256()
    for f in queries:
        verdict = sat_k_tableau(f)
        digest.update(f"{verdict.satisfiable}\n".encode())
        if verdict.satisfiable:
            digest.update(model_to_json(verdict.witness).encode())
    assert (len(queries), digest.hexdigest()) == (436, WITNESS_DIGEST)


def _unfolded_worlds(tree, memo):
    """Worlds of the tree unfolding of a tableau result, counted by walking
    the result dag; ``memo`` ends up with one entry per distinct result."""
    if id(tree) not in memo:
        memo[id(tree)] = 1 + sum(_unfolded_worlds(child, memo) for child in tree[1])
    return memo[id(tree)]


NUMBERED_QUERIES = [golden_formula(stage, text) for stage, text, _ in GOLDEN_TABLEAU] + [
    random_modal_formula(rng, 12) for rng in [random.Random(7)] for _ in range(30)
]


@pytest.mark.parametrize("f", NUMBERED_QUERIES)
def test_result_carries_its_world_count(f):
    context = TableauContext()
    root = context.join(expand_sugar(f))
    tree = _tableau_search(context, root, 10**7)[0]
    verdict = sat_k_tableau(f)
    assert isinstance(tree, tuple) == verdict.satisfiable
    if not isinstance(tree, tuple):
        assert tree == root  # a refuted label's core: a non-empty subset of it
        return
    distinct: dict = {}
    _unfolded_worlds(tree, distinct)
    assert len(verdict.witness.frame.worlds) == len(distinct)


def test_witness_of_a_chain_deeper_than_the_recursion_limit():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    tree = (frozenset(), ())
    for _ in range(depth):
        tree = (frozenset(), (tree,))
    model = solver._tree_to_model(tree, frozenset())
    assert len(model.frame.worlds) == depth + 1
    assert max(w.level for w in model.frame.worlds) == depth


def test_result_reached_twice_is_one_world_at_its_first_depth():
    # the leaf hangs below the root and below the root's second child
    leaf = (frozenset({1}), ())
    root = (frozenset(), (leaf, (frozenset(), (leaf,))))
    model = solver._tree_to_model(root, frozenset({1}))
    top, shared, middle = sorted(model.frame.worlds, key=lambda w: w.serial)
    assert model.valuation[1] == {shared}
    assert [w.level for w in (top, shared, middle)] == [0, 1, 1]
    assert model.frame.relation == {(top, shared), (top, middle), (middle, shared)}


def _numbering_per_query(*roots):
    """(formulas, data, kind masks) of the queries ``roots`` as walks with
    their own NNF and may-spawn memos number them, one root after the other
    with one numbering, each walk skipping what is numbered: the reference
    that the process-wide records and a shared context must reproduce bit
    for bit."""
    memo: dict = {}

    def pair(g):
        return _fold(g, _nnf_step, memo)

    masks = dict.fromkeys(("lits", "var_bits", "ands", "ors", "boxes", "dias", "falses"), 0)
    bits: dict = {}
    order = []
    stack = [pair(root)[0] for root in reversed(roots)]
    while stack:
        f = stack.pop()
        if f in bits:
            continue
        bit = bits[f] = 1 << len(order)
        successors = ()
        if isinstance(f, MOr):
            masks["ors"] |= bit
            successors = (f.left, f.right, pair(f.left)[1], pair(f.right)[1])
        elif isinstance(f, MAnd):
            masks["ands"] |= bit
            successors = f.items
        elif isinstance(f, MVar):
            masks["lits"] |= bit
            masks["var_bits"] |= bit
            successors = (MNot(f),)
        elif isinstance(f, MNot):
            masks["lits"] |= bit
            successors = (f.body,)
        elif isinstance(f, MBox):
            masks["boxes"] |= bit
            successors = (f.body,)
        elif isinstance(f, MDia):
            masks["dias"] |= bit
            successors = (f.body,)
        elif isinstance(f, MFalse):
            masks["falses"] |= bit
        order.append((f, successors))
        stack.extend(reversed(successors))
    spawns: dict = {}
    data = []
    for f, successors in order:
        found = [bits[g] for g in successors]
        if isinstance(f, MOr):
            left, right, not_left, not_right = found
            if _fold(f.left, _spawn_step, spawns) and not _fold(f.right, _spawn_step, spawns):
                data.append((right, left, not_right, not_left))
            else:
                data.append((left, right, not_left, not_right))
        else:
            data.append(functools.reduce(operator.or_, found, 0))
    return [f for f, _ in order], data, masks


@pytest.mark.parametrize("f", NUMBERED_QUERIES)
def test_shared_records_number_as_one_walk_per_query(f):
    root = expand_sugar(f)
    context = TableauContext()
    assert context.join(root) == 1
    formulas, data, masks = _numbering_per_query(root)
    assert context.formulas == formulas
    assert context.data == data
    assert {name: getattr(context, name) for name in masks} == masks


@pytest.mark.parametrize(
    "texts",
    [
        ("A p1 . E p2 . p1 -> p2", "E p1 . A p2 . p1 | p2"),  # 89 of 117 numbered
        ("A p1 . E p2 . A p3 . p2 | p3", "E p1 . A p2 . E p3 . p1 & (p2 | p3)"),  # 146 of 181
    ],
)
def test_a_joining_query_extends_the_numbering_in_walk_order(texts):
    # a shared context keeps every bit it gave and numbers only the
    # formulas a joining query brings, in the order a fresh walk meets them
    first, second = (expand_sugar(encode_alpha(parse_qbf(t))) for t in texts)
    context = TableauContext()
    context.join(first)
    before = list(context.formulas)
    alone = _numbering_per_query(second)[0]
    assert 2 * len(set(before) & set(alone)) >= len(alone)
    root_bit = context.join(second)
    formulas, data, masks = _numbering_per_query(first, second)
    assert context.formulas[: len(before)] == before
    assert context.formulas == formulas
    assert context.data == data
    assert {name: getattr(context, name) for name in masks} == masks
    assert root_bit == 1 << formulas.index(alone[0])


CONTEXT_CORPUS = build_corpus(n_max=4, matrix_size_max_n1=5, count=200, seed=0)


@pytest.fixture(scope="module")
def shared_run():
    """The star and then the alpha encoding of each CONTEXT_CORPUS instance
    decided in one context, as check_instance does, as (instance, formula,
    verdict, the context's node count before the join, that after it)."""
    context = TableauContext()
    join = context.join
    sizes = []

    def spied(root):
        before = context.nodes
        bit = join(root)
        sizes.append((before, context.nodes))
        return bit

    context.join = spied
    rows = []
    for qbf in CONTEXT_CORPUS:
        for f in (encode_star(qbf)[0], encode_alpha(qbf)):
            rows.append((qbf, f, sat_k_tableau(f, context=context), *sizes[-1]))
    return rows


def test_one_context_decides_a_corpus_like_fresh_ones(shared_run):
    assert len(shared_run) == 2 * 516
    satisfiable = 0
    for qbf, f, verdict, _, _ in shared_run:
        assert verdict.satisfiable == is_true_qbf(qbf) == sat_k_tableau(f).satisfiable
        if verdict.satisfiable:
            satisfiable += 1
            assert model_check(verdict.witness, verdict.witness.root, f)
    assert satisfiable == 2 * 257
    # the shared labels are what the sharing is for: fewer nodes in all
    assert sum(v.nodes for _, _, v, _, _ in shared_run) < sum(
        sat_k_tableau(f).nodes for _, f, _, _, _ in shared_run
    )


def test_no_query_starts_on_a_context_over_the_node_cap(shared_run):
    starts = [after for _, _, _, _, after in shared_run]
    assert max(starts) <= solver._CONTEXT_NODE_CAP
    # the cap was reached, and the context then started afresh
    assert any(before > solver._CONTEXT_NODE_CAP and after == 0 for _, _, _, before, after in shared_run)


def _counters(verdict):
    sha = hashlib.sha256(model_to_json(verdict.witness).encode()).hexdigest() if verdict.satisfiable else None
    counters = (verdict.nodes, verdict.depth, verdict.branches, verdict.nogood_hits, verdict.subsumption_hits)
    return verdict.satisfiable, *counters, sha


def test_a_query_after_the_node_cap_searches_as_alone():
    # the earlier query searches 21,376 nodes, over the cap, so the context
    # starts afresh although 62 of the query's 117 formulas are numbered in it
    prefix = "A p1 . E p2 . A p3 . E p4 . A p5 . E p6 . A p7 . E p8 . A p9 . E p10"
    earlier = encode_alpha(parse_qbf(f"{prefix} . (p1 -> p2) & (p3 -> p4) & (p5 -> p6) & (p7 -> p8) & (p9 -> p10)"))
    f = encode_alpha(parse_qbf("E p1 . A p2 . p1 | p2"))
    alone = TableauContext()
    alone.join(expand_sugar(f))
    context = TableauContext()
    sat_k_tableau(earlier, context=context)
    assert context.nodes > solver._CONTEXT_NODE_CAP and context.truths
    assert 2 * len(set(context.formulas) & set(alone.formulas)) > len(alone.formulas)
    context.join(expand_sugar(f))
    # the truth memo starts afresh with the rest, so no entry outlives the
    # numbering its bits were read in
    assert (len(context.truths), len(context.sat_rows), len(context.core_rows)) == (0, 0, 0)
    assert _counters(sat_k_tableau(f, context=context)) == _counters(sat_k_tableau(f))
    assert context.formulas == alone.formulas  # the context started afresh
    # asked again under the cap, the query searches on top of what it stored
    formulas = context.formulas
    again = sat_k_tableau(f, context=context)
    assert context.formulas is formulas and again.satisfiable == sat_k_tableau(f).satisfiable


@pytest.mark.parametrize("text", [text for stage, text, _ in GOLDEN_TABLEAU if stage == "alpha"])
def test_joining_again_numbers_nothing(monkeypatch, text):
    root = expand_sugar(encode_alpha(parse_qbf(text)))
    context = TableauContext()
    sat_k_tableau(root, context=context)
    # joining again numbers nothing and reads no record: the walk stops at
    # the root, whose closure is numbered
    built = []
    record = solver._record

    def spied(f):
        built.append(f)
        return record(f)

    monkeypatch.setattr(solver, "_RECORDS", {})
    monkeypatch.setattr(solver, "_record", spied)
    numbering = (list(context.formulas), list(context.data), list(context.masks))
    assert context.join(root) == 1
    assert (context.formulas, context.data, context.masks) == numbering
    assert built == []


def test_a_budget_error_leaves_a_shared_context_usable():
    context = TableauContext()
    sat_k_tableau(encode_alpha(parse_qbf("A p1 . E p2 . p1 -> p2")), context=context)
    queries = [parse_qbf("E p1 . A p2 . E p3 . A p4 . (p1 & p2) | (p3 & p4)")] * 2
    queries.append(parse_qbf("E p1 . A p2 . E p3 . A p4 . (p1 | p2) & (p3 | p4)"))
    first = context.nodes
    with pytest.raises(SolverBudgetError):
        sat_k_tableau(encode_alpha(queries[0]), budget=1_000, context=context)
    formulas = context.formulas
    # what the cut search stored stays, and its nodes count towards the cap
    assert context.nodes == first + 1_001 <= solver._CONTEXT_NODE_CAP
    assert context.sat_rows and context.core_rows
    verdicts = []
    for qbf in queries[1:]:
        f = encode_alpha(qbf)
        verdict = sat_k_tableau(f, context=context)
        assert verdict.satisfiable == is_true_qbf(qbf) == sat_k_tableau(f).satisfiable
        if verdict.satisfiable:
            assert model_check(verdict.witness, verdict.witness.root, f)
        verdicts.append(verdict.satisfiable)
        if len(verdicts) == 1:
            assert context.formulas is formulas  # the retry searched on top of it
    assert verdicts == [False, True]


def test_a_budget_error_leaves_the_counters_set():
    # the search keeps the lower bits of its nogoods in a local; a query cut
    # short writes them back all the same, and the next query of the
    # context finds the verdict of a fresh one.  Its witness may differ from
    # a fresh query's, since a successor label can get a world that the cut
    # search stored, but it is a model, and replaying the cut search gives
    # it again
    cut = encode_alpha(parse_qbf("E p1 . A p2 . E p3 . A p4 . (p1 & p2) | (p3 & p4)"))
    f = encode_alpha(parse_qbf("E p1 . A p2 . E p3 . A p4 . (p1 | p2) & (p3 | p4)"))
    witnesses = []
    for _ in range(2):
        context = TableauContext()
        with pytest.raises(SolverBudgetError):
            _tableau_search(context, context.join(expand_sugar(cut)), 1_000)
        assert context.firsts == sum(1 << i for i, higher in enumerate(context.partners) if higher) != 0
        shared, alone = sat_k_tableau(f, context=context), sat_k_tableau(f)
        assert shared.satisfiable and alone.satisfiable
        for verdict in (shared, alone):
            assert model_check(verdict.witness, verdict.witness.root, f)
        witnesses.append(model_to_json(shared.witness))
    assert witnesses[0] == witnesses[1]


# the GOLDEN_TABLEAU queries in reverse order in a fresh interpreter, so
# every process-wide table starts cold on each of them
COLD_RUN = """
import hashlib, json, sys
from modalred.kripke import model_to_json
from modalred.reduction import encode_alpha, encode_star
from modalred.solver import sat_k_tableau
from modalred.syntax import parse_modal, parse_qbf

rows = []
for stage, text in json.loads(sys.argv[1]):
    if stage == "modal":
        f = parse_modal(text)
    elif stage == "star":
        f = encode_star(parse_qbf(text))[0]
    else:
        f = encode_alpha(parse_qbf(text))
    v = sat_k_tableau(f)
    sha = hashlib.sha256(model_to_json(v.witness).encode()).hexdigest() if v.satisfiable else None
    rows.append([v.satisfiable, v.nodes, v.depth, v.branches, v.nogood_hits, v.subsumption_hits, sha])
print(json.dumps(rows))
"""


def test_cold_tables_in_reverse_order_search_alike():
    queries = [(stage, text) for stage, text, _ in reversed(GOLDEN_TABLEAU)]
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", COLD_RUN, json.dumps(queries)],
        capture_output=True, text=True, env=env, check=True,
    )
    expected = []
    for stage, text in queries:
        v = sat_k_tableau(golden_formula(stage, text))
        sha = hashlib.sha256(model_to_json(v.witness).encode()).hexdigest() if v.satisfiable else None
        expected.append([v.satisfiable, v.nodes, v.depth, v.branches, v.nogood_hits, v.subsumption_hits, sha])
    assert json.loads(out.stdout) == expected


@pytest.mark.parametrize(
    "decide, builder",
    [(sat_k_tableau, "_tree_to_model"), (lambda f: sat_bounded(f, 3), "_assigned_model")],
    ids=["tableau", "bounded"],
)
def test_witness_is_built_on_first_read(monkeypatch, decide, builder):
    calls = []
    original = getattr(solver, builder)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, builder, counting)
    f = parse_modal("<> p1 & <> ~p1")
    verdict = decide(f)
    assert verdict.satisfiable and calls == []
    witness = verdict.witness
    assert len(calls) == 1
    assert verdict.witness is witness and len(calls) == 1
    assert model_check(witness, witness.root, f)
    refuted = decide(parse_modal("p1 & ~p1"))
    assert refuted.witness is None and len(calls) == 1


def test_bounded_engine_has_no_tableau_counters():
    verdict = sat_bounded(parse_modal("<> p1 & [] ~p1"), 2)
    assert verdict.branches == verdict.backjumps == verdict.nogood_hits == verdict.subsumption_hits == 0


class TestDeepInput:
    def test_deep_box_power(self):
        verdict = sat_k_tableau(MBoxPow(5000, MVar(1)))
        assert verdict.satisfiable and verdict.nodes == 1

    def test_deep_negation_chain(self):
        f = MVar(1)
        for _ in range(3000):
            f = MNot(f)
        verdict = sat_k_tableau(f)
        assert verdict.satisfiable
        assert model_check(verdict.witness, verdict.witness.root, f)

    def test_deep_diamond_power(self):
        # one search frame per diamond level, none of them on the call stack
        verdict = sat_k_tableau(MDiaPow(5000, MTrue()))
        assert (verdict.satisfiable, verdict.nodes, verdict.depth) == (True, 5001, 5000)
        # the witness satisfies <>^5000 true at its root: a path of 5000
        # steps leaves it (checked by walking it, as model_check takes
        # about 2 s on 5,000 nested diamonds)
        witness = verdict.witness
        successors = dict(witness.frame.relation)
        world = witness.root
        for _ in range(5000):
            world = successors[world]
        assert len(successors) == 5000 and len(witness.frame.worlds) == 5001

    def test_a_stored_deep_chain_answers_a_label_without_recursion(self):
        # the second query's diamond child misses the one label stored for
        # its diamond, so the lookup evaluates p1 | <>^2999 true at the
        # stored world, down the chain of 3,000 worlds that the first query
        # built, in one loop
        context = TableauContext()
        assert sat_k_tableau(parse_modal("<> dia^3000 true"), context=context).satisfiable
        f = parse_modal("<> dia^3000 true & [] (p1 | dia^2999 true)")
        verdict = sat_k_tableau(f, context=context)
        assert (verdict.satisfiable, verdict.nodes, verdict.subsumption_hits) == (True, 2, 1)
        assert len(context.truths) == 3000
        witness = verdict.witness
        assert len(witness.frame.worlds) == 3002
        assert model_check(witness, witness.root, f)

    def test_deep_diamond_power_model_check(self):
        # every diamond's body holds on a dense mask of the chain, read in C
        f = MDiaPow(1000, MTrue())
        witness = sat_k_tableau(f).witness
        assert model_check(witness, witness.root, f)
        assert not model_check(witness, witness.root, MDiaPow(1001, MTrue()))
        assert len(model_check_all(witness, f)) == 1


class TestBounded:
    def test_blind_world_bound_one(self):
        verdict = sat_bounded(parse_modal("[] false"), 1)
        assert verdict.satisfiable and verdict.bound == 1
        assert len(verdict.witness.frame.worlds) == 1

    def test_nested_diamond_fits_in_one_reflexive_world(self):
        # a reflexive singleton satisfies <><>true, so even bound 1 is enough
        verdict = sat_bounded(parse_modal("<> <> true"), 1)
        assert verdict.satisfiable
        (world,) = verdict.witness.frame.worlds
        assert (world, world) in verdict.witness.frame.relation

    def test_bounded_unsat_is_labeled(self):
        # within 2 worlds one cannot have three pairwise-distinct valuations
        f = parse_modal("<> (p1 & ~p2) & <> (p2 & ~p1) & <> (p1 & p2)")
        verdict = sat_bounded(f, 2)
        assert not verdict.satisfiable
        assert verdict.engine == "bounded" and verdict.bound == 2
        assert sat_bounded(f, 3).satisfiable

    def test_monotone_in_bound(self):
        f = parse_modal("<> p1 & <> ~p1")
        assert not sat_bounded(f, 1).satisfiable
        for bound in (2, 3, 4):
            assert sat_bounded(f, bound).satisfiable

    @pytest.mark.parametrize("bound", [1, 2, 4])
    def test_valuation_is_read_off_the_assignments(self, bound):
        rng = random.Random(3)
        for _ in range(30):
            f = random_modal_formula(rng, 10)
            verdict = sat_bounded(f, bound)
            if verdict.satisfiable:
                witness = verdict.witness
                for v in modal_vars(f):
                    assert witness.valuation[v] == {w for w in witness.frame.worlds if v in w.assignment}

    def test_arrays_grow_with_the_worlds_tried_not_the_bound(self):
        # the two-world model is found at once however large the bound
        verdict = sat_bounded(parse_modal("<> p1 & <> ~p1"), 10**9)
        assert verdict.satisfiable and verdict.depth == 2 and verdict.bound == 10**9

    def test_requires_positive_bound(self):
        with pytest.raises(ValueError):
            sat_bounded(parse_modal("p1"), 0)

    def test_rejects_bool_bound(self):
        with pytest.raises(ValueError, match="max_worlds must be a positive integer, got True"):
            sat_bounded(parse_modal("p1"), True)


# the unsatisfiable ladder gadget that random.Random(31) draws 23rd below
GADGET_31 = MDia(MNot(MOr(
    MOr(MOr(alpha(2), MOr(MBox(MFalse()), MDia(MTrue()))), alpha(2)), alpha(1)
)))

# (satisfiable, decisions, k, sha256 of the witness JSON) of sat_bounded;
# any change here means the CDCL search itself changed
GOLDEN_BOUNDED = [
    ("star", "A p1 . p1", 4, (False, 17, 4, None)),
    ("star", "E p1 . p1", 4, (True, 8, 2, (
        "24c699a80676f2e22f269b3e4d3cbbbf69846c4ab3ffc56bec72ebe9516c16af"
    ))),
    ("star", "A p1 . E p2 . p1 -> p2", 4, (False, 22, 4, None)),
    ("star", "E p1 . A p2 . p1 & p2", 4, (False, 61, 4, None)),
    ("star", "A p1 . E p2 . A p3 . p2 | p3", 4, (False, 44, 4, None)),
    ("star", "E p1 . A p2 . E p3 . p1 & p2", 4, (False, 168, 4, None)),
    ("star", "E p1 . E p2 . (p1 & false)", 4, (False, 39, 4, None)),
    ("gadget", "<> ~(alpha(2) | ([] false | <> true) | alpha(2) | alpha(1))", 5,
     (False, 45, 5, None)),
    # the smallest model of a true alpha encoding has 7 worlds
    ("alpha", "E p1 . p1", 7, (True, 3163, 7, (
        "0546fc119bd60478e319b224cb6ea06ec8f61766c21256dbfbba7d8374dd816c"
    ))),
]


def golden_bounded_formula(stage, text):
    if stage == "gadget":
        return GADGET_31
    qbf = parse_qbf(text)
    return encode_star(qbf)[0] if stage == "star" else encode_alpha(qbf)


@pytest.mark.parametrize("stage, text, bound, expected", GOLDEN_BOUNDED)
def test_golden_bounded_counters(stage, text, bound, expected):
    verdict = sat_bounded(golden_bounded_formula(stage, text), bound)
    witness = verdict.witness
    assert (
        verdict.satisfiable,
        verdict.nodes,
        verdict.depth,
        hashlib.sha256(model_to_json(witness).encode()).hexdigest() if witness else None,
    ) == expected


# (variable count, clause count, sha256 of the count line and one line per
# clause, literals space-separated) of the clauses that worlds 0 .. k - 1
# add; any change here renumbers a variable or moves a clause
GOLDEN_ENCODE = [
    ("star", "A p1 . E p2 . p1 -> p2", 1, (54, 77, (
        "fe6d402284db264052c478d33fe5387e4fc8efe70fffb4d01b7dd612ecbd2785"
    ))),
    ("star", "A p1 . E p2 . p1 -> p2", 2, (116, 187, (
        "b8e5011f3094e7a238e045e9ca95494be8fdb9555e128116e72a8dd421d2d4ee"
    ))),
    ("star", "A p1 . E p2 . p1 -> p2", 3, (236, 478, (
        "553b415f1684afc2dd41301b3679f75eeb4902da097fdc8e10e172c33f8e3c01"
    ))),
    ("alpha", "E p1 . p1", 1, (58, 117, (
        "0a84d9db01184083f2b3c016ac8af5b76bebcdb8880db38652466c34bb6a1b67"
    ))),
    ("alpha", "E p1 . p1", 2, (144, 327, (
        "340875c3fd6f4d6bdd244fe0ce5da8f621d6c7d76aaaf5d2632335d8bdca6722"
    ))),
    ("alpha", "E p1 . p1", 3, (302, 760, (
        "b4f186df443f3f66569253644c715fccd6b6d70c2762a335275a6587c0deec20"
    ))),
    # 1,580 clauses over 508 variables with two-way definitions
    ("star", "A p1 . E p2 . p1 -> p2", 4, (364, 802, (
        "3ffb4bba7db44b5e06e312b34f2f08058bee1ea7c4918aa60f20b76c195ceb03"
    ))),
]


@pytest.mark.parametrize("stage, text, k, expected", GOLDEN_ENCODE)
def test_golden_encode_clause_lists(stage, text, k, expected):
    layout = _Layout(_subformulas(expand_sugar(golden_bounded_formula(stage, text))))
    clauses = [c for _ in range(k) for c in layout.add_world()]
    listing = f"{layout.count}\n" + "".join(" ".join(map(str, c)) + "\n" for c in clauses)
    assert (layout.count, len(clauses), hashlib.sha256(listing.encode()).hexdigest()) == expected


def _polarity_table(f):
    """Bit 1 for each subformula of ``f`` that occurs positively, bit 2 for
    each that occurs negatively, by a walk over its occurrences."""
    table = {}
    stack = [(f, 1)]
    while stack:
        g, p = stack.pop()
        if table.get(g, 0) & p:
            continue
        table[g] = table.get(g, 0) | p
        if isinstance(g, MNot):
            stack.append((g.body, 3 - p))
        elif isinstance(g, MImp):
            stack += [(g.left, 3 - p), (g.right, p)]
        elif isinstance(g, MOr):
            stack += [(g.left, p), (g.right, p)]
        elif isinstance(g, MAnd):
            stack += [(item, p) for item in g.items]
        elif isinstance(g, (MBox, MDia)):
            stack.append((g.body, p))
    return table


def _one_shot_encoding(subs, k):
    """The clauses of exactly ``k`` worlds, with the closing clauses
    unguarded and no swap clauses: (variable count, clauses, first).  Each
    node gets the halves of its definition that its polarity needs, and
    only a positive diamond or a negative box gets auxiliaries.
    ``first[g] + i`` is the truth of ``g`` at world ``i``, then come the
    relation pairs and the auxiliaries, in the order ``_Layout.order``
    lists them."""
    polarity = _polarity_table(subs[-1])
    first = {g: 1 + n * k for n, g in enumerate(subs)}
    rel = 1 + len(subs) * k
    count = rel + k * k - 1
    clauses = []
    for g in subs:
        positive, negative = polarity[g] & 1, polarity[g] & 2
        for i in range(k):
            t = first[g] + i
            if isinstance(g, MFalse):
                clauses.append((-t,))
            elif isinstance(g, MTrue):
                clauses.append((t,))
            elif isinstance(g, MNot):
                b = first[g.body] + i
                if positive:
                    clauses.append((-t, -b))
                if negative:
                    clauses.append((t, b))
            elif isinstance(g, MAnd):
                parts = [first[item] + i for item in g.items]
                if positive:
                    clauses += [(-t, b) for b in parts]
                if negative:
                    clauses.append((t, *(-b for b in parts)))
            elif isinstance(g, (MOr, MImp)):
                l = (-1 if isinstance(g, MImp) else 1) * (first[g.left] + i)
                r = first[g.right] + i
                if positive:
                    clauses.append((-t, l, r))
                if negative:
                    clauses += [(t, -l), (t, -r)]
            elif isinstance(g, MDia) and negative or isinstance(g, MBox) and positive:
                # no witness world: t@i -> (rel(i, j) -> body@j) for a box
                sign = 1 if isinstance(g, MDia) else -1
                clauses += [(sign * t, -(rel + i * k + j), -sign * (first[g.body] + j)) for j in range(k)]
        if isinstance(g, MDia) and positive or isinstance(g, MBox) and negative:
            sign = 1 if isinstance(g, MDia) else -1
            for i in range(k):
                aux = range(count + 1, count + k + 1)
                count += k
                for j, x in enumerate(aux):
                    clauses += [(-x, rel + i * k + j), (-x, sign * (first[g.body] + j))]
                clauses.append((-sign * (first[g] + i), *aux))
    clauses.append((first[subs[-1]],))
    return count, clauses, first


def _two_way_encoding(subs, k):
    """Like ``_one_shot_encoding``, but every node is defined both ways and
    every box and diamond has auxiliaries: the encoding ``sat_bounded`` grew
    before it read polarities, kept as a verdict reference that does not
    share them."""
    first = {g: 1 + n * k for n, g in enumerate(subs)}
    rel = 1 + len(subs) * k
    count = rel + k * k - 1
    clauses = []
    for g in subs:
        for i in range(k):
            t = first[g] + i
            if isinstance(g, MFalse):
                clauses.append((-t,))
            elif isinstance(g, MTrue):
                clauses.append((t,))
            elif isinstance(g, MNot):
                b = first[g.body] + i
                clauses += [(-t, -b), (t, b)]
            elif isinstance(g, MAnd):
                parts = [first[item] + i for item in g.items]
                clauses += [(-t, b) for b in parts] + [(t, *(-b for b in parts))]
            elif isinstance(g, (MOr, MImp)):
                l = (-1 if isinstance(g, MImp) else 1) * (first[g.left] + i)
                r = first[g.right] + i
                clauses += [(-t, l, r), (t, -l), (t, -r)]
            elif isinstance(g, (MBox, MDia)):
                aux = range(count + 1, count + k + 1)
                count += k
                sign = 1 if isinstance(g, MDia) else -1
                for j, x in enumerate(aux):
                    r = rel + i * k + j
                    b = sign * (first[g.body] + j)
                    clauses += [(-x, r), (-x, b), (x, -r, -b), (sign * t, -x)]
                clauses.append((-sign * t, *aux))
    clauses.append((first[subs[-1]],))
    return count, clauses, first


def _reference_bounded(f, bound, encoding=_one_shot_encoding):
    """(satisfiable, k, witness JSON) by a fresh search over ``encoding``
    of each k = 1 .. bound in turn, as ``sat_bounded`` searched before its
    CNF grew."""
    g = expand_sugar(f)
    subs = _subformulas(g)
    variables = modal_vars(g)
    for k in range(1, bound + 1):
        count, clauses, first = encoding(subs, k)
        model, _ = _first_model(count, clauses)
        if model is None:
            continue
        rel = 1 + len(subs) * k
        worlds = [
            BaseWorld(0, frozenset(v for v in variables if model[first[MVar(v)] + j]), j) for j in range(k)
        ]
        edges = [(worlds[i], worlds[j]) for i in range(k) for j in range(k) if model[rel + i * k + j]]
        return True, k, model_to_json(_assigned_model(worlds, edges, variables))
    return False, bound, None


def _reference_corpus():
    """Every GOLDEN_BOUNDED input but the bound-7 one (minutes by the
    reference), then seeded star, alpha, variable-free and three-variable
    formulas at bounds 1 to 5."""
    queries = [(golden_bounded_formula(stage, text), bound) for stage, text, bound, _ in GOLDEN_BOUNDED if bound < 7]
    rng = random.Random(5)
    for _ in range(60):
        prefix = "".join(rng.choice("AE") for _ in range(rng.randint(1, 2)))
        qbf = prenex_join([(q, i) for i, q in enumerate(prefix, 1)], random_matrix(rng, len(prefix), 7))
        queries.append((encode_star(qbf)[0] if rng.random() < 0.5 else encode_alpha(qbf), rng.randint(1, 5)))
    for seed, var_count in ((31, 0), (77, 3)):
        rng = random.Random(seed)
        queries += [(random_modal_formula(rng, 10, var_count=var_count), rng.randint(1, 5)) for _ in range(60)]
    return queries


def test_growing_cnf_keeps_the_one_shot_witnesses():
    satisfiable = 0
    for f, bound in _reference_corpus():
        verdict = sat_bounded(f, bound)
        witness = verdict.witness
        got = (verdict.satisfiable, verdict.depth, witness and model_to_json(witness))
        assert got == _reference_bounded(f, bound), render(f)
        if witness:
            satisfiable += 1
            assert model_check(witness, witness.root, f)
    assert satisfiable > 50


def test_two_way_encoding_gives_the_same_verdicts():
    for f, bound in _reference_corpus():
        verdict = sat_bounded(f, bound)
        assert (verdict.satisfiable, verdict.depth) == _reference_bounded(f, bound, _two_way_encoding)[:2], render(f)


def test_polarity_follows_negation_and_the_left_side_of_implication():
    # [] p1 occurs under ~ and outside it; -> flips <> p2 but not p3
    f = parse_modal("~[] p1 & ([] p1 | (<> p2 -> p3))")
    layout = _Layout(_subformulas(expand_sugar(f)))
    box, dia = MBox(MVar(1)), MDia(MVar(2))
    assert layout.polarity == {
        MVar(1): 3,
        box: 3,
        MNot(box): 1,
        MVar(2): 2,
        dia: 2,
        MVar(3): 1,
        MImp(dia, MVar(3)): 1,
        MOr(box, MImp(dia, MVar(3))): 1,
        f: 1,
    }
    assert layout.polarity == _polarity_table(f)
    # only the box must find a successor where it is false; the diamond is
    # never asserted true
    assert layout.modal == {box: 0}


def _cnf(count, *clauses):
    return count, [tuple(lits) for lits in clauses]


def _first_model(count, clauses):
    """(model, decisions) of the search over a fixed CNF, deciding the
    variables 1 .. count in order with no assumption."""
    search = _Search(count)
    search.add([list(c) for c in clauses])
    value = search.solve(range(1, count + 1))
    return (None if value is None else {v: value[v] for v in range(1, count + 1)}), search.decisions


@st.composite
def cnfs(draw):
    """CNFs over 1 to 8 variables: up to 5 clauses of 2 or 3 literals per
    variable, which may repeat a literal or hold a literal and its negation,
    then up to two unit clauses and sometimes an empty clause, in any order.
    About one in ten draws is unsatisfiable only after backtracking."""
    count = draw(st.integers(min_value=1, max_value=8))
    literal = st.sampled_from([v for v in range(-count, count + 1) if v])
    size = draw(st.integers(min_value=0, max_value=5 * count))
    clauses = draw(st.lists(st.lists(literal, min_size=2, max_size=3), min_size=size, max_size=size))
    clauses += draw(st.lists(st.lists(literal, min_size=1, max_size=1), max_size=2))
    if draw(st.integers(min_value=0, max_value=7)) == 7:
        clauses.append([])
    return _cnf(count, *draw(st.permutations(clauses)))


@given(cnfs())
@example(_cnf(0))
@example(_cnf(0, ()))
@example(_cnf(1, (1, 1), (-1,)))
@example(_cnf(2, (1, -1), (2, 2, -1)))
@example(_cnf(2, (1, 2), (1, -2), (-1, 2), (-1, -2)))
@settings(max_examples=200, deadline=None)
def test_dpll_matches_brute_force(cnf):
    count, clauses = cnf

    def satisfies(model):
        return all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in clauses)

    # product order puts variable 1 first and False before True, so the
    # first model found is the lexicographically first one
    models = (dict(enumerate(bits, 1)) for bits in itertools.product((False, True), repeat=count))
    first = next(filter(satisfies, models), None)
    model, _ = _first_model(count, clauses)
    assert model == first


def test_dpll_search_deeper_than_the_recursion_limit():
    # (v | v + 1) for odd v < 3000 takes one decision per pair, 1,500 deep;
    # (a | b) & (a | ~b) then refutes a = False at that depth.  The learned
    # unit clause (a) jumps back to level 0, the 1,500 pairs are decided
    # again, and b is decided last
    pairs = [(v, v + 1) for v in range(1, 3000, 2)]
    a, b = 3001, 3002
    model, decisions = _first_model(*_cnf(3002, *pairs, (a, b), (a, -b)))
    assert decisions == 1500 + 1 + 1500 + 1
    assert model == {**{v: v % 2 == 0 for v in range(1, 3001)}, a: True, b: False}


@given(modal_formulas(max_leaves=8))
@settings(max_examples=200, deadline=None)
def test_satisfiable_witnesses_model_check(f):
    verdict = sat_k_tableau(f)
    if verdict.satisfiable:
        assert model_check(verdict.witness, verdict.witness.root, f)


@given(modal_formulas(max_leaves=8))
@settings(max_examples=100, deadline=None)
def test_engines_agree_within_bound(f):
    tableau = sat_k_tableau(f)
    bounded = sat_bounded(f, 4)
    if bounded.satisfiable:
        assert tableau.satisfiable
        assert model_check(bounded.witness, bounded.witness.root, f)
    if tableau.satisfiable and len(tableau.witness.frame.worlds) <= 4:
        assert bounded.satisfiable
    if not tableau.satisfiable:
        assert not bounded.satisfiable


def test_engines_agree_on_variable_free_formulas():
    # constant formulas exercise the purely modal branches of both engines
    from modalred.syntax import is_constant

    rng = random.Random(31)
    for _ in range(150):
        f = random_modal_formula(rng, 10, var_count=0)
        assert is_constant(f)
        tableau = sat_k_tableau(f)
        bounded = sat_bounded(f, 4)
        if bounded.satisfiable:
            assert tableau.satisfiable
        if tableau.satisfiable and len(tableau.witness.frame.worlds) <= 4:
            assert bounded.satisfiable


@given(modal_formulas(max_leaves=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_valid_formulas_hold_in_random_models(f, seed):
    negation = parse_modal(f"~({render(f)})")
    if sat_k_tableau(negation).satisfiable:
        return
    model = make_random_model(random.Random(seed), world_count=5, var_count=5)
    assert model_check_all(model, f) == model.frame.worlds


@given(modal_formulas(max_leaves=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_nnf_step_gives_formula_and_negation(f, seed):
    positive, negative = _fold(f, _nnf_step, {})
    model = make_random_model(random.Random(seed), world_count=5, var_count=5)
    holds = model_check_all(model, f)
    assert model_check_all(model, positive) == holds
    assert model_check_all(model, negative) == model.frame.worlds - holds
    for g in (positive, negative):
        nodes: dict = {}
        _fold(g, lambda h, _: h, nodes)
        assert not any(
            isinstance(h, MImp) or isinstance(h, MNot) and not isinstance(h.body, MVar)
            for h in nodes
        )


def _ladder_gadget(rng, atoms):
    """Variable-free formula over alpha(1), alpha(2), true and false with
    ``atoms`` atom occurrences."""
    if atoms == 1 and rng.random() < 0.6:
        return rng.choice((alpha(1), alpha(2), MTrue(), MFalse()))
    if atoms == 1 or rng.random() < 0.4:
        return rng.choice((MNot, MBox, MDia))(_ladder_gadget(rng, atoms))
    left = rng.randint(1, atoms - 1)
    parts = (_ladder_gadget(rng, left), _ladder_gadget(rng, atoms - left))
    return MAnd(parts) if rng.random() < 0.5 else MOr(*parts)


def _assert_engines_agree_on_ladder_gadgets(rng):
    for _ in range(30):
        f = _ladder_gadget(rng, rng.randint(1, 5))
        tableau = sat_k_tableau(f)
        bounded = sat_bounded(f, 5)
        if bounded.satisfiable:
            assert tableau.satisfiable
        if tableau.satisfiable:
            assert model_check(tableau.witness, tableau.witness.root, f)
            if len(tableau.witness.frame.worlds) <= 5:
                assert bounded.satisfiable


def test_engines_agree_on_ladder_gadgets():
    _assert_engines_agree_on_ladder_gadgets(random.Random(5))


def test_engines_agree_on_ladder_gadgets_seed_31():
    # this stream holds GADGET_31, the slowest gadget for the bounded oracle
    _assert_engines_agree_on_ladder_gadgets(random.Random(31))


def test_engines_agree_on_existential_two_variable_stars():
    # the EE and EA prefixes at n = 2, which the benchmark's oracle workload
    # leaves out; this seed draws a true and a false instance of each
    rng = random.Random(1)
    cells = set()
    for _ in range(25):
        for prefix in ("EE", "EA"):
            f = prenex_join([(q, i) for i, q in enumerate(prefix, 1)], random_matrix(rng, 2, 9))
            star, _ = encode_star(f)
            tableau = sat_k_tableau(star)
            bounded = sat_bounded(star, 4)
            assert tableau.satisfiable == is_true_qbf(f)
            if bounded.satisfiable:
                assert tableau.satisfiable
                assert model_check(bounded.witness, bounded.witness.root, star)
            elif tableau.satisfiable:
                assert len(tableau.witness.frame.worlds) > 4
            cells.add((prefix, tableau.satisfiable))
    assert cells == {(p, t) for p in ("EE", "EA") for t in (False, True)}


def test_bounded_oracle_refutes_false_variable_free_encodings():
    # every false n = 1 instance with a matrix of size at most 3 has an
    # alpha encoding with no model of at most 6 worlds; clause learning
    # refutes all 16 in well under a second
    false_instances = [f for f in build_corpus(n_max=1, matrix_size_max_n1=3) if not is_true_qbf(f)]
    assert len(false_instances) == 16
    for f in false_instances:
        verdict = sat_bounded(encode_alpha(f), 6)
        assert not verdict.satisfiable and verdict.bound == 6
