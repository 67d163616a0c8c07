"""QBF semantics: evaluation, closure, prenexing, negation."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qbf_formulas
from modalred.cli import main
from modalred.pipeline import build_corpus
from modalred.qbf import (
    TABLE_BITS_MAX,
    all_vars,
    evaluate,
    free_vars,
    is_prenex,
    is_true_qbf,
    negate_prenex,
    prenex_split,
    to_prenex,
    universal_closure,
)
from modalred.syntax import (
    MVar,
    QAnd,
    QExists,
    QFalse,
    QForall,
    QImp,
    QOr,
    QVar,
    parse_qbf,
    qbf_size,
    render,
)
from modalred.reduction import quantifier_tree


def reference(model, f):
    """Truth by the six defining clauses, recursing on the formula."""
    if isinstance(f, QVar):
        return f.index in model
    if isinstance(f, QFalse):
        return False
    if isinstance(f, QAnd):
        return reference(model, f.left) and reference(model, f.right)
    if isinstance(f, QOr):
        return reference(model, f.left) or reference(model, f.right)
    if isinstance(f, QImp):
        return not reference(model, f.left) or reference(model, f.right)
    branches = (reference(model | {f.index}, f.body), reference(model - {f.index}, f.body))
    return all(branches) if isinstance(f, QForall) else any(branches)


class TestFreeVars:
    def test_bound_occurrence(self):
        assert free_vars(QForall(1, QVar(1))) == frozenset()

    def test_mixed(self):
        f = QImp(QVar(1), QExists(2, QVar(2)))
        assert free_vars(f) == {1}

    def test_partially_bound(self):
        assert free_vars(QForall(1, QOr(QVar(1), QVar(2)))) == {2}


class TestDeepNesting:
    # p1 -> (p1 -> ... (p1 -> p1)), 3000 implications deep, far past Python's
    # default recursion limit of 1000
    @staticmethod
    def deep():
        f = QVar(1)
        for _ in range(3000):
            f = QImp(QVar(1), f)
        return f

    def test_qbf_size(self):
        assert qbf_size(self.deep()) == 2 * 3000 + 1

    def test_free_vars(self):
        assert free_vars(self.deep()) == frozenset((1,))

    def test_all_vars(self):
        assert all_vars(QForall(2, self.deep())) == frozenset((1, 2))

    def test_is_prenex(self):
        assert is_prenex(QForall(1, self.deep()))


def test_free_vars_rejects_modal_nodes():
    with pytest.raises(TypeError, match="not a QBF formula"):
        free_vars(QAnd(QVar(1), MVar(1)))


class TestUniversalClosure:
    def test_single_variable(self):
        assert universal_closure(QVar(1)) == QForall(1, QVar(1))

    def test_closed_unchanged(self):
        f = QForall(1, QVar(1))
        assert universal_closure(f) is f

    def test_index_order_not_occurrence_order(self):
        f = QOr(QVar(2), QVar(1))
        assert universal_closure(f) == QForall(1, QForall(2, f))


class TestEvaluate:
    def test_variable_clause(self):
        assert evaluate({1}, QVar(1))
        assert not evaluate(set(), QVar(1))

    def test_exists_picks_witness(self):
        assert evaluate(set(), QExists(1, QVar(1)))

    def test_forall_needs_both(self):
        assert not evaluate(set(), QForall(1, QVar(1)))

    def test_falsum(self):
        assert not evaluate({1, 2}, QFalse())


class TestIsTrueQbf:
    def test_tautology(self):
        assert is_true_qbf(QImp(QVar(1), QVar(1)))

    def test_open_variable(self):
        assert not is_true_qbf(QVar(1))

    def test_exists_forall(self):
        # brute force over the 4 assignments: pick p1 true
        f = QExists(1, QForall(2, QImp(QVar(2), QVar(1))))
        assert is_true_qbf(f)


def exists_chain(v, matrix):
    """E p1 . ... E pv . matrix"""
    for index in range(v, 0, -1):
        matrix = QExists(index, matrix)
    return matrix


def disjunction(count):
    """p1 | (p2 | ... pcount), 2 * count - 1 distinct nodes"""
    f = QVar(count)
    for index in range(count - 1, 0, -1):
        f = QOr(QVar(index), f)
    return f


class TestTableBudget:
    # 21 bound variables give 2^21-bit tables, so 32 distinct nodes fill the
    # budget exactly: 21 quantifiers and an 11-node disjunction
    AT_CAP = exists_chain(21, disjunction(6))
    # one more distinct node: the disjunction or'ed with itself
    OVER_CAP = exists_chain(21, QOr(disjunction(6), disjunction(6)))

    def test_cap_is_two_to_the_26(self):
        assert TABLE_BITS_MAX == 1 << 26 == 32 << 21

    def test_at_cap_answers(self):
        assert is_true_qbf(self.AT_CAP)

    def test_just_over_cap_is_refused(self):
        with pytest.raises(ValueError, match=f"33 nodes x 2\\^21 .*limit of {TABLE_BITS_MAX} bits"):
            is_true_qbf(self.OVER_CAP)

    def test_refused_before_any_table_is_built(self):
        # 2^60-bit tables could not be built at all
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit"):
            evaluate(set(), exists_chain(60, QVar(1)))
        assert time.perf_counter() - start < 1.0

    def test_cli_reports_one_json_error_line(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text(render(self.OVER_CAP) + "\n", encoding="utf-8")
        assert main(["qbf", "tqbf", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "limit" in json.loads(line)["error"]

    def test_sixteen_existentials_answer(self):
        assert is_true_qbf(exists_chain(16, QVar(1)))

    def test_free_variables_cost_no_table_bits(self):
        # 2^40 assignments if free variables took table bits
        f = QVar(40)
        for index in range(39, 0, -1):
            f = QAnd(QVar(index), f)
        assert evaluate(range(1, 41), f)
        assert not evaluate(range(1, 40), f)


class TestToPrenex:
    def test_prenex_unchanged(self):
        f = parse_qbf("A p1 . E p2 . p1 & p2")
        assert to_prenex(f) is f

    def test_conjunction_of_quantifiers(self):
        f = QAnd(QForall(1, QVar(1)), QExists(1, QVar(1)))
        assert to_prenex(f) == QForall(1, QExists(2, QAnd(QVar(1), QVar(2))))

    def test_antecedent_dualizes(self):
        f = QImp(QForall(1, QVar(1)), QFalse())
        assert to_prenex(f) == QExists(1, QImp(QVar(1), QFalse()))

    def test_rejects_open_formulas(self):
        with pytest.raises(ValueError):
            to_prenex(QVar(1))

    def test_quantifier_count_preserved(self):
        f = parse_qbf("(A p1 . p1) & (E p1 . p1) & (A p2 . p2 | false)")
        prefix, _ = prenex_split(to_prenex(f))
        assert len(prefix) == 3


class TestNegatePrenex:
    def test_forall_dualizes(self):
        assert negate_prenex(QForall(1, QVar(1))) == QExists(
            1, QImp(QVar(1), QFalse())
        )

    def test_exists_dualizes(self):
        assert negate_prenex(QExists(1, QVar(1))) == QForall(
            1, QImp(QVar(1), QFalse())
        )

    def test_rejects_non_prenex(self):
        with pytest.raises(ValueError):
            negate_prenex(QAnd(QForall(1, QVar(1)), QVar(2)))


@given(qbf_formulas(max_leaves=12))
@settings(max_examples=300)
def test_evaluation_ignores_junk_variables(f):
    relevant = free_vars(f)
    base = frozenset(i for i in relevant if i % 2 == 0)
    junk = base | {97, 98, 99}
    assert evaluate(base, f) == evaluate(junk, f)


@given(qbf_formulas(max_leaves=12))
@settings(max_examples=200)
def test_closure_truth_is_stable(f):
    closed = universal_closure(f)
    assert is_true_qbf(f) == is_true_qbf(closed)
    assert free_vars(closed) == frozenset()


@given(qbf_formulas(max_leaves=10))
@settings(max_examples=300, deadline=None)
def test_prenex_preserves_truth(f):
    closed = universal_closure(f)
    p = to_prenex(closed)
    assert is_prenex(p)
    assert free_vars(p) == frozenset()
    assert is_true_qbf(p) == is_true_qbf(closed)


@given(qbf_formulas(max_leaves=10))
@settings(max_examples=200, deadline=None)
def test_negate_prenex_flips_truth_and_is_involutive(f):
    p = to_prenex(universal_closure(f))
    negated = negate_prenex(p)
    assert is_prenex(negated)
    assert is_true_qbf(negated) == (not is_true_qbf(p))
    assert is_true_qbf(negate_prenex(negated)) == is_true_qbf(p)


@given(qbf_formulas(max_leaves=12), st.frozensets(st.integers(min_value=1, max_value=5)))
@settings(max_examples=300, deadline=None)
def test_tables_match_reference(f, model):
    assert evaluate(model, f) == reference(model, f)
    assert is_true_qbf(f) == reference(frozenset(), universal_closure(f))


def test_existential_worlds_prefer_the_child_without_the_variable():
    """Where an existential world of the quantifier tree chose the child with
    its variable, the sibling without it is false by the reference."""
    checked = 0
    for f in build_corpus(n_max=3):
        if not reference(frozenset(), f):
            continue
        model = quantifier_tree(f)
        suffix = [f]
        while isinstance(suffix[-1], (QForall, QExists)):
            suffix.append(suffix[-1].body)
        n = len(suffix) - 1
        for u in model.frame.worlds:
            if u.level == n or isinstance(suffix[u.level], QForall):
                continue
            (child,) = [v for (w, v) in model.frame.relation if w == u]
            index = suffix[u.level].index
            if index in child.assignment:
                assert not reference(u.assignment, suffix[u.level + 1])
                checked += 1
    assert checked > 0
