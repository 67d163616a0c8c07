"""QBF semantics: evaluation, closure, prenexing, negation."""

import pytest
from hypothesis import given, settings

from conftest import qbf_formulas
from modalred.qbf import (
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
)


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
