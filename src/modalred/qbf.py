"""Semantics of quantified Boolean formulas.

A model is just a set of variable indices (the variables that are true).
Evaluation recurses over the six defining clauses; quantifiers branch on
adding/removing their variable, which makes this module an exponential but
trustworthy desk-scale oracle for everything built on top of it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .syntax import (
    QAnd,
    QbfFormula,
    QExists,
    QFalse,
    QForall,
    QImp,
    QOr,
    QVar,
    _fold,
)

__all__ = [
    "free_vars",
    "all_vars",
    "max_index",
    "universal_closure",
    "evaluate",
    "is_true_qbf",
    "is_prenex",
    "prenex_split",
    "prenex_join",
    "to_prenex",
    "negate_prenex",
]


def free_vars(f: QbfFormula) -> frozenset[int]:
    """Indices with at least one free occurrence in ``f``."""
    return _fold(f, _FREE_VARS_STEP, {})


def all_vars(f: QbfFormula) -> frozenset[int]:
    """All variable indices occurring in ``f``, free or bound."""
    return _fold(f, _ALL_VARS_STEP, {})


def _vars_step(bind):
    """Fold step for a variable set; ``bind(body_vars, {index})`` is the set
    of a quantifier node."""

    def step(f, kid_vars) -> frozenset[int]:
        if isinstance(f, QVar):
            return frozenset((f.index,))
        if isinstance(f, QFalse):
            return frozenset()
        if isinstance(f, (QAnd, QOr, QImp)):
            return kid_vars[0] | kid_vars[1]
        if isinstance(f, (QForall, QExists)):
            return bind(kid_vars[0], {f.index})
        raise TypeError(f"not a QBF formula: {f!r}")

    return step


_FREE_VARS_STEP = _vars_step(frozenset.difference)
_ALL_VARS_STEP = _vars_step(frozenset.union)


def max_index(f: QbfFormula) -> int:
    """Largest variable index in ``f`` (0 for variable-free formulas)."""
    return max(all_vars(f), default=0)


def universal_closure(f: QbfFormula) -> QbfFormula:
    """Prefix universal quantifiers over all free variables, in index order
    (the smallest index becomes the outermost quantifier)."""
    g = f
    for index in sorted(free_vars(f), reverse=True):
        g = QForall(index, g)
    return g


def evaluate(model: Iterable[int], f: QbfFormula) -> bool:
    """Truth of ``f`` in the given model (a set of true variable indices)."""
    return _evaluate(frozenset(model), f)


def _evaluate(model: frozenset[int], f: QbfFormula) -> bool:
    if isinstance(f, QVar):
        return f.index in model
    if isinstance(f, QFalse):
        return False
    if isinstance(f, QAnd):
        return _evaluate(model, f.left) and _evaluate(model, f.right)
    if isinstance(f, QOr):
        return _evaluate(model, f.left) or _evaluate(model, f.right)
    if isinstance(f, QImp):
        return (not _evaluate(model, f.left)) or _evaluate(model, f.right)
    if isinstance(f, QForall):
        return _evaluate(model | {f.index}, f.body) and _evaluate(model - {f.index}, f.body)
    if isinstance(f, QExists):
        return _evaluate(model | {f.index}, f.body) or _evaluate(model - {f.index}, f.body)
    raise TypeError(f"not a QBF formula: {f!r}")


def is_true_qbf(f: QbfFormula) -> bool:
    """Identical truth: the universal closure holds in the empty model."""
    return _evaluate(frozenset(), universal_closure(f))


def is_prenex(f: QbfFormula) -> bool:
    """True when all quantifiers form a leading prefix."""
    _, matrix = prenex_split(f)
    return not _fold(matrix, _quantified_step, {})


def _quantified_step(f, kids) -> bool:
    """Whether a quantifier occurs in ``f`` under connectives only."""
    if isinstance(f, (QForall, QExists)):
        return True
    return isinstance(f, (QAnd, QOr, QImp)) and (kids[0] or kids[1])


def prenex_split(f: QbfFormula) -> tuple[list[tuple[str, int]], QbfFormula]:
    """Split off the leading quantifier prefix as ("A"|"E", index) pairs."""
    prefix: list[tuple[str, int]] = []
    while isinstance(f, (QForall, QExists)):
        prefix.append(("A" if isinstance(f, QForall) else "E", f.index))
        f = f.body
    return prefix, f


def prenex_join(prefix: Iterable[tuple[str, int]], matrix: QbfFormula) -> QbfFormula:
    f = matrix
    for kind, index in reversed(list(prefix)):
        f = QForall(index, f) if kind == "A" else QExists(index, f)
    return f


def to_prenex(f: QbfFormula) -> QbfFormula:
    """Truth-equivalent prefix form of a closed formula.

    Already-prenex inputs come back unchanged.  Otherwise bound variables are
    first renamed apart (clashes get fresh indices max+1, max+2, ... in
    depth-first order), then quantifiers are pulled out left-to-right,
    dualizing across implication antecedents.  The quantifier count of the
    input is preserved.
    """
    if free_vars(f):
        raise ValueError("to_prenex requires a closed formula")
    if is_prenex(f):
        return f
    prefix, matrix = _pull(_rename_apart(f))
    return prenex_join(prefix, matrix)


def _rename_apart(f: QbfFormula) -> QbfFormula:
    fresh = itertools.count(max_index(f) + 1)
    used: set[int] = set()

    def walk(g: QbfFormula, env: dict[int, int]) -> QbfFormula:
        if isinstance(g, QVar):
            return QVar(env[g.index])
        if isinstance(g, QFalse):
            return g
        if isinstance(g, QAnd):
            return QAnd(walk(g.left, env), walk(g.right, env))
        if isinstance(g, QOr):
            return QOr(walk(g.left, env), walk(g.right, env))
        if isinstance(g, QImp):
            return QImp(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (QForall, QExists)):
            index = g.index if g.index not in used else next(fresh)
            used.add(index)
            body = walk(g.body, {**env, g.index: index})
            return QForall(index, body) if isinstance(g, QForall) else QExists(index, body)
        raise TypeError(f"not a QBF formula: {g!r}")

    return walk(f, {})


def _dual(q: tuple[str, int]) -> tuple[str, int]:
    kind, index = q
    return ("E" if kind == "A" else "A", index)


def _pull(f: QbfFormula) -> tuple[list[tuple[str, int]], QbfFormula]:
    if isinstance(f, QForall):
        prefix, matrix = _pull(f.body)
        return [("A", f.index)] + prefix, matrix
    if isinstance(f, QExists):
        prefix, matrix = _pull(f.body)
        return [("E", f.index)] + prefix, matrix
    if isinstance(f, QAnd):
        pl, ml = _pull(f.left)
        pr, mr = _pull(f.right)
        return pl + pr, QAnd(ml, mr)
    if isinstance(f, QOr):
        pl, ml = _pull(f.left)
        pr, mr = _pull(f.right)
        return pl + pr, QOr(ml, mr)
    if isinstance(f, QImp):
        pl, ml = _pull(f.left)
        pr, mr = _pull(f.right)
        return [_dual(q) for q in pl] + pr, QImp(ml, mr)
    return [], f


def negate_prenex(f: QbfFormula) -> QbfFormula:
    """Negation of a closed prenex formula, kept prenex: dual quantifiers over
    the negated matrix (matrix -> false)."""
    if free_vars(f):
        raise ValueError("negate_prenex requires a closed formula")
    if not is_prenex(f):
        raise ValueError("negate_prenex requires a prenex formula")
    prefix, matrix = prenex_split(f)
    return prenex_join([_dual(q) for q in prefix], QImp(matrix, QFalse()))
