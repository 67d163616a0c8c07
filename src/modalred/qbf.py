"""Semantics of quantified Boolean formulas.

A model is just a set of variable indices (the variables that are true).
Evaluation is one fold: every subformula gets an int truth table with one
bit per assignment to the v variables bound in the formula, free variables
are read from the model, and a quantifier combines the two halves of its
body's table.  This makes the module an exponential but trustworthy
desk-scale oracle for everything built on top of it; the tables of one
evaluation may hold at most ``TABLE_BITS_MAX`` bits, and a formula that
needs more is refused with a ValueError before any table is built.
"""

from __future__ import annotations

import functools
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
    "universal_closure",
    "evaluate",
    "is_true_qbf",
    "is_prenex",
    "prenex_split",
    "prenex_join",
    "to_prenex",
]


# the free variables and quantifier tests of every node walked so far, kept
# process-wide as syntax keeps its modal walkers' results
_FREE_VARS_MEMO: dict = {}
_QUANTIFIED_MEMO: dict = {}


def free_vars(f: QbfFormula) -> frozenset[int]:
    """Indices with at least one free occurrence in ``f``."""
    return _fold(f, _FREE_VARS_STEP, _FREE_VARS_MEMO)


def _vars_step(bind, occurrence=True):
    """Fold step for a variable set; ``bind(body_vars, {index})`` is the set
    of a quantifier node, and variable occurrences count if ``occurrence``."""

    def step(f, kid_vars) -> frozenset[int]:
        if isinstance(f, QVar):
            return frozenset((f.index,) if occurrence else ())
        if isinstance(f, QFalse):
            return frozenset()
        if isinstance(f, (QAnd, QOr, QImp)):
            return kid_vars[0] | kid_vars[1]
        if isinstance(f, (QForall, QExists)):
            return bind(kid_vars[0], {f.index})
        raise TypeError(f"not a QBF formula: {f!r}")

    return step


_FREE_VARS_STEP = _vars_step(frozenset.difference)
_BOUND_VARS_STEP = _vars_step(frozenset.union, occurrence=False)

# Most bits the truth tables of one evaluation hold: distinct nodes x 2^v
# for v bound variables (2^26 bits is 8 MiB).
TABLE_BITS_MAX = 1 << 26


def universal_closure(f: QbfFormula) -> QbfFormula:
    """Prefix universal quantifiers over all free variables, in index order
    (the smallest index becomes the outermost quantifier)."""
    g = f
    for index in sorted(free_vars(f), reverse=True):
        g = QForall(index, g)
    return g


def evaluate(model: Iterable[int], f: QbfFormula) -> bool:
    """Truth of ``f`` in the given model (a set of true variable indices)."""
    model = frozenset(model)
    tables, weight = _truth_tables(f, model)
    return bool(tables[f] >> sum(w for index, w in weight.items() if index in model) & 1)


@functools.lru_cache(maxsize=1)
def _truth_tables(f: QbfFormula, model: frozenset[int]):
    """Truth table of every subformula of ``f``, and the weight of each
    bound variable.  Bit ``a`` of a table is the truth of the subformula when
    the bound variables whose weights sum to ``a`` are true, the other bound
    ones false and the free ones as in ``model``; a quantifier over a
    variable of weight w pairs bit a with bit a + w: AND for A, OR for E.
    The last call's tables are kept, so ``_tree_choices`` reads the ones
    ``is_true_qbf`` has just built; callers must not change them."""
    counted: dict = {}
    bound = sorted(_fold(f, _BOUND_VARS_STEP, counted))
    size = 1 << len(bound)
    if len(counted) * size > TABLE_BITS_MAX:
        raise ValueError(
            f"QBF truth tables need {len(counted)} nodes x 2^{len(bound)} assignments,"
            f" over the limit of {TABLE_BITS_MAX} bits"
        )
    full = (1 << size) - 1
    weight: dict[int, int] = {}
    column: dict[int, int] = {}  # the assignments that make a bound variable true
    for k, index in enumerate(bound):
        w = weight[index] = 1 << k
        column[index] = ((1 << w) - 1) << w
        for j in range(k + 1, len(bound)):
            column[index] |= column[index] << (1 << j)

    def step(g, tables) -> int:
        if isinstance(g, QVar):
            return column.get(g.index, full if g.index in model else 0)
        if isinstance(g, QFalse):
            return 0
        if isinstance(g, QAnd):
            return tables[0] & tables[1]
        if isinstance(g, QOr):
            return tables[0] | tables[1]
        if isinstance(g, QImp):
            return (full ^ tables[0]) | tables[1]
        body, w = tables[0], weight[g.index]
        pair = body & body >> w if isinstance(g, QForall) else body | body >> w
        pair &= full ^ column[g.index]
        return pair | pair << w

    memo: dict = {}
    _fold(f, step, memo)
    return memo, weight


def _tree_choices(f: QbfFormula) -> tuple[bool, ...]:
    """The child each existential world of the quantifier tree of the true
    prenex ``f`` keeps, in pre-order: False for the one without the
    variable, preferred when both work, True for the one with it.  They are
    read off the truth tables ``is_true_qbf(f)`` has just built.  With the
    prefix they fix the tree: A branches twice, E keeps one child, and the
    valuation follows from the assignments and levels."""
    tables, weight = _truth_tables(f, frozenset())
    if not tables[f] & 1:
        raise ValueError("quantifier tree exists only for true formulas")
    choices = []
    stack = [(f, 0)]  # (the suffix below a world, its table bit)
    while stack:
        g, bit = stack.pop()
        if isinstance(g, QForall):
            stack += [(g.body, bit | weight[g.index]), (g.body, bit)]
        elif isinstance(g, QExists):
            choices.append(not tables[g.body] >> bit & 1)
            stack.append((g.body, bit | weight[g.index] if choices[-1] else bit))
    return tuple(choices)


def is_true_qbf(f: QbfFormula) -> bool:
    """Identical truth: the universal closure holds in the empty model."""
    return evaluate((), universal_closure(f))


def is_prenex(f: QbfFormula) -> bool:
    """True when all quantifiers form a leading prefix."""
    _, matrix = prenex_split(f)
    return not _fold(matrix, _quantified_step, _QUANTIFIED_MEMO)


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

    Already-prenex inputs come back unchanged.  Otherwise one depth-first
    pass renames bound variables apart (clashes get fresh indices max+1,
    max+2, ... in visiting order) and pulls the quantifiers out left to
    right, dualizing those under an odd number of implication antecedents.
    The quantifier count of the input is preserved.
    """
    if free_vars(f):
        raise ValueError("to_prenex requires a closed formula")
    if is_prenex(f):
        return f
    # every variable of a closed formula is bound
    fresh = itertools.count(max(_fold(f, _BOUND_VARS_STEP, {}), default=0) + 1)
    used: set[int] = set()
    prefix: list[tuple[str, int]] = []
    matrix: list[QbfFormula] = []
    # (formula, renaming, odd) to visit; (connective, None, None) joins the
    # last two matrix parts
    stack: list = [(f, {}, False)]
    while stack:
        g, env, odd = stack.pop()
        if env is None:
            right = matrix.pop()
            matrix.append(g(matrix.pop(), right))
        elif isinstance(g, (QForall, QExists)):
            index = g.index if g.index not in used else next(fresh)
            used.add(index)
            prefix.append(("A" if isinstance(g, QForall) != odd else "E", index))
            stack.append((g.body, {**env, g.index: index}, odd))
        elif isinstance(g, (QAnd, QOr, QImp)):
            stack.append((type(g), None, None))
            stack.append((g.right, env, odd))
            stack.append((g.left, env, odd != isinstance(g, QImp)))
        else:
            matrix.append(QVar(env[g.index]) if isinstance(g, QVar) else g)
    return prenex_join(prefix, matrix.pop())
