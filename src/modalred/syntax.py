"""Abstract syntax, parsing, printing, substitution and size metrics.

Two term languages live here: quantified Boolean formulas (Q* classes) and
modal formulas (M* classes).  All nodes are hash-consed: constructing a node
twice with equal arguments yields the same object, so structural equality is
object identity and formulas can be used as dictionary keys at O(1) cost.
``Formula.__new__`` builds every node: a node class declares its fields, in
argument order, in ``__slots__``, and a leading integer field's error wording
and least value in ``_PARAM`` and ``_LEAST`` (1 unless set).  Assigning or
deleting a field raises ``FrozenInstanceError``; nodes are safe to share.

The modal language carries two sugar nodes, the two shorthands the
reduction prints: ``box<=n`` (all depths 0..n) and ``box^n`` (n nested
boxes).  ``expand_sugar`` rewrites them into the core connectives, as
``parse_modal`` does with what it reads, while programmatically built
formulas may keep sugar nodes so that dumps stay close to their blackboard
shape.  The parser also reads ``box+ f`` as ``box<=1 f`` and ``dia^n f`` as
n nested diamonds; neither has a node of its own.

One loop parses both languages by Dijkstra's shunting yard: finished formulas
wait on an operand stack and pending operators on an operator stack, until a
token of lower binding power in the table ``_GRAMMAR`` ends their operands.

Every formula walker in the package but one is a step function over one
fold, ``_fold``: a memoized post-order walk with an explicit stack, driven by
one table of node children.  So all walks share one traversal order, and no
walk is bounded by Python's recursion limit.  The walkers are ``render``,
``substitute``, ``expand_sugar``, ``formula_size`` and ``modal_vars`` here;
``free_vars``, ``is_prenex``, the truth tables and the bound-variable count
in ``qbf``; the matrix conversion of ``reduction.encode_star``; and the NNF,
the may-spawn mark and the oracle's subformula list in ``solver``.  Mask
evaluation in ``kripke`` keeps the same order in a loop of its own, which
evaluates sugar in place.  A node's value depends on the node alone, so most
memos are kept for the whole process: those of ``substitute`` (one per
mapping), ``expand_sugar``, ``formula_size``, ``modal_vars``, ``free_vars``,
``is_prenex``, the matrix conversion, the NNF and the may-spawn mark, and
each frame's masks (one table per valuation).  ``render`` starts afresh each
call, since a kept table would hold strings of quadratic total size; so do
the truth tables, whose node count sets their size limit, and the
bound-variable count and subformula list.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from operator import attrgetter
from typing import Iterable, Mapping

__all__ = [
    "Formula",
    "QbfFormula",
    "QVar",
    "QFalse",
    "QAnd",
    "QOr",
    "QImp",
    "QForall",
    "QExists",
    "ModalFormula",
    "MVar",
    "MFalse",
    "MTrue",
    "MNot",
    "MAnd",
    "MOr",
    "MImp",
    "MBox",
    "MDia",
    "MBoxLe",
    "MBoxPow",
    "Substitution",
    "FormulaSyntaxError",
    "parse_qbf",
    "parse_modal",
    "render",
    "substitute",
    "expand_sugar",
    "formula_size",
    "is_constant",
    "modal_vars",
    "conj",
    "qneg",
]


# ---------------------------------------------------------------------------
# Node classes (hash-consed)
# ---------------------------------------------------------------------------


def _require_int(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an int >= ``least`` (1, or 0 for
    a non-negative limit); a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


# the field guards of every immutable class of the package: formula nodes
# here, worlds, frames and models in ``kripke``, the encoding context and the
# verdicts.  The error class is imported where it is raised, so that
# importing the package does not load ``dataclasses`` (and the ``inspect``
# it loads) for it.
def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


# construction, equality, hash and repr of a value class from the fields
# its ``_FIELDS`` names: equal only to a value of its own class
def _set_fields(self, *values) -> None:
    """Set the fields to ``values``, in order, past the frozen guards.  One
    attribute at a time keeps the values inline; updating ``vars(self)``
    would give every instance a dict of its own, about 2.4 times the size."""
    for name, value in zip(self._FIELDS, values):
        object.__setattr__(self, name, value)


def _field_values(self) -> tuple:
    return tuple(getattr(self, name) for name in self._FIELDS)


def _fields_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _fields_hash(self):
    return hash(_field_values(self))


def _fields_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
    return f"{type(self).__qualname__}({shown})"


_POOL: dict = {}


class Formula:
    """Hash-consed, immutable formula node (see the module docstring)."""

    __slots__ = ()
    _PARAM = None
    _LEAST = 1

    def __new__(cls, *values):
        key = (cls, *values)
        node = _POOL.get(key)
        # MVar(1.0) and MVar(True) find MVar(1): only an exact int field stands on a hit
        if node is not None and (not cls._PARAM or values[0].__class__ is int):
            return node
        if cls._PARAM and values:
            _require_int(cls._PARAM, values[0], cls._LEAST)
        if node is None:
            if len(values) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}, got {len(values)} values")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, values):
                object.__setattr__(node, name, value)
            # setdefault keeps one canonical node under concurrent construction
            node = _POOL.setdefault(key, node)
        return node

    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr

    def __repr__(self):
        return f"{type(self).__name__}({render(self)!r})"

    def _params(self) -> tuple:
        """The leading integer field, if the class declares one."""
        return (getattr(self, self.__slots__[0]),) if self._PARAM else ()


class QbfFormula(Formula):
    """Quantified Boolean formula node."""

    __slots__ = ()


class ModalFormula(Formula):
    """Modal formula node (possibly containing sugar)."""

    __slots__ = ()


class QVar(QbfFormula):
    __slots__ = ("index",)
    _PARAM = "variable index"


class QFalse(QbfFormula):
    __slots__ = ()


class QAnd(QbfFormula):
    __slots__ = ("left", "right")


class QOr(QbfFormula):
    __slots__ = ("left", "right")


class QImp(QbfFormula):
    __slots__ = ("left", "right")


class QForall(QbfFormula):
    __slots__ = ("index", "body")
    _PARAM = "variable index"


class QExists(QbfFormula):
    __slots__ = ("index", "body")
    _PARAM = "variable index"


class MVar(ModalFormula):
    __slots__ = ("index",)
    _PARAM = "variable index"


class MFalse(ModalFormula):
    __slots__ = ()


class MTrue(ModalFormula):
    __slots__ = ()


class MNot(ModalFormula):
    __slots__ = ("body",)


class MAnd(ModalFormula):
    """N-ary conjunction; the item tuple is non-empty."""

    __slots__ = ("items",)

    def __new__(cls, items: Iterable[ModalFormula]):
        if not (items := tuple(items)):
            raise ValueError("n-ary conjunction needs at least one conjunct")
        return super().__new__(cls, items)


class MOr(ModalFormula):
    __slots__ = ("left", "right")


class MImp(ModalFormula):
    __slots__ = ("left", "right")


class MBox(ModalFormula):
    __slots__ = ("body",)


class MDia(ModalFormula):
    __slots__ = ("body",)


class MBoxLe(ModalFormula):
    """Sugar: box<=n f stands for the conjunction of box^i f for i = 0..n."""

    __slots__ = ("bound", "body")
    _PARAM, _LEAST = "box<= bound", 0


class MBoxPow(ModalFormula):
    """Sugar: box^n f, n nested boxes."""

    __slots__ = ("power", "body")
    _PARAM, _LEAST = "box^ power", 0


#: A substitution maps variable indices to modal formulas; indices outside
#: the mapping are left untouched.
Substitution = Mapping[int, ModalFormula]


def conj(items: Iterable[ModalFormula]) -> ModalFormula:
    """Big-wedge helper: [] gives true, a singleton gives the formula itself."""
    items = tuple(items)
    if not items:
        return MTrue()
    if len(items) == 1:
        return items[0]
    return MAnd(items)


def qneg(f: QbfFormula) -> QbfFormula:
    """QBF negation sugar: the language has no ~ node, so ~f is f -> false."""
    return QImp(f, QFalse())


# ---------------------------------------------------------------------------
# Tokenizer / parsers
# ---------------------------------------------------------------------------


class FormulaSyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte offset into the input text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# Sugar expands eagerly during parsing, so an absurd bound in the input would
# materialize an absurd formula; reject it at the parser instead.
MAX_PARSED_SUGAR_BOUND = 10_000


# Each match consumes the whitespace before its token; the token's offset is
# the start of its group.  "eof" matches the end of the text.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<boxle>box<=\d+)
    | (?P<boxpow>box\^\d+)
    | (?P<diapow>dia\^\d+)
    | (?P<boxplus>box\+)
    | (?P<box>\[\])
    | (?P<dia><>)
    | (?P<arrow>->)
    | (?P<var>p\d+)
    | (?P<forall>A(?![A-Za-z0-9_]))
    | (?P<exists>E(?![A-Za-z0-9_]))
    | (?P<false>false(?![A-Za-z0-9_]))
    | (?P<true>true(?![A-Za-z0-9_]))
    | (?P<amp>&)
    | (?P<bar>\|)
    | (?P<tilde>~)
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<dot>\.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)
_SPACE_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    kind = None
    while kind != "eof":
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            pos = _SPACE_RE.match(text, pos).end()
            raise FormulaSyntaxError(f"unknown token {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _right(node):
    return lambda *run: reduce(lambda right, left: node(left, right), reversed(run))


def _iterate(modality, n: int, f: ModalFormula) -> ModalFormula:
    """``f`` under ``n`` nested ``modality`` nodes."""
    for _ in range(n):
        f = modality(f)
    return f


_ATOM = 5  # the binding power of an operand, above every operator

#: Binding power (``render`` reads it too), QBF and modal constructor (None
#: where the language lacks the token) of every token that builds a formula.
#: A quantifier may only open a formula: at the start, after '(' or '.'.
_GRAMMAR = {
    "var": (_ATOM, QVar, MVar),
    "false": (_ATOM, QFalse, MFalse),
    "true": (_ATOM, None, MTrue),
    "forall": (0, QForall, None),
    "exists": (0, QExists, None),
    "arrow": (1, _right(QImp), _right(MImp)),
    "bar": (2, lambda *run: reduce(QOr, run), lambda *run: reduce(MOr, run)),
    "amp": (3, lambda *run: reduce(QAnd, run), lambda *run: MAnd(run)),
    "tilde": (4, qneg, MNot),
    "box": (4, None, MBox),
    "dia": (4, None, MDia),
    "boxplus": (4, None, partial(MBoxLe, 1)),
    "boxle": (4, None, MBoxLe),
    "boxpow": (4, None, MBoxPow),
    "diapow": (4, None, partial(_iterate, MDia)),
}
# '(' on the operator stack, and the row of punctuation, so ')' and eof close groups
_OPEN = (-1, None, None)


def _unexpected(message: str, token) -> FormulaSyntaxError:
    kind, word, offset = token
    found = "end of input" if kind == "eof" else repr(word)
    return FormulaSyntaxError(f"{message}, found {found}", offset)


def _index(token) -> int:
    _, word, offset = token
    index = int(word[1:])
    if index < 1:
        raise FormulaSyntaxError("variable indices start at 1", offset)
    return index


def _parse(text: str, modal: bool) -> Formula:
    column = 2 if modal else 1
    tokens = iter(_tokenize(text))
    operands: list = []
    ops: list = []  # pending (power, constructor, first operand) and _OPEN
    operand = True  # the next token must start an operand
    for token in tokens:
        kind, word, offset = token
        row = _GRAMMAR.get(kind, _OPEN)
        power, make = row[0], row[column]
        if not operand:
            while ops and ops[-1][0] > power:  # apply what binds tighter
                _, apply, first = ops.pop()
                operands[first:] = [apply(*operands[first:])]
            if power in (1, 2, 3):
                if not ops or ops[-1][0] < power:  # else it continues that run
                    ops.append((power, make, len(operands) - 1))
                operand = True
            elif kind == "rpar" and ops:
                ops.pop()
            elif kind == "eof" and not ops:
                return operands[0]
            elif _OPEN in ops:
                raise _unexpected("unbalanced parentheses: expected ')'", token)
            else:
                raise _unexpected("expected end of input", token)
        elif kind == "lpar":
            ops.append(_OPEN)
        elif make is None or power in (1, 2, 3) or (power == 0 and ops and ops[-1][0] > 0):
            if kind == "rpar":
                raise _unexpected("unbalanced parentheses: unmatched ')'", token)
            raise _unexpected("expected a formula", token)
        elif power < _ATOM:
            if power == 0:
                var = next(tokens)
                if var[0] != "var":
                    raise _unexpected("expected a variable after quantifier", var)
                dot = next(tokens)
                if dot[0] != "dot":
                    raise _unexpected("expected '.' after quantified variable", dot)
                make = partial(make, _index(var))
            elif kind in ("boxle", "boxpow", "diapow"):
                bound = int(word[5:] if kind == "boxle" else word[4:])
                if bound > MAX_PARSED_SUGAR_BOUND:
                    raise FormulaSyntaxError(
                        f"sugar bound {bound} exceeds the parser limit"
                        f" of {MAX_PARSED_SUGAR_BOUND}",
                        offset,
                    )
                make = partial(make, bound)
            ops.append((power, make, len(operands)))
        else:
            operands.append(make(_index(token)) if kind == "var" else make())
            operand = False


def parse_qbf(text: str) -> QbfFormula:
    """Parse a quantified Boolean formula. ``~f`` is sugar for ``f -> false``."""
    return _parse(text, modal=False)


def parse_modal(text: str) -> ModalFormula:
    """Parse a modal formula; sugar tokens are expanded into core connectives."""
    return expand_sugar(_parse(text, modal=True))


# ---------------------------------------------------------------------------
# The fold every walker runs on
# ---------------------------------------------------------------------------

#: The children of every inner node class, left to right; leaf classes
#: (QVar, QFalse, MVar, MFalse, MTrue) have none and are absent.
_CHILDREN = {
    **dict.fromkeys((QAnd, QOr, QImp, MOr, MImp), attrgetter("left", "right")),
    **dict.fromkeys(
        (QForall, QExists, MNot, MBox, MDia, MBoxLe, MBoxPow),
        lambda f: (f.body,),
    ),
    MAnd: attrgetter("items"),
}


def _fold(root, combine, memo: dict):
    """Value of ``root`` computed bottom-up with an explicit stack.

    ``combine(node, child_results)`` runs once per distinct node missing from
    ``memo``, children first and left to right (the first-occurrence
    post-order of a recursive walk), and its result, which must not be None,
    is stored in ``memo``.  A node of a class outside ``_CHILDREN`` is a leaf;
    ``combine`` rejects the ones that are not formulas.
    """
    result = memo.get(root)
    if result is not None:
        return result
    stack = [(root, None)]  # (node, None) to expand, (node, kids) to combine
    push, pop, lookup = stack.append, stack.pop, memo.__getitem__
    while stack:
        node, kids = pop()
        if kids is None:
            if node in memo:
                continue
            children = _CHILDREN.get(type(node))
            if children is None:
                memo[node] = combine(node, [])
                continue
            kids = children(node)
            push((node, kids))
            waiting = len(stack)
            for kid in reversed(kids):
                if kid not in memo:
                    push((kid, None))
            if len(stack) > waiting:
                continue
            pop()
        memo[node] = combine(node, [*map(lookup, kids)])
    return memo[root]


_CORE = (MVar, MFalse, MTrue, MNot, MAnd, MOr, MImp, MBox, MDia)
_MODAL = _CORE + (MBoxLe, MBoxPow)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

#: The text of every leaf and the prefix of every unary node, with the
#: node's integer parameter formatted in.
_LEAF = {QVar: "p{}", MVar: "p{}", QFalse: "false", MFalse: "false", MTrue: "true"}
_PREFIX = {MNot: "~", MBox: "[] ", MDia: "<> ", MBoxLe: "box<={} ", MBoxPow: "box^{} "}


def render(f: Formula) -> str:
    """Pretty-print a formula; ``parse(render(f))`` restores the same tree,
    except that sugar nodes reparse to their expansion."""
    return _fold(f, _render_step, {})[0]


def _wrap(part: tuple[str, int], needed: int) -> str:
    text, prec = part
    return f"({text})" if prec < needed else text


def _render_step(f, parts) -> tuple[str, int]:
    """Text and binding power of ``f`` from those of its children."""
    if type(f) in _LEAF:
        return _LEAF[type(f)].format(*f._params()), _ATOM
    if isinstance(f, (QForall, QExists)):
        letter = "A" if isinstance(f, QForall) else "E"
        return f"{letter} p{f.index} . {parts[0][0]}", _GRAMMAR["forall"][0]
    if isinstance(f, (QImp, MImp)):
        power = _GRAMMAR["arrow"][0]
        return f"{_wrap(parts[0], power + 1)} -> {_wrap(parts[1], power)}", power
    if isinstance(f, (QOr, MOr)):
        power = _GRAMMAR["bar"][0]
        return f"{_wrap(parts[0], power)} | {_wrap(parts[1], power + 1)}", power
    if isinstance(f, QAnd):
        power = _GRAMMAR["amp"][0]
        return f"{_wrap(parts[0], power)} & {_wrap(parts[1], power + 1)}", power
    if isinstance(f, MAnd):
        # printed in its own parentheses, so a flat run survives the round trip
        return "(" + " & ".join(_wrap(p, _GRAMMAR["amp"][0] + 1) for p in parts) + ")", _ATOM
    prefix = _PREFIX.get(type(f))
    if prefix is None:
        raise TypeError(f"not a formula: {f!r}")
    power = _GRAMMAR["tilde"][0]
    return prefix.format(*f._params()) + _wrap(parts[0], power), power


# ---------------------------------------------------------------------------
# Substitution, sugar expansion, sizes
# ---------------------------------------------------------------------------


def _rebuild(f, kids) -> ModalFormula:
    """The modal node ``f`` over new children; hash-consing hands back ``f``
    itself when they are its own."""
    cls = type(f)
    if cls not in _MODAL:
        raise TypeError(f"not a modal formula: {f!r}")
    if cls is MAnd:
        return MAnd(kids)
    return cls(*f._params(), *kids)


# one fold memo per mapping, keyed by its items: a ladder map rebuilds the
# parts the encodings of one prefix share once
_SUBSTITUTE_MEMOS: dict = {}


def substitute(f: ModalFormula, mapping: Substitution) -> ModalFormula:
    """Replace every variable with index in ``mapping`` by its image.

    Modal formulas have no binders, so the substitution is unconditional;
    thanks to hash-consing, untouched subtrees come back as the same objects.
    Images are kept for later calls with an equal mapping.
    """
    if not mapping:
        return f

    def step(g, kids):
        if isinstance(g, MVar):
            return mapping.get(g.index, g)
        return _rebuild(g, kids)

    return _fold(f, step, _SUBSTITUTE_MEMOS.setdefault(frozenset(mapping.items()), {}))


_EXPAND_MEMO: dict = {}


def expand_sugar(f: ModalFormula) -> ModalFormula:
    """Rewrite box<=n and box^n into the core connectives."""
    return _fold(f, _expand_step, _EXPAND_MEMO)


def _expand_step(f, kids) -> ModalFormula:
    if isinstance(f, MBoxLe):
        layers = [kids[0]]
        for _ in range(f.bound):
            layers.append(MBox(layers[-1]))
        return MAnd(layers) if f.bound else kids[0]
    if isinstance(f, MBoxPow):
        return _iterate(MBox, f.power, kids[0])
    return _rebuild(f, kids)


_SIZE_MEMO: dict = {}


def formula_size(f: ModalFormula) -> int:
    """Symbol count of the sugar-expanded formula: 1 per leaf, 1 per unary or
    binary connective, arity-1 per n-ary conjunction."""
    return _fold(expand_sugar(f), _size_step, _SIZE_MEMO)


def _size_step(f, sizes) -> int:
    if isinstance(f, MAnd):
        return len(sizes) - 1 + sum(sizes)
    if isinstance(f, _CORE):
        return 1 + sum(sizes)
    raise TypeError(f"unexpanded or non-modal node: {f!r}")


def is_constant(f: ModalFormula) -> bool:
    """True when the formula contains no variable node (variable-free)."""
    return not modal_vars(f)


_VARS_MEMO: dict = {}


def modal_vars(f: ModalFormula) -> frozenset[int]:
    """Indices of all variables occurring in the formula."""
    return _fold(f, _vars_step, _VARS_MEMO)


def _vars_step(f, kid_vars) -> frozenset[int]:
    if isinstance(f, MVar):
        return frozenset((f.index,))
    if not isinstance(f, _MODAL):
        raise TypeError(f"not a modal formula: {f!r}")
    if len(kid_vars) == 1:
        return kid_vars[0]
    return frozenset().union(*kid_vars)

