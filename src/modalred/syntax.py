"""Abstract syntax, parsing, printing, substitution and size metrics.

Two term languages live here: quantified Boolean formulas (Q* classes) and
modal formulas (M* classes).  All nodes are hash-consed: constructing a node
twice with equal arguments yields the same object, so structural equality is
object identity and formulas can be used as dictionary keys at O(1) cost.
Nodes are immutable after construction and safe to share across threads.

The modal language carries four kinds of sugar mirroring common shorthands:
``box+`` (reflexive box), ``box<=n`` (all depths 0..n), ``box^n`` and ``dia^n``
(iterated modalities).  ``expand_sugar`` rewrites them into the core
connectives; the parser expands sugar tokens eagerly, while programmatically
built formulas may keep sugar nodes so that dumps stay close to their
blackboard shape.

Every formula walker in the package (printing, substitution, sugar
expansion, sizes, variables and depth here; free variables, the prenex test,
matrix conversion, the oracle's subformula list and model checking
elsewhere) is a step function over one fold, ``_fold``: a memoized
post-order walk with an explicit stack, driven by one table of node
children.  So all walks share one traversal order, and no walk is bounded by
Python's recursion limit.
"""

from __future__ import annotations

import re
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
    "MBoxPlus",
    "MBoxLe",
    "MBoxPow",
    "MDiaPow",
    "Substitution",
    "FormulaSyntaxError",
    "parse_qbf",
    "parse_modal",
    "render",
    "substitute",
    "expand_sugar",
    "formula_size",
    "qbf_size",
    "is_constant",
    "modal_vars",
    "modal_depth",
    "conj",
    "neg",
    "qneg",
]


# ---------------------------------------------------------------------------
# Node classes (hash-consed)
# ---------------------------------------------------------------------------

_POOL: dict = {}


def _make(cls, key, names, values):
    node = _POOL.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(names, values):
            setattr(node, name, value)
        # setdefault keeps one canonical node under concurrent construction
        node = _POOL.setdefault(key, node)
    return node


class Formula:
    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}({render(self)!r})"


class QbfFormula(Formula):
    """Quantified Boolean formula node."""

    __slots__ = ()


class ModalFormula(Formula):
    """Modal formula node (possibly containing sugar)."""

    __slots__ = ()


class QVar(QbfFormula):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        return _make(cls, (cls, index), ("index",), (index,))


class QFalse(QbfFormula):
    __slots__ = ()

    def __new__(cls):
        return _make(cls, (cls,), (), ())


class QAnd(QbfFormula):
    __slots__ = ("left", "right")

    def __new__(cls, left: QbfFormula, right: QbfFormula):
        return _make(cls, (cls, left, right), ("left", "right"), (left, right))


class QOr(QbfFormula):
    __slots__ = ("left", "right")

    def __new__(cls, left: QbfFormula, right: QbfFormula):
        return _make(cls, (cls, left, right), ("left", "right"), (left, right))


class QImp(QbfFormula):
    __slots__ = ("left", "right")

    def __new__(cls, left: QbfFormula, right: QbfFormula):
        return _make(cls, (cls, left, right), ("left", "right"), (left, right))


class QForall(QbfFormula):
    __slots__ = ("index", "body")

    def __new__(cls, index: int, body: QbfFormula):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        return _make(cls, (cls, index, body), ("index", "body"), (index, body))


class QExists(QbfFormula):
    __slots__ = ("index", "body")

    def __new__(cls, index: int, body: QbfFormula):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        return _make(cls, (cls, index, body), ("index", "body"), (index, body))


class MVar(ModalFormula):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        return _make(cls, (cls, index), ("index",), (index,))


class MFalse(ModalFormula):
    __slots__ = ()

    def __new__(cls):
        return _make(cls, (cls,), (), ())


class MTrue(ModalFormula):
    __slots__ = ()

    def __new__(cls):
        return _make(cls, (cls,), (), ())


class MNot(ModalFormula):
    __slots__ = ("body",)

    def __new__(cls, body: ModalFormula):
        return _make(cls, (cls, body), ("body",), (body,))


class MAnd(ModalFormula):
    """N-ary conjunction; the item tuple is non-empty."""

    __slots__ = ("items",)

    def __new__(cls, items: Iterable[ModalFormula]):
        items = tuple(items)
        if not items:
            raise ValueError("n-ary conjunction needs at least one conjunct")
        return _make(cls, (cls, items), ("items",), (items,))


class MOr(ModalFormula):
    __slots__ = ("left", "right")

    def __new__(cls, left: ModalFormula, right: ModalFormula):
        return _make(cls, (cls, left, right), ("left", "right"), (left, right))


class MImp(ModalFormula):
    __slots__ = ("left", "right")

    def __new__(cls, left: ModalFormula, right: ModalFormula):
        return _make(cls, (cls, left, right), ("left", "right"), (left, right))


class MBox(ModalFormula):
    __slots__ = ("body",)

    def __new__(cls, body: ModalFormula):
        return _make(cls, (cls, body), ("body",), (body,))


class MDia(ModalFormula):
    __slots__ = ("body",)

    def __new__(cls, body: ModalFormula):
        return _make(cls, (cls, body), ("body",), (body,))


class MBoxPlus(ModalFormula):
    """Sugar: box+ f stands for f & [] f."""

    __slots__ = ("body",)

    def __new__(cls, body: ModalFormula):
        return _make(cls, (cls, body), ("body",), (body,))


class MBoxLe(ModalFormula):
    """Sugar: box<=n f stands for the conjunction of box^i f for i = 0..n."""

    __slots__ = ("bound", "body")

    def __new__(cls, bound: int, body: ModalFormula):
        if not isinstance(bound, int) or bound < 0:
            raise ValueError(f"box<= bound must be a non-negative integer, got {bound!r}")
        return _make(cls, (cls, bound, body), ("bound", "body"), (bound, body))


class MBoxPow(ModalFormula):
    """Sugar: box^n f, n nested boxes."""

    __slots__ = ("power", "body")

    def __new__(cls, power: int, body: ModalFormula):
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"box^ power must be a non-negative integer, got {power!r}")
        return _make(cls, (cls, power, body), ("power", "body"), (power, body))


class MDiaPow(ModalFormula):
    """Sugar: dia^n f, n nested diamonds."""

    __slots__ = ("power", "body")

    def __new__(cls, power: int, body: ModalFormula):
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"dia^ power must be a non-negative integer, got {power!r}")
        return _make(cls, (cls, power, body), ("power", "body"), (power, body))


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


def neg(f: ModalFormula) -> ModalFormula:
    return MNot(f)


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


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<boxle>box<=\d+)
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
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unknown token {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser shared by the QBF and modal front ends."""

    def __init__(self, text: str, modal: bool):
        self.text = text
        self.modal = modal
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        kind, text, offset = self.peek()
        if kind == "eof":
            raise FormulaSyntaxError(f"{message}, found end of input", offset)
        raise FormulaSyntaxError(f"{message}, found {text!r}", offset)

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek()[0] != "eof":
            self.error("expected end of input")
        return f

    def formula(self) -> Formula:
        kind, _, _ = self.peek()
        if not self.modal and kind in ("forall", "exists"):
            self.take()
            vkind, vtext, _ = self.peek()
            if vkind != "var":
                self.error("expected a variable after quantifier")
            self.take()
            if self.peek()[0] != "dot":
                self.error("expected '.' after quantified variable")
            self.take()
            body = self.formula()
            index = int(vtext[1:])
            return QForall(index, body) if kind == "forall" else QExists(index, body)
        return self.implies()

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.take()
            right = self.implies()
            return MImp(left, right) if self.modal else QImp(left, right)
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "bar":
            self.take()
            g = self.conjunction()
            f = MOr(f, g) if self.modal else QOr(f, g)
        return f

    def conjunction(self) -> Formula:
        first = self.unary()
        if self.peek()[0] != "amp":
            return first
        if self.modal:
            items = [first]
            while self.peek()[0] == "amp":
                self.take()
                items.append(self.unary())
            return MAnd(items)
        f = first
        while self.peek()[0] == "amp":
            self.take()
            f = QAnd(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "tilde":
            self.take()
            body = self.unary()
            return MNot(body) if self.modal else qneg(body)
        if self.modal:
            if kind == "box":
                self.take()
                return MBox(self.unary())
            if kind == "dia":
                self.take()
                return MDia(self.unary())
            if kind == "boxplus":
                self.take()
                return expand_sugar(MBoxPlus(self.unary()))
            if kind in ("boxle", "boxpow", "diapow"):
                _, _, offset = self.take()
                bound = int(text[5:] if kind == "boxle" else text[4:])
                if bound > MAX_PARSED_SUGAR_BOUND:
                    raise FormulaSyntaxError(
                        f"sugar bound {bound} exceeds the parser limit"
                        f" of {MAX_PARSED_SUGAR_BOUND}",
                        offset,
                    )
                node = {"boxle": MBoxLe, "boxpow": MBoxPow, "diapow": MDiaPow}[kind]
                return expand_sugar(node(bound, self.unary()))
        return self.atom()

    def atom(self) -> Formula:
        kind, text, offset = self.peek()
        if kind == "var":
            self.take()
            index = int(text[1:])
            if index < 1:
                raise FormulaSyntaxError("variable indices start at 1", offset)
            return MVar(index) if self.modal else QVar(index)
        if kind == "false":
            self.take()
            return MFalse() if self.modal else QFalse()
        if kind == "true" and self.modal:
            self.take()
            return MTrue()
        if kind == "lpar":
            self.take()
            f = self.formula()
            if self.peek()[0] != "rpar":
                self.error("unbalanced parentheses: expected ')'")
            self.take()
            return f
        if kind == "rpar":
            self.error("unbalanced parentheses: unmatched ')'")
        self.error("expected a formula")


def parse_qbf(text: str) -> QbfFormula:
    """Parse a quantified Boolean formula. ``~f`` is sugar for ``f -> false``."""
    return _Parser(text, modal=False).parse()


def parse_modal(text: str) -> ModalFormula:
    """Parse a modal formula; sugar tokens are expanded into core connectives."""
    return _Parser(text, modal=True).parse()


# ---------------------------------------------------------------------------
# The fold every walker runs on
# ---------------------------------------------------------------------------

#: The children of every inner node class, left to right; leaf classes
#: (QVar, QFalse, MVar, MFalse, MTrue) have none and are absent.
_CHILDREN = {
    **dict.fromkeys((QAnd, QOr, QImp, MOr, MImp), attrgetter("left", "right")),
    **dict.fromkeys(
        (QForall, QExists, MNot, MBox, MDia, MBoxPlus, MBoxLe, MBoxPow, MDiaPow),
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
_MODAL = _CORE + (MBoxPlus, MBoxLe, MBoxPow, MDiaPow)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# Precedence levels: quantifier body 0 (maximal scope), -> 1, | 2, & 3,
# prefix operators 4, atoms 5.  N-ary conjunctions always print their own
# parentheses so flat lists survive the round trip.
_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5

_PREFIX = {MNot: "~", MBox: "[] ", MDia: "<> ", MBoxPlus: "box+ "}


def render(f: Formula) -> str:
    """Pretty-print a formula; ``parse(render(f))`` restores the same tree,
    except that sugar nodes reparse to their expansion."""
    return _fold(f, _render_step, {})[0]


def _wrap(part: tuple[str, int], needed: int) -> str:
    text, prec = part
    return f"({text})" if prec < needed else text


def _render_step(f, parts) -> tuple[str, int]:
    """Text and precedence of ``f`` from those of its children."""
    if isinstance(f, (QVar, MVar)):
        return f"p{f.index}", _PREC_ATOM
    if isinstance(f, (QFalse, MFalse)):
        return "false", _PREC_ATOM
    if isinstance(f, MTrue):
        return "true", _PREC_ATOM
    if isinstance(f, (QForall, QExists)):
        letter = "A" if isinstance(f, QForall) else "E"
        return f"{letter} p{f.index} . {parts[0][0]}", 0
    if isinstance(f, (QImp, MImp)):
        return f"{_wrap(parts[0], _PREC_IMP + 1)} -> {_wrap(parts[1], _PREC_IMP)}", _PREC_IMP
    if isinstance(f, (QOr, MOr)):
        return f"{_wrap(parts[0], _PREC_OR)} | {_wrap(parts[1], _PREC_OR + 1)}", _PREC_OR
    if isinstance(f, QAnd):
        return f"{_wrap(parts[0], _PREC_AND)} & {_wrap(parts[1], _PREC_AND + 1)}", _PREC_AND
    if isinstance(f, MAnd):
        return "(" + " & ".join(_wrap(p, _PREC_AND + 1) for p in parts) + ")", _PREC_ATOM
    if isinstance(f, MBoxLe):
        prefix = f"box<={f.bound} "
    elif isinstance(f, MBoxPow):
        prefix = f"box^{f.power} "
    elif isinstance(f, MDiaPow):
        prefix = f"dia^{f.power} "
    elif type(f) in _PREFIX:
        prefix = _PREFIX[type(f)]
    else:
        raise TypeError(f"not a formula: {f!r}")
    return prefix + _wrap(parts[0], _PREC_UNARY), _PREC_UNARY


# ---------------------------------------------------------------------------
# Substitution, sugar expansion, sizes
# ---------------------------------------------------------------------------


def _rebuild(f, kids) -> ModalFormula:
    """The modal node ``f`` over new children; hash-consing hands back ``f``
    itself when they are its own."""
    if isinstance(f, (MVar, MFalse, MTrue)):
        return f
    if isinstance(f, MAnd):
        return MAnd(kids)
    if isinstance(f, (MNot, MOr, MImp, MBox, MDia, MBoxPlus)):
        return type(f)(*kids)
    if isinstance(f, MBoxLe):
        return MBoxLe(f.bound, kids[0])
    if isinstance(f, (MBoxPow, MDiaPow)):
        return type(f)(f.power, kids[0])
    raise TypeError(f"not a modal formula: {f!r}")


def substitute(f: ModalFormula, mapping: Substitution) -> ModalFormula:
    """Replace every variable with index in ``mapping`` by its image.

    Modal formulas have no binders, so the substitution is unconditional;
    thanks to hash-consing, untouched subtrees come back as the same objects.
    """
    if not mapping:
        return f

    def step(g, kids):
        if isinstance(g, MVar):
            return mapping.get(g.index, g)
        return _rebuild(g, kids)

    return _fold(f, step, {})


_EXPAND_MEMO: dict = {}


def expand_sugar(f: ModalFormula) -> ModalFormula:
    """Rewrite box+/box<=n/box^n/dia^n into the core connectives."""
    return _fold(f, _expand_step, _EXPAND_MEMO)


def _expand_step(f, kids) -> ModalFormula:
    if isinstance(f, MBoxPlus):
        return MAnd((kids[0], MBox(kids[0])))
    if isinstance(f, MBoxLe):
        layers = [kids[0]]
        for _ in range(f.bound):
            layers.append(MBox(layers[-1]))
        return MAnd(layers) if f.bound else kids[0]
    if isinstance(f, (MBoxPow, MDiaPow)):
        result = kids[0]
        modality = MBox if isinstance(f, MBoxPow) else MDia
        for _ in range(f.power):
            result = modality(result)
        return result
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


def qbf_size(f: QbfFormula) -> int:
    """Symbol count of a QBF: 1 per leaf, 1 per connective or quantifier."""
    return _fold(f, _qbf_size_step, {})


def _qbf_size_step(f, sizes) -> int:
    if isinstance(f, (QVar, QFalse, QAnd, QOr, QImp, QForall, QExists)):
        return 1 + sum(sizes)
    raise TypeError(f"not a QBF formula: {f!r}")


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


_DEPTH_MEMO: dict = {}


def modal_depth(f: ModalFormula) -> int:
    """Maximal nesting depth of [] and <> in the sugar-expanded formula."""
    return _fold(expand_sugar(f), _depth_step, _DEPTH_MEMO)


def _depth_step(f, depths) -> int:
    if isinstance(f, (MBox, MDia)):
        return 1 + depths[0]
    if isinstance(f, _CORE):
        return max(depths, default=0)
    raise TypeError(f"unexpanded or non-modal node: {f!r}")
