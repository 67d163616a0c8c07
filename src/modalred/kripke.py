"""Finite Kripke frames and models.

Worlds carry structured identities: ``BaseWorld`` for quantifier-tree worlds
(level, classical assignment, creation serial) and ``GadgetWorld`` for the
worlds of the ladder gadgets (gadget index, part).  The string forms of these
identities are the stable ids used in JSON dumps, e.g. ``base:L2:{1,3}:#7``
and ``gadget:m3:a0``.
Worlds are immutable named tuples, built by one ``tuple.__new__`` and hashed
in C as their field tuples.  A world equals only a world of its own class,
never a plain tuple; worlds are unordered, so ``<`` raises ``TypeError``,
against a plain tuple too; and assigning or deleting a field raises
``FrozenInstanceError``.

A frame is its rows and nothing else.  Beside ``worlds`` it holds four
read-only fields: ``order``, the worlds sorted by id string; ``position``,
each world's place in that order; ``ids``, the id strings in that order;
and ``succ``, one successor bit row per world.  ``KripkeFrame(worlds,
relation)`` fills them in one pass over the pairs and refuses two worlds
that share an id string; ``close`` and ``extend_model`` hand rows they
already have to a new frame.  Model checking, closures, frame classes,
validity and the JSON and DOT views all read the fields; ``relation``, the
set of pairs, is a view derived from the rows the first time it is read,
and so are the predecessor rows, unless the frame's builder hands them
over, as ``extend_model`` does; a frame that is never evaluated derives
neither.  Equal frames have equal worlds and equal rows, and equality and
hashing compare just those two.

Model checking evaluates each distinct subformula once over all worlds as a
bitmask, which doubles as the (world, subformula) memoization: <> T is the
OR of the predecessor rows of T's worlds and [] is its dual, so one modal
node costs at most |worlds| ORs of |worlds|-bit rows.  One loop over an
explicit stack does it, dispatching on the node's class.  Sugar is evaluated
in place: box^n iterates the [] step, box<=n ANDs the body with its boxes,
and no expanded formula is built.  A sparse mask is read bit by bit, from
its highest bit down; a dense one, with at least one set bit in 16
positions, is read in C: its binary digits pick the rows through
``itertools.compress`` and ``functools.reduce`` ORs them.  The JSON writer
reads rows the same way.  A formula's mask depends on the rows and on the
masks of its variables alone, so each frame keeps the masks it has
evaluated, one table per valuation, keyed by the variable masks that
valuation gives; a variable-free formula's table has the empty key.  A table
is keyed by the nodes as given, sugar included.  So every model on the frame
evaluates a variable-free formula and its subformulas once, and every model
with the same valuation a formula with variables.  A model's valuation is
read afresh at each call, so a changed valuation is never answered from a
table of the old one.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce
from itertools import compress
from operator import itemgetter, or_
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .syntax import (
    MAnd,
    MBox,
    MBoxLe,
    MBoxPow,
    MDia,
    MFalse,
    MImp,
    MNot,
    MOr,
    MTrue,
    MVar,
    ModalFormula,
    _fields_eq,
    _fields_repr,
    _frozen_delattr,
    _frozen_setattr,
    _require_int,
    _set_fields,
    # nothing here calls it; perfbench's traced run rebinds this name
    expand_sugar,  # noqa: F401
    modal_vars,
)

__all__ = [
    "BaseWorld",
    "GadgetWorld",
    "WorldId",
    "world_id_str",
    "world_id_from_str",
    "KripkeFrame",
    "KripkeModel",
    "model_check",
    "model_check_all",
    "close",
    "frame_class_check",
    "frame_validates",
    "ValuationBudgetError",
    "wgrz_axiom",
    "model_to_json",
    "model_from_json",
    "frame_to_json",
    "frame_from_json",
    "frame_to_dot",
]


def _world_eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # a plain tuple would compare as one; any other value may still answer
    return False if isinstance(other, tuple) else NotImplemented


def _world_ne(self, other):
    equal = _world_eq(self, other)
    return equal if equal is NotImplemented else not equal


def _unordered(self, other):
    # NotImplemented would let a plain tuple order a world as a tuple
    raise TypeError(f"worlds are unordered: cannot order {self!r} and {other!r}")


class BaseWorld(NamedTuple):
    """Quantifier-tree world: a classical assignment at a quantifier level."""

    level: int
    assignment: frozenset[int]
    serial: int

    # defining __eq__ drops the inherited hash: the C tuple hash is restated
    __eq__, __ne__, __hash__ = _world_eq, _world_ne, tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr


class GadgetWorld(NamedTuple):
    """World of a ladder gadget F_m: part is 'a<i>', 'b' or 'c'."""

    gadget: int
    part: str

    __eq__, __ne__, __hash__ = _world_eq, _world_ne, tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr


WorldId = Union[BaseWorld, GadgetWorld]


def world_id_str(w: WorldId) -> str:
    """The id of ``w``.  A field that the id's reader, ``world_id_from_str``,
    would refuse is refused here in its words, so the reader accepts every
    id written: the assignment a frozenset, level, serial and assignment
    entries non-negative ints (not bools), the gadget index an int >= 1, the
    part ``b``, ``c`` or ``a<i>`` with i <= gadget, spelled canonically.  An
    assignment that is not even iterable is spelled without braces."""
    if isinstance(w, BaseWorld):
        level, assignment, serial = w.level, w.assignment, w.serial
        valid = type(level) is int and type(serial) is int and level >= 0 and serial >= 0 and (
            type(assignment) is frozenset and all(type(i) is int and i >= 0 for i in assignment)
        )
        if valid or isinstance(assignment, Iterable):
            inner = "{" + ",".join(map(str, sorted(assignment) if valid else assignment)) + "}"
        else:
            inner = str(assignment)  # no entries to list: spelled without braces
        text = f"base:L{level}:{inner}:#{serial}"
        if not valid:
            raise ValueError(f"unrecognized world id: {text!r}")
        return text
    if isinstance(w, GadgetWorld):
        gadget, part = w.gadget, w.part
        tag = f"gadget:m{gadget}:{part}"
        rung = part[1:] if type(part) is str and part[:1] == "a" and part[1:].isdecimal() else None
        if type(gadget) is not int or gadget < 0 or rung is None and part not in ("b", "c"):
            raise ValueError(f"unrecognized world id: {tag!r}")
        if gadget < 1 or rung is not None and (rung != str(int(rung)) or int(rung) > gadget):
            raise ValueError(f"not a world of a gadget F_m (m >= 1; parts a0..am, b, c): {tag!r}")
        return tag
    raise TypeError(f"not a world id: {w!r}")


_BASE_RE = re.compile(r"^base:L(\d+):\{((?:\d+(?:,\d+)*)?)\}:#(\d+)$")
_GADGET_RE = re.compile(r"^gadget:m(\d+):(b|c|a\d+)$")


def world_id_from_str(text: str) -> WorldId:
    """The world whose id is ``text``.  Only the canonical form that
    ``world_id_str`` writes is accepted, so two distinct ids never name the
    same world."""
    if not isinstance(text, str):
        raise ValueError(f"world id must be a string, got {text!r}")
    m = _BASE_RE.match(text)
    if m:
        inner = m.group(2)
        assignment = frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
        w = BaseWorld(int(m.group(1)), assignment, int(m.group(3)))
    else:
        m = _GADGET_RE.match(text)
        if m is None:
            raise ValueError(f"unrecognized world id: {text!r}")
        # the part is kept as written; writing it checks it against F_m
        w = GadgetWorld(int(m.group(1)), m.group(2))
    canonical = world_id_str(w)
    if canonical != text:
        raise ValueError(f"world id {text!r} is not in canonical form {canonical!r}")
    return w


class KripkeFrame:
    """A finite frame: worlds and an accessibility relation, read-only.

    Besides ``worlds`` a frame holds its rows as read-only fields: ``order``,
    the worlds sorted by id string; ``position``, each world's place in it;
    ``ids``, the id strings in that order; and ``succ``, one successor bit
    row per world (bit j of ``succ[i]`` is set when order[i] R order[j]).
    No two worlds may share an id string, so the order and the rows depend
    on the world set alone, and equal frames have equal worlds and equal
    rows.  ``relation`` accepts any iterable of pairs, each of which must
    stay inside ``worlds``, and reads back as the frozenset of pairs the
    rows hold, derived the first time it is read.  The predecessor rows
    that model checking reads are derived likewise, unless the builder
    hands them over (``_fill``'s ``pred``).  The masks of the
    formulas checked on the frame are kept with it, one table per
    valuation, for every model on it.
    """

    def __init__(self, worlds: frozenset[WorldId], relation: Iterable[tuple[WorldId, WorldId]]):
        # sorted on the id alone, so two worlds are never compared
        keyed = sorted(((world_id_str(w), w) for w in worlds), key=itemgetter(0))
        ids = tuple(wid for wid, _ in keyed)
        for wid, after in zip(ids, ids[1:]):
            if wid == after:
                raise ValueError(f"two worlds share the id {wid!r}")
        order = tuple(w for _, w in keyed)
        position = {w: i for i, w in enumerate(order)}
        succ = [0] * len(order)
        for u, v in relation:
            i, j = position.get(u), position.get(v)
            if i is None or j is None:
                raise ValueError(f"relation pair ({u!r}, {v!r}) leaves the world set")
            succ[i] |= 1 << j
        self._fill(worlds, order, position, tuple(succ), ids)

    def _fill(self, worlds, order, position, succ, ids, pred=None) -> KripkeFrame:
        """Set the fields, unchecked, and return the frame: every frame is
        built here, from rows its builder already has.  A builder that has
        the predecessor rows too hands them over in ``pred``."""
        fields = vars(self)
        fields.update(worlds=worlds, order=order, position=position, succ=succ, ids=ids)
        if pred is not None:
            fields["_pred"] = pred
        return self

    @cached_property
    def relation(self) -> frozenset[tuple[WorldId, WorldId]]:
        order = self.order
        return frozenset((order[i], order[j]) for i, j in _pairs(self.succ))

    @cached_property
    def _pred(self) -> tuple[int, ...]:
        """Predecessor rows, the transpose of ``succ``: bit i of
        ``_pred[j]`` is set when order[i] R order[j]."""
        return _transpose(self.succ)

    @cached_property
    def _masks(self) -> dict:
        """The masks of the formulas evaluated on this frame, one table per
        valuation, keyed by node as given, sugar included.  A table's key is
        the frozenset of the (index, mask) pairs it was computed under; the
        empty key holds the variable-free formulas, which every model on the
        frame shares."""
        return {}

    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.worlds == other.worlds and self.succ == other.succ

    def __hash__(self):
        return hash((self.worlds, self.succ))

    def __repr__(self):
        return f"KripkeFrame(worlds={self.worlds!r}, relation={self.relation!r})"


class KripkeModel:
    """A frame, a valuation (variable index -> the worlds where it holds)
    inside its worlds and a root among them, read-only."""

    _FIELDS = ("frame", "valuation", "root")

    def __init__(self, frame: KripkeFrame, valuation: Mapping[int, frozenset[WorldId]], root: WorldId):
        if root not in frame.worlds:
            raise ValueError("root must be one of the frame's worlds")
        for index, worlds in valuation.items():
            if not worlds <= frame.worlds:
                raise ValueError(f"valuation of p{index} leaves the world set")
        _set_fields(self, frame, valuation, root)

    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr
    __eq__, __repr__ = _fields_eq, _fields_repr

    def __hash__(self):
        # the valuation is a dict in every model the package builds
        return hash((self.frame, frozenset(self.valuation.items()), self.root))


def _assigned_model(worlds: list[BaseWorld], edges, variables) -> KripkeModel:
    """The model on ``worlds`` and ``edges``, rooted at ``worlds[0]``, in
    which each of ``variables`` holds exactly where a world's assignment has
    it: the form of both satisfiability engines' witnesses."""
    frame = KripkeFrame(frozenset(worlds), edges)
    valuation = {v: frozenset(w for w in worlds if v in w.assignment) for v in sorted(variables)}
    return KripkeModel(frame, valuation, worlds[0])


class ValuationBudgetError(Exception):
    """Raised when frame_validates would need to search too many valuations."""


# ---------------------------------------------------------------------------
# Bitmask evaluation
# ---------------------------------------------------------------------------


def _bits(row: int) -> list[int]:
    """Positions of the set bits of ``row``, lowest first.  They are read
    from the top: clearing the highest bit leaves a shorter row, where
    clearing the lowest copies the whole row and its negation per bit."""
    found = []
    while row:
        i = row.bit_length() - 1
        found.append(i)
        row ^= 1 << i
    found.reverse()
    return found


#: ``_select`` reads a row in C when it has a set bit in every
#: ``_DENSE_RUN`` positions up to its highest.  Selecting (Python 3.11, a
#: shared 2-vCPU VM; both ways OR the same rows after), the top-down loop
#: costs about 0.15-0.25 us a set bit, more on wide rows, and ``compress``
#: about 1.5 us plus 9-14 ns a position: they break even near one set bit in
#: 8 at 64-256 positions, in 12 at 1,000-4,000 and in 24 at 15,000.  At 16
#: a row misread either way costs at most about 1.5 us at 256 positions and
#: a fifth more at 1,000-4,000, so 16 stays.
_DENSE_RUN = 16
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _select(items, row: int):
    """The entries of ``items`` at the set bits of ``row``, lowest first, as
    an iterable.  A sparse row is read bit by bit through ``_bits``; a
    dense one as the reversed binary digits of ``row``, turned into 0/1
    flags for ``itertools.compress``, which keeps the entries in C."""
    if row.bit_count() * _DENSE_RUN < row.bit_length():
        return [items[i] for i in _bits(row)]
    return compress(items, bin(row)[:1:-1].encode().translate(_BIT_FLAGS))


def _pairs(succ: tuple[int, ...]):
    """(i, j) for every set bit j of every row i, row by row."""
    for i, row in enumerate(succ):
        for j in _bits(row):
            yield i, j


def _transpose(succ) -> tuple[int, ...]:
    """The rows of the converse relation: bit i of row j is set when bit j
    of ``succ[i]`` is."""
    pred = [0] * len(succ)
    for i, row in enumerate(succ):
        bit = 1 << i
        for j in _bits(row):
            pred[j] |= bit
    return tuple(pred)


def _mask(position: Mapping[WorldId, int], worlds) -> int:
    """Bit mask of ``worlds`` at their ``position`` entries."""
    mask = 0
    for w in worlds:
        mask |= 1 << position[w]
    return mask


#: The node classes with one child, ``body``: ~, <>, [] and the sugar that
#: iterates [].
_UNARY = frozenset((MNot, MBox, MDia, MBoxLe, MBoxPow))


def _eval_masks(
    f: ModalFormula, var_masks: Mapping[int, int], pred: tuple[int, ...], memo: dict | None = None
) -> int:
    """Mask of worlds satisfying ``f`` on the frame whose predecessor rows
    are ``pred``.  One loop over an explicit stack stores each node's mask in
    ``memo`` once its children's are there, children first and left to
    right, and reads the rule off the node's class: <> ORs the predecessor
    rows that ``_select`` picks out of its body's mask, and [] complements
    that OR over the body's complement.  Sugar is evaluated in place, never
    expanded: box^n iterates the [] step n times, and box<=n ANDs the body
    with its first n boxes.  Calls that pass the same ``memo`` must pass the
    same masks and rows; they then evaluate each subformula they share once.
    A mask may be 0, so a node is missing when its entry is None."""
    if memo is None:
        memo = {}
    mask = memo.get(f)
    if mask is not None:
        return mask
    full = (1 << len(pred)) - 1
    get = memo.get
    stack = [f]
    push, pop = stack.append, stack.pop
    while stack:
        g = stack[-1]
        if get(g) is not None:  # pushed twice before its first evaluation
            pop()
            continue
        cls = g.__class__
        if cls in _UNARY:
            mask = get(g.body)
            if mask is None:
                push(g.body)
                continue
            if cls is MNot:
                mask = full & ~mask
            elif cls is MDia:
                # <> T marks the predecessors of T's worlds
                mask = reduce(or_, _select(pred, mask), 0)
            elif cls is MBox:
                # [] T is ~<>~T
                mask = full & ~reduce(or_, _select(pred, full & ~mask), 0)
            elif cls is MBoxPow:
                # box^n T is ~dia^n ~T
                reach = full & ~mask
                for _ in range(g.power):
                    reach = reduce(or_, _select(pred, reach), 0)
                mask = full & ~reach
            else:
                # box<=n T is ~(~T | <> ~T | ... | dia^n ~T)
                reach = seen = full & ~mask
                for _ in range(g.bound):
                    reach = reduce(or_, _select(pred, reach), 0)
                    seen |= reach
                mask = full & ~seen
        elif cls is MAnd:
            mask = full
            for h in g.items:
                kid = get(h)
                if kid is None:
                    break
                mask &= kid
            if kid is None:  # the conjuncts first; the known ones are popped at once
                stack += reversed(g.items)
                continue
        elif cls is MImp or cls is MOr:
            left, right = get(g.left), get(g.right)
            if left is None or right is None:
                if right is None:
                    push(g.right)
                if left is None:
                    push(g.left)
                continue
            mask = left | right if cls is MOr else full & ~left | right
        elif cls is MVar:
            mask = var_masks.get(g.index, 0)
        elif cls is MTrue:
            mask = full
        elif cls is MFalse:
            mask = 0
        else:
            raise TypeError(f"not a modal formula: {g!r}")
        memo[g] = mask
        pop()
    return memo[f]


def _model_mask(model: KripkeModel, f: ModalFormula) -> int:
    """Mask of the worlds of ``model`` satisfying ``f``, read from or added
    to the frame's table for the model's valuation.  Tables are keyed by the
    nodes as given, sugar included, since sugar is evaluated in place."""
    frame = model.frame
    var_masks = {}
    if modal_vars(f):  # else no valuation reaches it, and every model shares its table
        var_masks = {var: _mask(frame.position, members) for var, members in model.valuation.items()}
    return _eval_masks(f, var_masks, frame._pred, frame._masks.setdefault(frozenset(var_masks.items()), {}))


def model_check(model: KripkeModel, world: WorldId, f: ModalFormula) -> bool:
    """Standard Kripke satisfaction of ``f`` at ``world``.  Sugar is
    evaluated in place, and the answer is kept in the frame's table under
    ``f`` as given, sugar included."""
    i = model.frame.position.get(world)
    if i is None:
        raise ValueError(f"unknown world: {world!r}")
    return bool(_model_mask(model, f) >> i & 1)


def model_check_all(model: KripkeModel, f: ModalFormula) -> frozenset[WorldId]:
    """All worlds of the model satisfying ``f``."""
    return frozenset(_select(model.frame.order, _model_mask(model, f)))


# ---------------------------------------------------------------------------
# Closures and frame classes
# ---------------------------------------------------------------------------

_CLOSE_MODES = ("transitive", "reflexive_transitive", "reflexive_symmetric")


def close(frame: KripkeFrame, mode: str) -> KripkeFrame:
    """Smallest superset of the relation with the named property."""
    if mode not in _CLOSE_MODES:
        raise ValueError(f"mode must be one of {_CLOSE_MODES}, got {mode!r}")
    if mode == "reflexive_symmetric":
        succ = [row | pred | 1 << i for i, (row, pred) in enumerate(zip(frame.succ, frame._pred))]
    else:
        succ = list(frame.succ)
        if mode == "reflexive_transitive":
            succ = [row | 1 << i for i, row in enumerate(succ)]
        _close_rows(succ)
    # same worlds, hence the same order, positions and ids
    return KripkeFrame.__new__(KripkeFrame)._fill(frame.worlds, frame.order, frame.position, tuple(succ), frame.ids)


def _close_rows(succ: list[int]) -> list[int]:
    """Close the successor rows ``succ`` transitively, in place, and return
    them: each row ORs in the rows of its newly reached worlds until none is
    new, so a row closed earlier brings its whole reach at once."""
    for i in range(len(succ)):
        expanded = 0
        while succ[i] & ~expanded:
            fresh = succ[i] & ~expanded
            expanded |= fresh
            for j in _bits(fresh):
                succ[i] |= succ[j]
    return succ


def _properties(frame: KripkeFrame):
    succ = frame.succ
    n = len(succ)
    reflexive = all(succ[i] >> i & 1 for i in range(n))
    irreflexive = all(not (succ[i] >> i & 1) for i in range(n))
    pairs = list(_pairs(succ))
    symmetric = all(succ[j] >> i & 1 for i, j in pairs)
    antisymmetric = all(i == j or not succ[j] >> i & 1 for i, j in pairs)
    transitive = all(not succ[j] & ~succ[i] for i, j in pairs)
    return reflexive, irreflexive, symmetric, antisymmetric, transitive


def frame_class_check(frame: KripkeFrame, cls: str) -> bool:
    """Finite-frame class membership: GL is transitive+irreflexive, Grz is a
    finite partial order, KTB is reflexive+symmetric."""
    reflexive, irreflexive, symmetric, antisymmetric, transitive = _properties(frame)
    if cls == "GL":
        return transitive and irreflexive
    if cls == "Grz":
        return reflexive and transitive and antisymmetric
    if cls == "KTB":
        return reflexive and symmetric
    raise ValueError(f"frame class must be GL, Grz or KTB, got {cls!r}")


DEFAULT_VALUATION_BUDGET = 20


def frame_validates(frame: KripkeFrame, f: ModalFormula, budget: int = DEFAULT_VALUATION_BUDGET) -> bool:
    """Frame validity: ``f`` holds at every world under every valuation.

    All 2^(|worlds| * v) valuations of the v variables are searched, so a
    variable-free formula needs a single bitmask evaluation, which reads and
    fills the frame's table of variable-free masks as model checking does:
    keyed by the nodes as given, sugar included, which is evaluated in
    place.
    ``budget`` must be a non-negative integer (ValueError otherwise); the
    search refuses (raises ValuationBudgetError) when |worlds| * v exceeds
    ``budget`` bits, so it never silently guesses.
    """
    _require_int("budget", budget, least=0)
    variables = sorted(modal_vars(f))
    n = len(frame.worlds)
    full = (1 << n) - 1
    if not variables:
        # one valuation, which nothing reads: the frame's table answers
        return _eval_masks(f, {}, frame._pred, frame._masks.setdefault(frozenset(), {})) == full
    bits = n * len(variables)
    if bits > budget:
        raise ValuationBudgetError(
            f"{len(variables)} variables over {n} worlds need {bits} search bits, budget is {budget}"
        )
    pred = frame._pred
    for combo in range(1 << bits):
        var_masks = {}
        for vi, var in enumerate(variables):
            var_masks[var] = (combo >> (vi * n)) & full
        if _eval_masks(f, var_masks, pred) != full:
            return False
    return True


def wgrz_axiom() -> ModalFormula:
    """The weak Grzegorczyk axiom box+([](p -> [] p) -> p) -> p, its box+
    written box<=1."""
    p = MVar(1)
    inner = MImp(MBox(MImp(p, MBox(p))), p)
    return MImp(MBoxLe(1, inner), p)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _json_items(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array (or, with ``brackets="{}"``, object) of already encoded
    items laid out as ``json.dumps(..., indent=2)`` lays it out at ``depth``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _json_document(frame: KripkeFrame, model: Optional[KripkeModel] = None) -> str:
    """The frame (with the model's valuation and root, if given) as the text
    of ``json.dumps(payload, indent=2) + "\n"``, written from the fields:
    each world id is encoded once, and the rows give the pairs in sorted
    order because ``order`` is the sorted id order.  The relation is
    written row by row: a row's pairs all open with the same head, its
    world's id, which is joined over the ids ``_select`` picks out of it.
    An id is quoted as it stands: ``world_id_str`` writes only characters
    that JSON never escapes."""
    position = frame.position
    ids = ['"' + wid + '"' for wid in frame.ids]
    relation = []
    for i, row in enumerate(frame.succ):
        if row:
            head = f"[\n      {ids[i]},\n      "
            relation.append(head + ("\n    ],\n    " + head).join(_select(ids, row)) + "\n    ]")
    parts = ['{\n  "worlds": ', _json_items(ids, 1), ',\n  "relation": ', _json_items(relation, 1)]
    if model is not None:
        valuation = [
            f'"p{var}": '
            + _json_items([ids[i] for i in sorted(position[w] for w in model.valuation[var])], 2)
            for var in sorted(model.valuation)
        ]
        parts += [',\n  "valuation": ', _json_items(valuation, 1, "{}"), ',\n  "root": ', ids[position[model.root]]]
    parts.append("\n}\n")
    return "".join(parts)


def model_to_json(model: KripkeModel) -> str:
    return _json_document(model.frame, model)


def _world_ids(value, what: str) -> list[WorldId]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of world ids, got {type(value).__name__}")
    return [world_id_from_str(s) for s in value]


def _refuse_repeats(entries: list, key: str) -> None:
    """Raise ValueError naming the first of ``entries`` (world id strings or
    [world, world] pairs of them) that the list under ``key`` holds twice."""
    seen = set()
    for entry in entries:
        hashable = entry if isinstance(entry, str) else tuple(entry)
        if hashable in seen:
            raise ValueError(f'"{key}" lists {entry!r} twice')
        seen.add(hashable)


def _read_json(text: str, kind: str) -> tuple[dict, KripkeFrame]:
    """The document and its frame, for frame and model files alike; any
    malformed input, a world or a pair listed twice included, raises
    ValueError."""
    import json  # here, where it parses: importing the package skips it

    doc = json.loads(text)
    if not isinstance(doc, dict) or "worlds" not in doc or "relation" not in doc:
        raise ValueError(f'a {kind} is a JSON object with "worlds" and "relation"')
    worlds = frozenset(_world_ids(doc["worlds"], "worlds"))
    _refuse_repeats(doc["worlds"], "worlds")
    pairs = doc["relation"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError("relation must be a list of [world, world] pairs")
    relation = [(world_id_from_str(u), world_id_from_str(v)) for u, v in pairs]
    _refuse_repeats(pairs, "relation")
    return doc, KripkeFrame(worlds, relation)


def model_from_json(text: str) -> KripkeModel:
    doc, frame = _read_json(text, "model")
    entries = doc.get("valuation", {})
    if not isinstance(entries, dict):
        raise ValueError("valuation must be a JSON object")
    valuation = {}
    for key, members in entries.items():
        if not re.fullmatch(r"p[1-9][0-9]*", key):
            raise ValueError(f"valuation keys look like p<index> (from p1, no leading zeros), got {key!r}")
        valuation[int(key[1:])] = frozenset(_world_ids(members, key))
        _refuse_repeats(members, key)
    if "root" not in doc:
        raise ValueError('a model needs a "root" world')
    return KripkeModel(frame, valuation, world_id_from_str(doc["root"]))


def frame_to_json(frame: KripkeFrame) -> str:
    return _json_document(frame)


def frame_from_json(text: str) -> KripkeFrame:
    return _read_json(text, "frame")[1]


def frame_to_dot(frame: KripkeFrame) -> str:
    ids = frame.ids
    lines = ["digraph frame {"]
    lines += [f'  "{wid}";' for wid in ids]
    lines += [f'  "{ids[i]}" -> "{ids[j]}";' for i, j in _pairs(frame.succ)]
    lines.append("}")
    return "\n".join(lines) + "\n"
