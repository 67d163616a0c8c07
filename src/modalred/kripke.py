"""Finite Kripke frames and models.

Worlds carry structured identities: ``BaseWorld`` for quantifier-tree worlds
(level, classical assignment, creation serial) and ``GadgetWorld`` for the
worlds of the ladder gadgets, optionally tagged with the base world hosting
the copy.  The string forms of these identities are the stable ids used in
JSON dumps, e.g. ``base:L2:{1,3}:#7`` and ``gadget:m3:a0@base:L1:{}:#2``.

A frame is its rows and nothing else.  Beside ``worlds`` it holds four
read-only fields: ``order``, the worlds sorted by id string; ``position``,
each world's place in that order; ``ids``, the id strings in that order;
and ``succ``, one successor bit row per world.  ``KripkeFrame(worlds,
relation)`` fills them in one pass over the pairs and refuses two worlds
that share an id string; ``close`` and ``extend_model`` hand rows they
already have to a new frame.  Model checking, closures, frame classes,
validity and the JSON and DOT views all read the fields; ``relation``, the
set of pairs, and the predecessor rows are views derived from the rows the
first time they are read, so a frame that is never evaluated never builds
them.  Equal frames have equal worlds and equal rows, and equality and
hashing compare just those two.

Model checking evaluates each distinct subformula once over all worlds as a
bitmask, which doubles as the (world, subformula) memoization: <> T is the
OR of the predecessor rows of T's worlds and [] is its dual, so one modal
node costs at most |worlds| ORs of |worlds|-bit rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Union

from .syntax import (
    MAnd,
    MBox,
    MBoxPlus,
    MDia,
    MFalse,
    MImp,
    MNot,
    MOr,
    MTrue,
    MVar,
    ModalFormula,
    _fold,
    _require_int,
    expand_sugar,
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


@dataclass(frozen=True)
class BaseWorld:
    """Quantifier-tree world: a classical assignment at a quantifier level."""

    level: int
    assignment: frozenset[int]
    serial: int


@dataclass(frozen=True)
class GadgetWorld:
    """World of a ladder gadget F_m: part is 'a<i>', 'b' or 'c'; ``host`` tags
    which base world the copy hangs below (None for standalone frames)."""

    gadget: int
    part: str
    host: Optional[BaseWorld] = None


WorldId = Union[BaseWorld, GadgetWorld]


def world_id_str(w: WorldId) -> str:
    if isinstance(w, BaseWorld):
        inner = ",".join(str(i) for i in sorted(w.assignment))
        return f"base:L{w.level}:{{{inner}}}:#{w.serial}"
    if isinstance(w, GadgetWorld):
        tag = f"gadget:m{w.gadget}:{w.part}"
        if w.host is not None:
            tag += f"@{world_id_str(w.host)}"
        return tag
    raise TypeError(f"not a world id: {w!r}")


_BASE_RE = re.compile(r"^base:L(\d+):\{((?:\d+(?:,\d+)*)?)\}:#(\d+)$")
_GADGET_RE = re.compile(r"^gadget:m(\d+):(b|c|a(\d+))(?:@(.+))?$")


def _base_world(m: re.Match) -> BaseWorld:
    inner = m.group(2)
    assignment = frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
    return BaseWorld(int(m.group(1)), assignment, int(m.group(3)))


def world_id_from_str(text: str) -> WorldId:
    """The world whose id is ``text``.  Only the canonical form that
    ``world_id_str`` writes is accepted, so two distinct ids never name the
    same world."""
    if not isinstance(text, str):
        raise ValueError(f"world id must be a string, got {text!r}")
    m = _BASE_RE.match(text)
    if m:
        w = _base_world(m)
    else:
        m = _GADGET_RE.match(text)
        if m is None:
            raise ValueError(f"unrecognized world id: {text!r}")
        # F_m has m >= 1 and the parts a0..am, b and c; the rung is kept as
        # written, so only its canonical spelling is accepted
        gadget, rung = int(m.group(1)), m.group(3)
        if gadget < 1 or rung is not None and (rung != str(int(rung)) or int(rung) > gadget):
            raise ValueError(f"not a world of a gadget F_m (m >= 1; parts a0..am, b, c): {text!r}")
        # a gadget hangs below a base world, never below another gadget
        host = m.group(4) and _BASE_RE.match(m.group(4))
        if m.group(4) and host is None:
            raise ValueError(f"gadget host must be a base world: {text!r}")
        w = GadgetWorld(gadget, m.group(2), host and _base_world(host))
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
    rows hold; it and the predecessor rows that model checking reads are
    derived the first time they are read.
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

    def _fill(self, worlds, order, position, succ, ids) -> KripkeFrame:
        """Set the fields, unchecked, and return the frame: every frame is
        built here, from rows its builder already has."""
        vars(self).update(worlds=worlds, order=order, position=position, succ=succ, ids=ids)
        return self

    @cached_property
    def relation(self) -> frozenset[tuple[WorldId, WorldId]]:
        order = self.order
        return frozenset((order[i], order[j]) for i, j in _pairs(self.succ))

    @cached_property
    def _pred(self) -> tuple[int, ...]:
        """Predecessor rows, the transpose of ``succ``: bit i of
        ``_pred[j]`` is set when order[i] R order[j]."""
        pred = [0] * len(self.succ)
        for i, row in enumerate(self.succ):
            bit = 1 << i
            for j in _bits(row):
                pred[j] |= bit
        return tuple(pred)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.worlds == other.worlds and self.succ == other.succ

    def __hash__(self):
        return hash((self.worlds, self.succ))

    def __repr__(self):
        return f"KripkeFrame(worlds={self.worlds!r}, relation={self.relation!r})"


@dataclass(frozen=True, eq=True)
class KripkeModel:
    frame: KripkeFrame
    valuation: Mapping[int, frozenset[WorldId]]
    root: WorldId

    def __post_init__(self):
        if self.root not in self.frame.worlds:
            raise ValueError("root must be one of the frame's worlds")
        for index, worlds in self.valuation.items():
            if not worlds <= self.frame.worlds:
                raise ValueError(f"valuation of p{index} leaves the world set")

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


def _bits(row: int):
    """Positions of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _pairs(succ: tuple[int, ...]):
    """(i, j) for every set bit j of every row i, row by row."""
    for i, row in enumerate(succ):
        for j in _bits(row):
            yield i, j


def _mask(position: Mapping[WorldId, int], worlds) -> int:
    """Bit mask of ``worlds`` at their ``position`` entries."""
    mask = 0
    for w in worlds:
        mask |= 1 << position[w]
    return mask


def _eval_masks(
    f: ModalFormula, var_masks: Mapping[int, int], pred: tuple[int, ...], memo: dict | None = None
) -> int:
    """Mask of worlds satisfying ``f`` (already sugar-free) on the frame whose
    predecessor rows are ``pred``.  Calls that pass the same ``memo`` must
    pass the same masks and rows; they then evaluate each subformula they
    share once."""
    full = (1 << len(pred)) - 1

    def step(g, masks) -> int:
        if isinstance(g, MVar):
            return var_masks.get(g.index, 0)
        if isinstance(g, MFalse):
            return 0
        if isinstance(g, MTrue):
            return full
        if isinstance(g, MNot):
            return full & ~masks[0]
        if isinstance(g, MAnd):
            result = full
            for mask in masks:
                result &= mask
            return result
        if isinstance(g, MOr):
            return masks[0] | masks[1]
        if isinstance(g, MImp):
            return (full & ~masks[0]) | masks[1]
        if isinstance(g, (MBox, MDia)):
            # [] is ~<>~: both mark the predecessors of the worlds in ``target``
            dia = isinstance(g, MDia)
            target = masks[0] if dia else full & ~masks[0]
            result = 0
            for j in _bits(target):
                result |= pred[j]
            return result if dia else full & ~result
        raise TypeError(f"unexpanded or non-modal node: {g!r}")

    return _fold(f, step, {} if memo is None else memo)


def _model_mask(model: KripkeModel, f: ModalFormula) -> int:
    position = model.frame.position
    var_masks = {var: _mask(position, members) for var, members in model.valuation.items()}
    return _eval_masks(expand_sugar(f), var_masks, model.frame._pred)


def model_check(model: KripkeModel, world: WorldId, f: ModalFormula) -> bool:
    """Standard Kripke satisfaction of ``f`` at ``world`` (sugar expanded)."""
    i = model.frame.position.get(world)
    if i is None:
        raise ValueError(f"unknown world: {world!r}")
    return bool(_model_mask(model, f) >> i & 1)


def model_check_all(model: KripkeModel, f: ModalFormula) -> frozenset[WorldId]:
    """All worlds of the model satisfying ``f``."""
    order = model.frame.order
    return frozenset(order[i] for i in _bits(_model_mask(model, f)))


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
    variable-free formula needs a single bitmask evaluation.  ``budget`` must
    be a non-negative integer (ValueError otherwise); the search refuses
    (raises ValuationBudgetError) when |worlds| * v exceeds ``budget`` bits,
    so it never silently guesses.
    """
    _require_int("budget", budget, least=0)
    g = expand_sugar(f)
    variables = sorted(modal_vars(g))
    n = len(frame.worlds)
    full = (1 << n) - 1
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
        if _eval_masks(g, var_masks, pred) != full:
            return False
    return True


def wgrz_axiom() -> ModalFormula:
    """The weak Grzegorczyk axiom box+([](p -> [] p) -> p) -> p."""
    p = MVar(1)
    inner = MImp(MBox(MImp(p, MBox(p))), p)
    return MImp(MBoxPlus(inner), p)


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
    order because ``order`` is the sorted id order."""
    position = frame.position
    ids = [encode_basestring_ascii(wid) for wid in frame.ids]
    relation = [f"[\n      {ids[i]},\n      {ids[j]}\n    ]" for i, j in _pairs(frame.succ)]
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


def _read_json(text: str, kind: str) -> tuple[dict, KripkeFrame]:
    """The document and its frame, for frame and model files alike; any
    malformed input raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "worlds" not in doc or "relation" not in doc:
        raise ValueError(f'a {kind} is a JSON object with "worlds" and "relation"')
    worlds = frozenset(_world_ids(doc["worlds"], "worlds"))
    pairs = doc["relation"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError("relation must be a list of [world, world] pairs")
    relation = [(world_id_from_str(u), world_id_from_str(v)) for u, v in pairs]
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
