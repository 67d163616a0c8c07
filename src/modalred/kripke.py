"""Finite Kripke frames and models.

Worlds carry structured identities: ``BaseWorld`` for quantifier-tree worlds
(level, classical assignment, creation serial) and ``GadgetWorld`` for the
worlds of the ladder gadgets, optionally tagged with the base world hosting
the copy.  The string forms of these identities are the stable ids used in
JSON dumps, e.g. ``base:L2:{1,3}:#7`` and ``gadget:m3:a0@base:L1:{}:#2``.

A frame is represented by its index: its worlds in canonical order (sorted
by id string), their positions, and one successor bit row per world.  Model
checking, closures, frame classes, validity and the JSON and DOT views all
read the rows.  A frame built from pairs (``KripkeFrame(worlds, relation)``)
derives its index on first use, so building one does no sorting; a frame
built from rows (the result of ``close``) derives its set of pairs only when
``relation`` is read.  Equality and hashing mean same worlds, same pairs.

Model checking evaluates each distinct subformula once over all worlds as a
bitmask, which doubles as the (world, subformula) memoization and keeps the
whole check at O(|formula| * |worlds| * |relation|).
"""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple, Optional, Union

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


_BASE_RE = re.compile(r"^base:L(\d+):\{([\d,]*)\}:#(\d+)$")
_GADGET_RE = re.compile(r"^gadget:m(\d+):(b|c|a\d+)(?:@(.+))?$")


def world_id_from_str(text: str) -> WorldId:
    if not isinstance(text, str):
        raise ValueError(f"world id must be a string, got {text!r}")
    m = _BASE_RE.match(text)
    if m:
        inner = m.group(2)
        assignment = frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
        return BaseWorld(int(m.group(1)), assignment, int(m.group(3)))
    m = _GADGET_RE.match(text)
    if m:
        host = world_id_from_str(m.group(3)) if m.group(3) else None
        if host is not None and not isinstance(host, BaseWorld):
            raise ValueError(f"gadget host must be a base world: {text!r}")
        return GadgetWorld(int(m.group(1)), m.group(2), host)
    raise ValueError(f"unrecognized world id: {text!r}")


class _FrameIndex(NamedTuple):
    order: tuple[WorldId, ...]  # canonical order: sorted by world_id_str
    position: dict[WorldId, int]
    succ: tuple[int, ...]  # bit j of succ[i]: order[i] R order[j]


class KripkeFrame:
    """A finite frame: worlds and an accessibility relation, read-only.

    ``KripkeFrame(worlds, relation)`` checks that every pair stays inside
    ``worlds``; its bit rows are built on first use.  ``close`` builds frames
    from rows, whose ``relation`` is built the first time it is read.
    """

    def __init__(self, worlds: frozenset[WorldId], relation: frozenset[tuple[WorldId, WorldId]]):
        for u, v in relation:
            if u not in worlds or v not in worlds:
                raise ValueError(f"relation pair ({u!r}, {v!r}) leaves the world set")
        vars(self).update(worlds=worlds, relation=relation)

    @classmethod
    def _from_index(cls, worlds: frozenset[WorldId], index: _FrameIndex) -> KripkeFrame:
        frame = cls.__new__(cls)
        vars(frame).update(worlds=worlds, _index=index)
        return frame

    @cached_property
    def relation(self) -> frozenset[tuple[WorldId, WorldId]]:
        order, _, succ = self._index
        return frozenset((order[i], order[j]) for i, j in _pairs(succ))

    @cached_property
    def _index(self) -> _FrameIndex:
        order = tuple(sorted(self.worlds, key=world_id_str))
        position = {w: i for i, w in enumerate(order)}
        succ = [0] * len(order)
        for u, v in self.relation:
            succ[position[u]] |= 1 << position[v]
        return _FrameIndex(order, position, tuple(succ))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.worlds == other.worlds and self.relation == other.relation

    def __hash__(self):
        return hash((self.worlds, self.relation))

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
    """Bit mask of ``worlds`` at their index positions."""
    mask = 0
    for w in worlds:
        mask |= 1 << position[w]
    return mask


def _eval_masks(
    f: ModalFormula, var_masks: Mapping[int, int], succ: tuple[int, ...], n: int, memo: dict | None = None
) -> int:
    """Mask of worlds satisfying ``f`` (already sugar-free).  Calls that pass
    the same ``memo`` must pass the same masks and rows; they then evaluate
    each subformula they share once."""
    full = (1 << n) - 1

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
            # [] is ~<>~: both mark the worlds with a successor in ``target``
            dia = isinstance(g, MDia)
            target = masks[0] if dia else full & ~masks[0]
            result = 0
            for i in range(n):
                if succ[i] & target:
                    result |= 1 << i
            return result if dia else full & ~result
        raise TypeError(f"unexpanded or non-modal node: {g!r}")

    return _fold(f, step, {} if memo is None else memo)


def _model_mask(model: KripkeModel, f: ModalFormula) -> int:
    index = model.frame._index
    var_masks = {var: _mask(index.position, members) for var, members in model.valuation.items()}
    return _eval_masks(expand_sugar(f), var_masks, index.succ, len(index.order))


def model_check(model: KripkeModel, world: WorldId, f: ModalFormula) -> bool:
    """Standard Kripke satisfaction of ``f`` at ``world`` (sugar expanded)."""
    i = model.frame._index.position.get(world)
    if i is None:
        raise ValueError(f"unknown world: {world!r}")
    return bool(_model_mask(model, f) >> i & 1)


def model_check_all(model: KripkeModel, f: ModalFormula) -> frozenset[WorldId]:
    """All worlds of the model satisfying ``f``."""
    order = model.frame._index.order
    return frozenset(order[i] for i in _bits(_model_mask(model, f)))


# ---------------------------------------------------------------------------
# Closures and frame classes
# ---------------------------------------------------------------------------

_CLOSE_MODES = ("transitive", "reflexive_transitive", "reflexive_symmetric")


def close(frame: KripkeFrame, mode: str) -> KripkeFrame:
    """Smallest superset of the relation with the named property."""
    if mode not in _CLOSE_MODES:
        raise ValueError(f"mode must be one of {_CLOSE_MODES}, got {mode!r}")
    order, position, rows = frame._index
    succ = list(rows)
    n = len(order)
    if mode == "reflexive_symmetric":
        for i in range(n):
            succ[i] |= 1 << i
        for i in range(n):
            for j in _bits(succ[i]):
                succ[j] |= 1 << i
    else:
        if mode == "reflexive_transitive":
            for i in range(n):
                succ[i] |= 1 << i
        # per-row reachability: OR in the rows of newly reached worlds until
        # none is new; a row closed earlier brings its whole reach at once
        for i in range(n):
            expanded = 0
            while succ[i] & ~expanded:
                fresh = succ[i] & ~expanded
                expanded |= fresh
                for j in _bits(fresh):
                    succ[i] |= succ[j]
    # same worlds, hence the same order and positions
    return KripkeFrame._from_index(frame.worlds, _FrameIndex(order, position, tuple(succ)))


def _properties(frame: KripkeFrame):
    succ = frame._index.succ
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

    Variable-free formulas need a single bitmask evaluation.  Otherwise all
    2^(|worlds| * v) valuations are searched; the search refuses (raises
    ValuationBudgetError) when |worlds| * v exceeds ``budget`` bits, so it
    never silently guesses.
    """
    g = expand_sugar(f)
    variables = sorted(modal_vars(g))
    succ = frame._index.succ
    n = len(succ)
    full = (1 << n) - 1
    if not variables:
        return _eval_masks(g, {}, succ, n) == full
    bits = n * len(variables)
    if bits > budget:
        raise ValuationBudgetError(
            f"{len(variables)} variables over {n} worlds need {bits} search bits, budget is {budget}"
        )
    for combo in range(1 << bits):
        var_masks = {}
        for vi, var in enumerate(variables):
            var_masks[var] = (combo >> (vi * n)) & full
        if _eval_masks(g, var_masks, succ, n) != full:
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
    of ``json.dumps(payload, indent=2) + "\n"``, written from the index: each
    world id is encoded once, and the rows give the pairs in sorted order
    because the index order is the sorted id order."""
    order, position, succ = frame._index
    ids = [encode_basestring_ascii(world_id_str(w)) for w in order]
    relation = [f"[\n      {ids[i]},\n      {ids[j]}\n    ]" for i, j in _pairs(succ)]
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
    relation = frozenset((world_id_from_str(u), world_id_from_str(v)) for u, v in pairs)
    return doc, KripkeFrame(worlds, relation)


def model_from_json(text: str) -> KripkeModel:
    doc, frame = _read_json(text, "model")
    entries = doc.get("valuation", {})
    if not isinstance(entries, dict):
        raise ValueError("valuation must be a JSON object")
    valuation = {}
    for key, members in entries.items():
        if not re.fullmatch(r"p\d+", key):
            raise ValueError(f"valuation keys look like p<index>, got {key!r}")
        valuation[int(key[1:])] = frozenset(_world_ids(members, key))
    if "root" not in doc:
        raise ValueError('a model needs a "root" world')
    return KripkeModel(frame, valuation, world_id_from_str(doc["root"]))


def frame_to_json(frame: KripkeFrame) -> str:
    return _json_document(frame)


def frame_from_json(text: str) -> KripkeFrame:
    return _read_json(text, "frame")[1]


def frame_to_dot(frame: KripkeFrame) -> str:
    order, _, succ = frame._index
    ids = [world_id_str(w) for w in order]
    lines = ["digraph frame {"]
    lines += [f'  "{wid}";' for wid in ids]
    lines += [f'  "{ids[i]}" -> "{ids[j]}";' for i, j in _pairs(succ)]
    lines.append("}")
    return "\n".join(lines) + "\n"
