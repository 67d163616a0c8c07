"""Frames, models, closures, frame classes, validity search, serialization."""

import json
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_model, sugared_modal_formulas
from modalred.kripke import (
    BaseWorld,
    GadgetWorld,
    KripkeFrame,
    KripkeModel,
    ValuationBudgetError,
    close,
    frame_class_check,
    frame_from_json,
    frame_to_dot,
    frame_to_json,
    frame_validates,
    model_check,
    model_check_all,
    model_from_json,
    model_to_json,
    wgrz_axiom,
    world_id_from_str,
    world_id_str,
)
from modalred.syntax import (
    MBox,
    MBoxPow,
    MDia,
    MFalse,
    MTrue,
    MVar,
    expand_sugar,
    parse_modal,
)


def _w(i):
    return BaseWorld(0, frozenset(), i)


def chain_frame(n):
    worlds = [_w(i) for i in range(n)]
    rel = frozenset((worlds[i], worlds[i + 1]) for i in range(n - 1))
    return KripkeFrame(frozenset(worlds), rel), worlds


class TestModelCheck:
    def test_blind_world_satisfies_box_false(self):
        frame, worlds = chain_frame(1)
        model = KripkeModel(frame, {}, worlds[0])
        assert model_check(model, worlds[0], MBox(MFalse()))

    def test_reflexive_singleton(self):
        w = _w(0)
        frame = KripkeFrame(frozenset([w]), frozenset([(w, w)]))
        model = KripkeModel(frame, {}, w)
        assert model_check(model, w, MDia(MTrue()))
        assert not model_check(model, w, MBox(MFalse()))

    def test_unknown_world_rejected(self):
        frame, worlds = chain_frame(2)
        model = KripkeModel(frame, {}, worlds[0])
        with pytest.raises(ValueError):
            model_check(model, _w(99), MTrue())

    def test_model_check_all(self):
        frame, worlds = chain_frame(3)
        model = KripkeModel(frame, {1: frozenset([worlds[1]])}, worlds[0])
        assert model_check_all(model, MVar(1)) == frozenset([worlds[1]])
        assert model_check_all(model, MDia(MVar(1))) == frozenset([worlds[0]])


@given(sugared_modal_formulas(max_leaves=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_model_check_respects_sugar(f, seed):
    model = make_random_model(random.Random(seed), world_count=4, var_count=3)
    expanded = expand_sugar(f)
    for w in model.frame.worlds:
        assert model_check(model, w, f) == model_check(model, w, expanded)


def _naive_check(model, w, f):
    # straightforward recursive reference for differential testing
    from modalred.syntax import MAnd, MBox, MDia, MFalse, MImp, MNot, MOr, MTrue, MVar

    succ = [v for (u, v) in model.frame.relation if u == w]
    if isinstance(f, MVar):
        return w in model.valuation.get(f.index, frozenset())
    if isinstance(f, MFalse):
        return False
    if isinstance(f, MTrue):
        return True
    if isinstance(f, MNot):
        return not _naive_check(model, w, f.body)
    if isinstance(f, MAnd):
        return all(_naive_check(model, w, g) for g in f.items)
    if isinstance(f, MOr):
        return _naive_check(model, w, f.left) or _naive_check(model, w, f.right)
    if isinstance(f, MImp):
        return (not _naive_check(model, w, f.left)) or _naive_check(model, w, f.right)
    if isinstance(f, MBox):
        return all(_naive_check(model, v, f.body) for v in succ)
    if isinstance(f, MDia):
        return any(_naive_check(model, v, f.body) for v in succ)
    raise TypeError(f)


@given(sugared_modal_formulas(max_leaves=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_model_check_matches_naive_reference(f, seed):
    model = make_random_model(random.Random(seed), world_count=4, var_count=3)
    expanded = expand_sugar(f)
    for w in model.frame.worlds:
        assert model_check(model, w, f) == _naive_check(model, w, expanded)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_constant_formulas_are_valuation_independent(seed):
    rng = random.Random(seed)
    model_a = make_random_model(rng, world_count=4, var_count=2)
    # same frame, different valuation
    model_b = KripkeModel(
        model_a.frame,
        {k: frozenset(w for w in model_a.frame.worlds if rng.random() < 0.5) for k in (1, 2)},
        model_a.root,
    )
    f = parse_modal("[] (<> true -> <> [] false)")
    assert model_check(model_a, model_a.root, f) == model_check(model_b, model_b.root, f)


class TestClose:
    def test_transitive_chain(self):
        frame, worlds = chain_frame(3)
        closed = close(frame, "transitive")
        assert (worlds[0], worlds[2]) in closed.relation
        assert len(closed.relation) == 3

    def test_reflexive_transitive_of_empty(self):
        worlds = [_w(0), _w(1)]
        frame = KripkeFrame(frozenset(worlds), frozenset())
        closed = close(frame, "reflexive_transitive")
        assert closed.relation == frozenset((w, w) for w in worlds)

    def test_reflexive_symmetric_edge(self):
        a, b = _w(0), _w(1)
        frame = KripkeFrame(frozenset([a, b]), frozenset([(a, b)]))
        closed = close(frame, "reflexive_symmetric")
        assert closed.relation == frozenset([(a, a), (b, b), (a, b), (b, a)])

    def test_reflexive_symmetric_is_not_transitive(self):
        frame, worlds = chain_frame(3)
        closed = close(frame, "reflexive_symmetric")
        assert (worlds[0], worlds[2]) not in closed.relation

    def test_bad_mode(self):
        frame, _ = chain_frame(2)
        with pytest.raises(ValueError):
            close(frame, "euclidean")


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(
    ["transitive", "reflexive_transitive", "reflexive_symmetric"]
))
@settings(max_examples=150, deadline=None)
def test_close_idempotent_and_monotone(seed, mode):
    model = make_random_model(random.Random(seed), world_count=5)
    frame = model.frame
    closed = close(frame, mode)
    assert frame.relation <= closed.relation
    assert close(closed, mode).relation == closed.relation


def _naive_closure(frame, mode):
    """Fixpoint over relation pairs, sharing no code with ``close``."""
    pairs = set(frame.relation)
    if mode != "transitive":
        pairs |= {(w, w) for w in frame.worlds}
    while True:
        if mode == "reflexive_symmetric":
            implied = {(v, u) for u, v in pairs}
        else:
            implied = {(u, x) for u, v in pairs for y, x in pairs if v == y}
        if implied <= pairs:
            return frozenset(pairs)
        pairs |= implied


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(
    ["transitive", "reflexive_transitive", "reflexive_symmetric"]
))
@settings(max_examples=150, deadline=None)
def test_close_is_the_smallest_closure(seed, mode):
    # the 0.45 edge density of random models makes cycles and self-loops common
    rng = random.Random(seed)
    frame = make_random_model(rng, world_count=rng.randint(1, 8)).frame
    assert close(frame, mode).relation == _naive_closure(frame, mode)


@pytest.mark.parametrize("mode", ["transitive", "reflexive_transitive", "reflexive_symmetric"])
@pytest.mark.parametrize("seed", range(25))
def test_closed_frames_behave_like_pair_frames(seed, mode):
    # close builds its frame from bit rows; its pairs exist only once read
    rng = random.Random(seed)
    frame = make_random_model(rng, world_count=rng.randint(1, 8)).frame
    naive = _naive_closure(frame, mode)
    reference = KripkeFrame(frame.worlds, naive)
    closed = close(frame, mode)
    assert hash(closed) == hash(reference)  # before anything reads closed.relation
    assert closed == reference and reference == closed
    assert len({closed, reference}) == 1
    assert closed.relation == naive
    assert closed.worlds == frame.worlds
    for u in frame.worlds:
        for v in frame.worlds:
            assert ((u, v) in closed.relation) == ((u, v) in naive)
    root = min(frame.worlds, key=world_id_str)
    assert KripkeModel(closed, {}, root) == KripkeModel(reference, {}, root)
    if naive:
        assert closed != KripkeFrame(frame.worlds, naive - {min(naive, key=repr)})


def test_frames_are_read_only():
    frame, worlds = chain_frame(3)
    for f in (frame, close(frame, "transitive")):
        for name in ("worlds", "relation", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, frozenset())
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)
    closed = close(frame, "transitive")
    with pytest.raises(FrozenInstanceError):
        closed.relation = frozenset()  # before the pairs are derived
    assert (worlds[0], worlds[2]) in closed.relation


def test_model_check_deep_formula():
    # 5000 nested boxes, far past Python's default recursion limit of 1000
    w = _w(0)
    frame = KripkeFrame(frozenset([w]), frozenset([(w, w)]))
    f = MBoxPow(5000, MVar(1))
    assert model_check(KripkeModel(frame, {1: frozenset([w])}, w), w, f)
    assert not model_check(KripkeModel(frame, {}, w), w, f)


def random_tree_frame(rng, size):
    worlds = [_w(i) for i in range(size)]
    rel = set()
    for i in range(1, size):
        rel.add((worlds[rng.randrange(i)], worlds[i]))
    return KripkeFrame(frozenset(worlds), frozenset(rel))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=7))
@settings(max_examples=150, deadline=None)
def test_tree_closures_land_in_their_frame_classes(seed, size):
    frame = random_tree_frame(random.Random(seed), size)
    assert frame_class_check(close(frame, "transitive"), "GL")
    assert frame_class_check(close(frame, "reflexive_transitive"), "Grz")
    assert frame_class_check(close(frame, "reflexive_symmetric"), "KTB")


class TestFrameClassCheck:
    def test_strict_chain_is_gl(self):
        frame, _ = chain_frame(3)
        assert frame_class_check(close(frame, "transitive"), "GL")

    def test_reflexive_point_is_not_gl(self):
        w = _w(0)
        frame = KripkeFrame(frozenset([w]), frozenset([(w, w)]))
        assert not frame_class_check(frame, "GL")
        assert frame_class_check(frame, "Grz")
        assert frame_class_check(frame, "KTB")

    def test_unknown_class(self):
        frame, _ = chain_frame(2)
        with pytest.raises(ValueError):
            frame_class_check(frame, "S5")


class TestFrameValidates:
    def test_verum_everywhere(self):
        frame, _ = chain_frame(3)
        assert frame_validates(frame, MTrue())

    def test_variable_free_uses_single_pass(self):
        frame, _ = chain_frame(2)
        # last world of the chain is blind, so <>true fails there
        assert not frame_validates(frame, MDia(MTrue()))

    def test_budget_refusal(self):
        frame, _ = chain_frame(5)
        with pytest.raises(ValuationBudgetError):
            frame_validates(frame, MVar(1), budget=4)

    def test_excluded_middle_is_valid(self):
        frame, _ = chain_frame(3)
        assert frame_validates(frame, parse_modal("p1 | ~p1"))

    def test_box_p_implies_p_needs_reflexivity(self):
        frame, _ = chain_frame(2)
        f = parse_modal("[] p1 -> p1")
        assert not frame_validates(frame, f)
        assert frame_validates(close(frame, "reflexive_transitive"), f)

    def test_wgrz_axiom_shape(self):
        assert expand_sugar(wgrz_axiom()) == parse_modal(
            "box+ ([] (p1 -> [] p1) -> p1) -> p1"
        )


class TestWorldIds:
    def test_base_id_format(self):
        w = BaseWorld(2, frozenset({1, 3}), 7)
        assert world_id_str(w) == "base:L2:{1,3}:#7"
        assert world_id_from_str("base:L2:{1,3}:#7") == w

    def test_hosted_gadget_id_format(self):
        host = BaseWorld(1, frozenset(), 2)
        g = GadgetWorld(3, "a0", host)
        assert world_id_str(g) == "gadget:m3:a0@base:L1:{}:#2"
        assert world_id_from_str("gadget:m3:a0@base:L1:{}:#2") == g

    def test_standalone_gadget(self):
        g = GadgetWorld(4, "c", None)
        assert world_id_str(g) == "gadget:m4:c"
        assert world_id_from_str("gadget:m4:c") == g

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            world_id_from_str("planet:earth")


class TestSerialization:
    def test_model_round_trip(self):
        model = make_random_model(random.Random(5), world_count=4, var_count=2)
        text = model_to_json(model)
        back = model_from_json(text)
        assert back.frame == model.frame
        assert back.root == model.root
        assert dict(back.valuation) == dict(model.valuation)
        assert model_to_json(back) == text

    def test_frame_round_trip(self):
        frame, _ = chain_frame(3)
        assert frame_from_json(frame_to_json(frame)) == frame

    @pytest.mark.parametrize(
        "document",
        [
            '{"worlds": ["gadget:m1:b"], "relation": []}',
            '{"worlds": ["gadget:m1:b"], "relation": [], "valuation": [], "root": "gadget:m1:b"}',
            '{"worlds": ["gadget:m1:b"], "relation": [], "valuation": {"p1": 3}, "root": "gadget:m1:b"}',
        ],
    )
    def test_malformed_model_rejected(self, document):
        with pytest.raises(ValueError):
            model_from_json(document)

    def test_relation_outside_worlds_rejected(self):
        a, b = _w(0), _w(1)
        with pytest.raises(ValueError):
            KripkeFrame(frozenset([a]), frozenset([(a, b)]))
        for pair in ((b, a), (b, b)):
            with pytest.raises(ValueError, match="leaves the world set"):
                KripkeFrame(frozenset([a]), frozenset([pair]))

    def test_dot_export(self):
        frame, worlds = chain_frame(2)
        dot = frame_to_dot(frame)
        assert dot.startswith("digraph frame {")
        assert '"base:L0:{}:#0" -> "base:L0:{}:#1";' in dot


def _random_world(rng):
    host = BaseWorld(rng.randint(0, 3), frozenset(rng.sample(range(1, 6), rng.randint(0, 3))), rng.randint(0, 12))
    roll = rng.random()
    if roll < 0.4:
        return host
    part = rng.choice(["b", "c", f"a{rng.randint(0, 12)}"])
    return GadgetWorld(rng.randint(1, 12), part, host if roll < 0.75 else None)


def _random_json_model(rng):
    worlds = set()
    for _ in range(rng.randint(1, 12)):
        worlds.add(_random_world(rng))
    worlds = sorted(worlds, key=world_id_str)  # set order varies with the hash seed
    density = rng.choice([0.0, 0.2, 0.5])
    relation = frozenset((u, v) for u in worlds for v in worlds if rng.random() < density)
    valuation = {
        k: frozenset(w for w in worlds if rng.random() < 0.4)
        for k in rng.sample(range(1, 15), rng.randint(0, 4))
    }
    return KripkeModel(KripkeFrame(frozenset(worlds), relation), valuation, rng.choice(worlds))


def _dumps_reference(frame, model=None):
    """What the writer must produce: json's own encoder on the payload."""
    payload = {
        "worlds": sorted(world_id_str(w) for w in frame.worlds),
        "relation": sorted([world_id_str(u), world_id_str(v)] for u, v in frame.relation),
    }
    if model is not None:
        payload["valuation"] = {
            f"p{k}": sorted(world_id_str(w) for w in model.valuation[k]) for k in sorted(model.valuation)
        }
        payload["root"] = world_id_str(model.root)
    return json.dumps(payload, indent=2) + "\n"


def _json_edge_cases():
    a, b = _w(0), _w(1)
    host = BaseWorld(2, frozenset({1, 3}), 7)
    g0, g1 = GadgetWorld(3, "a0", host), GadgetWorld(3, "b", host)
    pair_frame = KripkeFrame(frozenset([a, b]), frozenset())
    reflexive = KripkeFrame(frozenset([a]), frozenset([(a, a)]))
    gadgets = KripkeFrame(frozenset([host, g0, g1]), frozenset([(host, g0), (g0, g1), (g1, g1)]))
    return [
        KripkeModel(pair_frame, {}, a),  # empty relation, empty valuation
        KripkeModel(pair_frame, {2: frozenset(), 1: frozenset([b])}, b),  # a variable with no worlds
        KripkeModel(reflexive, {}, a),  # a single reflexive world
        KripkeModel(reflexive, {1: frozenset([a])}, a),
        KripkeModel(gadgets, {4: frozenset([g1]), 1: frozenset()}, host),  # hosted gadget ids
        KripkeModel(close(gadgets, "transitive"), {}, g0),
    ]


class TestJsonWriter:
    """model_to_json and frame_to_json write json.dumps(payload, indent=2)
    byte for byte, for pair-built and rows-built (closed) frames alike."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models_match_json_dumps(self, seed):
        model = _random_json_model(random.Random(seed))
        mode = random.Random(seed).choice(["transitive", "reflexive_transitive", "reflexive_symmetric"])
        closed = KripkeModel(close(model.frame, mode), model.valuation, model.root)
        for m in (model, closed):
            text = model_to_json(m)
            assert text == _dumps_reference(m.frame, m)
            assert frame_to_json(m.frame) == _dumps_reference(m.frame)
            back = model_from_json(text)
            assert (back.frame, back.root, dict(back.valuation)) == (m.frame, m.root, dict(m.valuation))
            assert frame_from_json(frame_to_json(m.frame)) == m.frame

    @pytest.mark.parametrize("index", range(6))
    def test_edge_cases_match_json_dumps(self, index):
        model = _json_edge_cases()[index]
        text = model_to_json(model)
        assert text == _dumps_reference(model.frame, model)
        assert frame_to_json(model.frame) == _dumps_reference(model.frame)
        back = model_from_json(text)
        assert (back.frame, back.root, dict(back.valuation)) == (model.frame, model.root, dict(model.valuation))
        assert model_to_json(back) == text

    def test_empty_frame(self):
        frame = KripkeFrame(frozenset(), frozenset())
        assert frame_to_json(frame) == _dumps_reference(frame) == '{\n  "worlds": [],\n  "relation": []\n}\n'


class TestGoldenOutput:
    """Byte-exact serializations; the texts and digests were captured from
    the sort-per-call implementation, so a change of index or view shows."""

    def test_extended_model_json(self):
        import hashlib

        from modalred.reduction import encode_star, extend_model, quantifier_tree
        from modalred.syntax import parse_qbf

        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        _, ctx = encode_star(f)
        text = model_to_json(extend_model(quantifier_tree(f), ctx))
        assert len(text) == 34560
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b478389b64aa54a9c0de51db157764c4376ef66868ed77badfae81e0260ad471"
        )

    def test_gadget_frame_json(self):
        import hashlib

        from modalred.reduction import frame_fm_plus

        text = frame_to_json(frame_fm_plus(2))
        assert len(text) == 689
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e0071c3307e39881bd980f2ce5b821721360c3c9ff6c96e5fa28201e550088f3"
        )

    def test_gadget_frame_dot(self):
        from modalred.reduction import frame_fm_plus

        assert frame_to_dot(frame_fm_plus(2)) == (
            "digraph frame {\n"
            '  "gadget:m2:a0";\n'
            '  "gadget:m2:a1";\n'
            '  "gadget:m2:a2";\n'
            '  "gadget:m2:b";\n'
            '  "gadget:m2:c";\n'
            '  "gadget:m2:a0" -> "gadget:m2:a1";\n'
            '  "gadget:m2:a0" -> "gadget:m2:a2";\n'
            '  "gadget:m2:a0" -> "gadget:m2:b";\n'
            '  "gadget:m2:a1" -> "gadget:m2:a2";\n'
            '  "gadget:m2:b" -> "gadget:m2:b";\n'
            '  "gadget:m2:c" -> "gadget:m2:a0";\n'
            '  "gadget:m2:c" -> "gadget:m2:a1";\n'
            '  "gadget:m2:c" -> "gadget:m2:a2";\n'
            '  "gadget:m2:c" -> "gadget:m2:b";\n'
            '  "gadget:m2:c" -> "gadget:m2:c";\n'
            "}\n"
        )
