"""Parser, printer, substitution and size metric tests."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import strategies as st
from hypothesis import assume, example, given, settings

from conftest import modal_formulas, qbf_formulas, sugared_modal_formulas, all_small_models
from modalred.kripke import model_check
from modalred.syntax import (
    Formula,
    FormulaSyntaxError,
    MAnd,
    MBox,
    MBoxLe,
    MBoxPlus,
    MBoxPow,
    MDia,
    MDiaPow,
    MFalse,
    MImp,
    MNot,
    MOr,
    MTrue,
    MVar,
    ModalFormula,
    QAnd,
    QExists,
    QFalse,
    QForall,
    QImp,
    QOr,
    QVar,
    QbfFormula,
    expand_sugar,
    formula_size,
    is_constant,
    modal_vars,
    parse_modal,
    parse_qbf,
    render,
    substitute,
)


class TestParseQbf:
    def test_single_exists(self):
        assert parse_qbf("E p1 . p1") == QExists(1, QVar(1))

    def test_tautological_matrix(self):
        assert parse_qbf("A p1 . (p1 -> p1)") == QForall(1, QImp(QVar(1), QVar(1)))

    def test_trailing_operator_is_rejected(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_qbf("p1 ->")
        assert err.value.offset == 5

    def test_unknown_token(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_qbf("p1 # p2")
        assert err.value.offset == 3

    def test_unbalanced_parens(self):
        with pytest.raises(FormulaSyntaxError):
            parse_qbf("(p1 -> p2")
        with pytest.raises(FormulaSyntaxError):
            parse_qbf("p1 )")

    def test_tilde_is_implication_sugar(self):
        assert parse_qbf("~p1") == QImp(QVar(1), QFalse())

    def test_quantifier_scope_is_maximal(self):
        assert parse_qbf("A p1 . p1 -> p1") == QForall(1, QImp(QVar(1), QVar(1)))

    def test_quantifier_inside_parentheses(self):
        f = parse_qbf("(A p1 . p1) -> false")
        assert f == QImp(QForall(1, QVar(1)), QFalse())

    def test_no_true_in_qbf(self):
        with pytest.raises(FormulaSyntaxError):
            parse_qbf("true")


class TestParseModal:
    def test_box_false(self):
        assert parse_modal("[] false") == MBox(MFalse())

    def test_box_plus_expands(self):
        assert parse_modal("box+ p1") == MAnd((MVar(1), MBox(MVar(1))))

    def test_dia_pow_expands(self):
        assert parse_modal("dia^2 false") == MDia(MDia(MFalse()))

    def test_box_le_expands(self):
        assert parse_modal("box<=0 p1") == MVar(1)
        assert parse_modal("box<=2 p1") == MAnd(
            (MVar(1), MBox(MVar(1)), MBox(MBox(MVar(1))))
        )

    def test_flat_conjunction(self):
        assert parse_modal("p1 & p2 & p3") == MAnd((MVar(1), MVar(2), MVar(3)))

    def test_nested_conjunction_kept_nested(self):
        assert parse_modal("(p1 & p2) & p3") == MAnd((MAnd((MVar(1), MVar(2))), MVar(3)))

    def test_absurd_sugar_bounds_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_modal("box<=99999999 false")
        with pytest.raises(FormulaSyntaxError):
            parse_modal("dia^99999999 false")


PARSERS = {"qbf": parse_qbf, "modal": parse_modal}
P1, P2, P3, P4 = map(QVar, (1, 2, 3, 4))
M1, M2, M3, M4 = map(MVar, (1, 2, 3, 4))

# (language, text, the formula or the (message, offset) of the FormulaSyntaxError)
GOLDEN = [
    ("qbf", "", ("expected a formula, found end of input", 0)),
    ("modal", "", ("expected a formula, found end of input", 0)),
    ("qbf", "()", ("unbalanced parentheses: unmatched ')', found ')'", 1)),
    ("modal", "(p1", ("unbalanced parentheses: expected ')', found end of input", 3)),
    ("qbf", "(p1 p2)", ("unbalanced parentheses: expected ')', found 'p2'", 4)),
    ("qbf", "p1 )", ("expected end of input, found ')'", 3)),
    ("qbf", "A . p1", ("expected a variable after quantifier, found '.'", 2)),
    ("qbf", "A p1 p1", ("expected '.' after quantified variable, found 'p1'", 5)),
    ("qbf", "p1 -> A p2 . p2", ("expected a formula, found 'A'", 6)),
    ("qbf", "~A p1 . p1", ("expected a formula, found 'A'", 1)),
    ("qbf", "true", ("expected a formula, found 'true'", 0)),
    ("qbf", "[] p1", ("expected a formula, found '[]'", 0)),
    ("modal", "A p1 . p1", ("expected a formula, found 'A'", 0)),
    ("modal", "box<=10001 p1", ("sugar bound 10001 exceeds the parser limit of 10000", 0)),
    ("modal", "p1 # p2", ("unknown token '#'", 3)),
    ("modal", "p0 & p1", ("variable indices start at 1", 0)),
    ("qbf", "A p0 . p1", ("variable indices start at 1", 2)),
    ("qbf", "p1 & p2 & p3", QAnd(QAnd(P1, P2), P3)),
    ("modal", "~p1 & ~p2 & p3", MAnd((MNot(M1), MNot(M2), M3))),
    ("qbf", "p1 | p2 | p3", QOr(QOr(P1, P2), P3)),
    ("modal", "p1 | p2 | p3", MOr(MOr(M1, M2), M3)),
    ("qbf", "p1 -> p2 -> p3", QImp(P1, QImp(P2, P3))),
    ("modal", "p1 -> p2 -> p3", MImp(M1, MImp(M2, M3))),
    ("qbf", "p1 & p2 | p3 & p4", QOr(QAnd(P1, P2), QAnd(P3, P4))),
    ("modal", "p1 & p2 | p3 & p4", MOr(MAnd((M1, M2)), MAnd((M3, M4)))),
    ("qbf", "A p1 . E p2 . p1 -> p2", QForall(1, QExists(2, QImp(P1, P2)))),
    ("qbf", "(A p1 . p1) -> false", QImp(QForall(1, P1), QFalse())),
    ("modal", "box^2 p1 & <> p2", MAnd((MBox(MBox(M1)), MDia(M2)))),
]


@pytest.mark.parametrize("language, text, expected", GOLDEN)
def test_parser_golden(language, text, expected):
    if not isinstance(expected, tuple):
        assert PARSERS[language](text) is expected
        return
    message, offset = expected
    with pytest.raises(FormulaSyntaxError) as err:
        PARSERS[language](text)
    assert (str(err.value), err.value.offset) == (f"{message} (at offset {offset})", offset)


class TestRender:
    def test_box_false(self):
        assert render(MBox(MFalse())) == "[] false"

    def test_exists(self):
        assert render(QExists(1, QVar(1))) == "E p1 . p1"

    def test_nary_conjunction(self):
        assert render(MAnd((MVar(1), MBox(MVar(1))))) == "(p1 & [] p1)"

    def test_implication_associativity(self):
        f = MImp(MVar(1), MImp(MVar(2), MVar(3)))
        assert render(f) == "p1 -> p2 -> p3"
        g = MImp(MImp(MVar(1), MVar(2)), MVar(3))
        assert render(g) == "(p1 -> p2) -> p3"

    def test_sugar_tokens(self):
        assert render(MBoxLe(2, MVar(1))) == "box<=2 p1"
        assert render(MBoxPlus(MBox(MVar(1)))) == "box+ [] p1"


@given(qbf_formulas())
@settings(max_examples=300)
def test_qbf_round_trip(f):
    assert parse_qbf(render(f)) is f


@given(modal_formulas())
@settings(max_examples=300)
def test_modal_round_trip(f):
    assert parse_modal(render(f)) is f


@given(sugared_modal_formulas())
@settings(max_examples=200)
def test_sugared_render_reparses_to_expansion(f):
    assert parse_modal(render(f)) is expand_sugar(f)


class TestSubstitute:
    def test_example(self):
        assert substitute(MBox(MVar(1)), {1: MFalse()}) == MBox(MFalse())

    def test_identity(self):
        f = MBox(MAnd((MVar(1), MVar(2))))
        assert substitute(f, {}) is f

    def test_outside_domain_untouched(self):
        f = MOr(MVar(1), MVar(2))
        assert substitute(f, {3: MFalse()}) is f

    @pytest.mark.parametrize("first", [MTrue(), MFalse()])
    def test_mappings_with_other_images_never_answer_each_other(self, first):
        # each mapping keeps its own memo, whichever ran first
        f = MBox(MAnd((MVar(1), MDia(MVar(1)))))
        second = MFalse() if first is MTrue() else MTrue()
        for image in (first, second, first):
            assert substitute(f, {1: image}) is MBox(MAnd((image, MDia(image))))

    def test_a_refused_node_leaves_later_calls_correct(self):
        # the fold stops at the QBF node after the memo took p1's image
        mapping = {1: MBox(MFalse()), 2: MTrue()}
        with pytest.raises(TypeError, match="not a modal formula"):
            substitute(MAnd((MVar(1), QVar(2))), mapping)
        with pytest.raises(TypeError, match="not a modal formula"):
            substitute(MAnd((MVar(1), QVar(2))), dict(mapping))
        assert substitute(MAnd((MVar(1), MVar(2))), mapping) is MAnd((MBox(MFalse()), MTrue()))
        assert substitute(MOr(MVar(1), MVar(3)), mapping) is MOr(MBox(MFalse()), MVar(3))


@given(modal_formulas(max_leaves=10), modal_formulas(max_leaves=6))
@settings(max_examples=150)
def test_substitute_is_homomorphism(f, g):
    s = {1: g}
    assert substitute(MAnd((f, f)), s) == MAnd((substitute(f, s), substitute(f, s)))
    assert substitute(MBox(f), s) == MBox(substitute(f, s))
    assert substitute(MOr(f, f), s) == MOr(substitute(f, s), substitute(f, s))


@given(modal_formulas(max_leaves=8), modal_formulas(max_leaves=5), modal_formulas(max_leaves=5))
@settings(max_examples=150)
def test_disjoint_substitutions_commute(f, g, h):
    # indices 1 and 2 are distinct and g must not mention p2
    assume(2 not in modal_vars(g))
    sequential = substitute(substitute(f, {1: g}), {2: h})
    simultaneous = substitute(f, {1: g, 2: h})
    assert sequential == simultaneous


@given(modal_formulas(max_leaves=10), modal_formulas(max_leaves=6))
@settings(max_examples=150)
def test_substitution_size_bound(f, g):
    s = {i: g for i in modal_vars(f)}
    bound = formula_size(f) * max(
        [formula_size(g)] + [1]
    )
    assert formula_size(substitute(f, s)) <= bound


class TestExpandSugar:
    def test_box_plus(self):
        f = MVar(1)
        assert expand_sugar(MBoxPlus(f)) == MAnd((f, MBox(f)))

    def test_box_le_zero(self):
        assert expand_sugar(MBoxLe(0, MVar(1))) == MVar(1)

    def test_box_le_two(self):
        f = MVar(1)
        assert expand_sugar(MBoxLe(2, f)) == MAnd((f, MBox(f), MBox(MBox(f))))

    def test_box_le_two_matches_bounded_depth_semantics(self):
        # equivalence checked against every pointed model with <= 3 worlds
        sugar = MBoxLe(2, MVar(1))
        spelled = MAnd((MVar(1), MBox(MVar(1)), MBox(MBox(MVar(1)))))
        for worlds in (1, 2, 3):
            for model in all_small_models(worlds, var_count=1):
                assert model_check(model, model.root, sugar) == model_check(
                    model, model.root, spelled
                )


class TestFormulaSize:
    def test_leaves(self):
        assert formula_size(MFalse()) == 1
        assert formula_size(MTrue()) == 1
        assert formula_size(MVar(7)) == 1

    def test_box_false(self):
        assert formula_size(MBox(MFalse())) == 2

    def test_nary_conjunction_counts_arity_minus_one(self):
        f = MAnd((MVar(1), MVar(2), MVar(3)))
        assert formula_size(f) == 3 + 2

    def test_sugar_expanded_before_counting(self):
        assert formula_size(MBoxPlus(MVar(1))) == formula_size(
            MAnd((MVar(1), MBox(MVar(1))))
        )


class TestIsConstant:
    def test_variable_free(self):
        assert is_constant(MBox(MImp(MDia(MTrue()), MFalse())))

    def test_with_variable(self):
        assert not is_constant(MBox(MVar(1)))


class TestNodeInterning:
    def test_equal_structure_is_same_object(self):
        assert MAnd((MVar(1), MBox(MVar(1)))) is MAnd((MVar(1), MBox(MVar(1))))
        assert QForall(1, QVar(1)) is QForall(1, QVar(1))

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            MVar(0)
        with pytest.raises(ValueError):
            QVar(-2)
        with pytest.raises(ValueError):
            MAnd(())


# (a constructor call, the message of the ValueError it raises); each call
# builds a valid twin first, so a bad field whose pool key equals the twin's
# (True == 1 == 1.0) finds the twin in the pool and must still be refused
BAD_FIELDS = [
    (lambda: (MVar(1), MVar(0)), "variable index must be a positive integer, got 0"),
    (lambda: (MVar(1), MVar(1.0)), "variable index must be a positive integer, got 1.0"),
    (lambda: (QVar(2), QVar(-2)), "variable index must be a positive integer, got -2"),
    (lambda: (QVar(2), QVar(2.0)), "variable index must be a positive integer, got 2.0"),
    (lambda: (QForall(1, QVar(1)), QForall(0, QVar(1))), "variable index must be a positive integer, got 0"),
    (lambda: (QExists(1, QVar(1)), QExists(1.5, QVar(1))), "variable index must be a positive integer, got 1.5"),
    # a bool is an int, and the pool key (MVar, True) equals (MVar, 1)
    (lambda: (MVar(1), MVar(True)), "variable index must be a positive integer, got True"),
    (lambda: (QForall(1, QVar(1)), QForall(True, QVar(1))), "variable index must be a positive integer, got True"),
    (lambda: (MBoxLe(0, MTrue()), MBoxLe(False, MTrue())), "box<= bound must be a non-negative integer, got False"),
    (lambda: (MBoxLe(1, MVar(1)), MBoxLe(-1, MVar(1))), "box<= bound must be a non-negative integer, got -1"),
    (lambda: (MBoxPow(2, MVar(1)), MBoxPow(-2, MVar(1))), "box^ power must be a non-negative integer, got -2"),
    (lambda: (MBoxPow(2, MVar(1)), MBoxPow(2.0, MVar(1))), "box^ power must be a non-negative integer, got 2.0"),
    (lambda: (MDiaPow(3, MVar(1)), MDiaPow(-3, MVar(1))), "dia^ power must be a non-negative integer, got -3"),
    (lambda: (MDiaPow(2, MVar(1)), MDiaPow("2", MVar(1))), "dia^ power must be a non-negative integer, got '2'"),
    (lambda: (MDiaPow(1, MVar(1)), MDiaPow(True, MVar(1))), "dia^ power must be a non-negative integer, got True"),
    (lambda: (MAnd([MTrue()]), MAnd([])), "n-ary conjunction needs at least one conjunct"),
]


@pytest.mark.parametrize("make, message", BAD_FIELDS)
def test_constructor_error_text(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: MVar(),
        lambda: MTrue(MFalse()),
        lambda: MNot(MTrue(), MTrue()),
        lambda: QOr(QFalse()),
        lambda: QForall(1, QVar(1), QVar(2)),
        lambda: MBoxLe(2),
    ],
)
def test_wrong_arity_is_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_nodes_reject_assignment_and_deletion():
    p1 = MVar(1)
    for node, name in [
        (p1, "index"),
        (MAnd((p1, p1)), "items"),
        (MBoxLe(2, p1), "bound"),
        (QForall(1, QVar(1)), "body"),
        (MTrue(), "extra"),
    ]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, 2)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
    assert MVar(1) is p1
    assert render(MVar(1)) == "p1"


def _nodes(root):
    """Every node of ``root``, found through the fields its class declares."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif isinstance(node, Formula) and node not in seen:
            seen.add(node)
            stack.extend(getattr(node, name) for name in type(node).__slots__)
    return seen


def test_every_node_rebuilds_from_its_fields():
    qbfs = map(parse_qbf, ["A p1 . E p2 . (p1 & p2) | ~p1 -> false", "E p3 . A p1 . p3 | p1 & ~p3"])
    f, g = map(parse_modal, ["[] (p1 & <> p2) | ~(p3 -> false)", "<> true & [] [] ~p1"])
    sugared = [MBoxPlus(f), MBoxLe(2, g), MBoxPow(3, f), MDiaPow(1, MBoxLe(0, g))]
    nodes = set().union(*map(_nodes, [*qbfs, f, g, *sugared]))
    classes = {*QbfFormula.__subclasses__(), *ModalFormula.__subclasses__()}
    assert len(classes) == 20
    assert {type(node) for node in nodes} == classes
    for node in nodes:
        assert type(node)(*(getattr(node, name) for name in type(node).__slots__)) is node


def _chain(wrap, depth: int, leaf):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


# (formula, its nesting depth, the text of one layer); both are far deeper
# than Python's default recursion limit of 1000
DEEP = {
    "box": (expand_sugar(MBoxPow(5000, MVar(1))), 5000, "[] "),
    "not": (_chain(MNot, 3000, MVar(1)), 3000, "~"),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
class TestDeepNesting:
    def test_formula_size(self, shape):
        f, depth, _ = DEEP[shape]
        assert formula_size(f) == depth + 1

    def test_modal_vars(self, shape):
        f, _, _ = DEEP[shape]
        assert modal_vars(f) == frozenset((1,))
        assert not is_constant(f)

    def test_expand_sugar(self, shape):
        f, _, _ = DEEP[shape]
        assert expand_sugar(f) is f

    def test_substitute(self, shape):
        f, depth, _ = DEEP[shape]
        wrap = type(f)
        assert substitute(f, {1: MFalse()}) is _chain(wrap, depth, MFalse())

    def test_render(self, shape):
        f, depth, layer = DEEP[shape]
        assert render(f) == layer * depth + "p1"


# (parser, text, its formula), each nested far deeper than the recursion limit
DEEP_TEXT = {
    "not": (parse_modal, "~" * 3000 + "p1", DEEP["not"][0]),
    "parentheses": (parse_modal, "(" * 3000 + "p1" + ")" * 3000, MVar(1)),
    "implication": (
        parse_qbf,
        "p1 -> (" * 1200 + "p1" + ")" * 1200,
        _chain(lambda f: QImp(QVar(1), f), 1200, QVar(1)),
    ),
}


@pytest.mark.parametrize("shape", sorted(DEEP_TEXT))
def test_parser_deep_input(shape):
    parser, text, expected = DEEP_TEXT[shape]
    assert parser(text) is expected


@pytest.mark.parametrize(
    "walker", [expand_sugar, formula_size, modal_vars, lambda f: substitute(f, {1: MTrue()})]
)
def test_modal_walkers_reject_qbf_nodes(walker):
    for f in (QVar(1), parse_qbf("A p1 . p1 -> false")):
        with pytest.raises(TypeError, match="not a modal formula"):
            walker(f)


@given(st.text(alphabet="pEA1234567890&|->~()[]<>boxdia+=^. ", max_size=30))
@example("A p0 . p1")
@settings(max_examples=300)
def test_parser_never_crashes_with_foreign_exceptions(text):
    for parser in (parse_qbf, parse_modal):
        try:
            parser(text)
        except FormulaSyntaxError:
            pass
