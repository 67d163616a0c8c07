"""modalred: TQBF-to-modal-logic reductions at desk scale.

Builds the level-marker modal encoding of a closed prenex QBF, the
variable-free ladder substitution that removes all propositional variables,
and the witness Kripke models for both; decides K-satisfiability with a
tableau plus an independent bounded-model oracle; and checks finite-frame
conditions (GL/Grz/KTB and the weak Grzegorczyk axiom).
"""

from .kripke import (
    BaseWorld,
    GadgetWorld,
    KripkeFrame,
    KripkeModel,
    ValuationBudgetError,
    WorldId,
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
from .qbf import (
    evaluate,
    free_vars,
    is_true_qbf,
    prenex_join,
    prenex_split,
    to_prenex,
    universal_closure,
)
from .reduction import (
    EncodingContext,
    alpha,
    encode_alpha,
    encode_star,
    extend_model,
    frame_fm,
    frame_fm_plus,
    prepare_context,
    quantifier_tree,
    star_equivalence_violations,
)
from .solver import (
    SatVerdict,
    SolverBudgetError,
    TableauContext,
    sat_bounded,
    sat_k_tableau,
)
from .syntax import (
    FormulaSyntaxError,
    ModalFormula,
    QbfFormula,
    Substitution,
    expand_sugar,
    formula_size,
    is_constant,
    parse_modal,
    parse_qbf,
    render,
    substitute,
)

__version__ = "0.1.0"
