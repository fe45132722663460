"""Belief merging for propositional knowledge bases.

A small, deterministic engine: formulas and their models by exhaustive
enumeration, Hamming distances, variable forgetting and dilation, five
merge operators with forgetting-based cross-checks, and an executable
postulate harness.
"""

from .formula import (
    And,
    Atom,
    Constant,
    FALSE,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TRUE,
    conj,
    disj,
    fold_constants,
    format_formula,
    parse,
    substitute,
    variables,
)
from .semantics import (
    DEFAULT_VOCAB_CAP,
    InconsistentFormulaError,
    Interpretation,
    ModelSet,
    UnknownVariableError,
    VocabularyCapError,
    dalal,
    distance_to_formula,
    entails,
    equivalent,
    evaluate,
    format_dnf,
    formula_distance,
    is_consistent,
    models,
    to_dnf,
    truth_vector,
    vocabulary_union,
)
from .forgetting import dilate, dilate_via_forgetting, forget, switch_models
from .merging import (
    FORGETTING_FORMS,
    InconsistentKBError,
    MergeResult,
    OPERATORS,
    Profile,
    merge_f1,
    merge_f2,
    merge_gmax,
    merge_gmax_forget,
    merge_max,
    merge_max_forget,
    merge_sigma,
    merge_sigma_forget,
)
from .profile_io import parse_profile, parse_profile_parts, profile_to_text
from .postulates import (
    CLAIMED_PASS,
    CheckReport,
    EXPECTED_FAIL,
    GeneratorBounds,
    PostulateId,
    PostulateInstance,
    check,
    check_randomized,
    generate_instance,
    instance_for,
    replay_violation,
    serialize_violation,
)

__version__ = "0.1.0"
