"""Exact lambda-ring computations on Grothendieck-Witt rings of symmetric
representations: universal polynomial tables, bilinear-form algebra over
model fields, extension rings of a split torus, and Weyl characters."""

from .errors import DomainError, FormatError
from .fields import FieldModel, SquareClass, field_model
from .forms import (
    GramForm,
    GWClass,
    diagonal_form,
    diagonalize,
    exterior_power,
    form_record,
    gw_class,
    hyperbolic,
    hyperbolic_lemma_witness,
    load_form,
    negate,
    parse_form,
    perp_sum,
    sublagrangian_reduce,
    tensor,
)
from .lambda_rings import (
    CheckRecord,
    CheckReport,
    DEFAULT_CONSTANTS,
    ExtTorusConstants,
    FreeLambdaRing,
    GWExtTorusRing,
    GWFieldRing,
    IntegerRing,
    KExtTorusRing,
    KTorusRing,
    augmentation,
    check_lambda1,
    check_lambda2,
    check_line_special,
    element_record,
    element_str,
    forgetful,
    hyperbolic_map,
    load_constants,
    load_element,
    pair_key,
    parse_element,
)
from .symfun import EPolynomial, universal_P, universal_P_kj
from .weights import (
    Flavor,
    OrbitSimple,
    char_record,
    character_mass,
    check_triangularity,
    classify_semidirect,
    dominance_leq,
    endo_dim,
    fold_restriction,
    is_dominant,
    minus,
    parse_char,
    weyl_character,
    weyl_dim,
)

__version__ = "0.1.0"
