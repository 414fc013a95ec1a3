"""Workbench for simply typed lambda calculi with recursion and bottoms.

The package decides normalization questions for terms with fixed-point
constants by evaluating them in finite domains of monotone functions
over the two-point lattice, extracts certified normal forms through
depth-truncated unfoldings, and checks numeral definability of the
results.  See the README for the surface syntax and the CLI tour.
"""

from .analysis import (
    AnalysisInvariantError,
    AnalysisReport,
    certified_normalize,
    has_head_normal_form,
    has_normal_form,
    tilde_Y,
    truncation_depths,
)
from .harness import (
    DefinabilityVerdict,
    FunctionSpec,
    PipelineError,
    PipelineResult,
    ProbeReport,
    check_defines,
    conservativity_pipeline,
    extended_poly,
    load_spec_file,
    recursion_depth_probe,
)
from .parser import ParseError, parse_term, parse_type
from .printer import term_to_str
from .reduction import (
    FuelExhausted,
    Improper,
    Normal,
    Proper,
    assured_normalize,
    classify_properness,
    decode_numeral,
    eliminate_omega,
    enumerate_long_normal_forms,
    is_long_normal,
    long_normal_form,
    normalize,
    term_size,
)
from .semantics import (
    Domain,
    DomainTooLarge,
    Element,
    cardinality,
    enumerate_domain,
    eval_term,
    head_test_t,
    height,
    lfp,
    probe_s,
    set_default_size_limit,
    test_t,
    top_element,
)
from .terms import (
    App,
    Lam,
    OmegaConst,
    Term,
    TypingError,
    Var,
    YConst,
    church_numeral,
    match_numeral,
    omega_tilde,
    tilde_omega_map,
    type_of,
    y_tilde,
    y_truncate,
)
from .types import GROUND, Arrow, Ground, SimpleType, arrow, numeral_type, type_to_str

__version__ = "0.1.0"
