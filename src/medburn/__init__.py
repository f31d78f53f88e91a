"""Exact values and mechanisms for sender-side communication protocols.

Given a finite persuasion game with state-independent sender motives, this
package computes the sender's optimal value under cheap talk, mediation,
mediation with (optionally budget-capped) money burning, and Bayesian
persuasion; extracts the worst subjective prior and an optimal signaling
scheme; and constructs explicit near-optimal money-burning mechanisms.  All
arithmetic is exact rational.
"""

from .core import (
    AllTypesNull,
    Belief,
    DimensionMismatch,
    EmptyTypeOrActionSet,
    GameValidationError,
    PersuasionGame,
    PosteriorDistribution,
    PriorNotOnSimplex,
    SubjectivePrior,
    restrict_to_support,
    validate_game,
)
from .envelopes import (
    EnvelopeResult,
    concavify_weighted,
    evaluate_subjective,
    quasiconcavify,
    worst_prior_envelope,
)
from .geometry import (
    GenericityBoundExceeded,
    GenericityReport,
    PiecewiseValueStructure,
    Polytope,
    ValuePiece,
    best_responses,
    compile_pieces,
    direct_structure,
    is_generic,
    value_interval,
)
from .mechanism import (
    CanonicalMDMB,
    InvalidDelta,
    NotIncentiveCompatible,
    check_ic,
    construct_optimal_mdmb,
    sender_payoff,
)
from .rational import Rational, format_decimal, format_fraction, rat
from .solvers import (
    InadmissibleValue,
    ProtocolReport,
    SaddleCertificate,
    interim_payoffs,
    protocol_report,
    protocol_report_structure,
    value_bp,
    value_ct,
    value_md,
    value_mdmb,
    value_mdmb_budget,
    verify_saddle,
)

__all__ = [
    "AllTypesNull",
    "Belief",
    "CanonicalMDMB",
    "DimensionMismatch",
    "EmptyTypeOrActionSet",
    "EnvelopeResult",
    "GameValidationError",
    "GenericityBoundExceeded",
    "GenericityReport",
    "InadmissibleValue",
    "InvalidDelta",
    "NotIncentiveCompatible",
    "PersuasionGame",
    "PiecewiseValueStructure",
    "Polytope",
    "PosteriorDistribution",
    "PriorNotOnSimplex",
    "ProtocolReport",
    "Rational",
    "SaddleCertificate",
    "SubjectivePrior",
    "ValuePiece",
    "best_responses",
    "check_ic",
    "compile_pieces",
    "concavify_weighted",
    "construct_optimal_mdmb",
    "direct_structure",
    "evaluate_subjective",
    "format_decimal",
    "format_fraction",
    "interim_payoffs",
    "is_generic",
    "protocol_report",
    "protocol_report_structure",
    "quasiconcavify",
    "rat",
    "restrict_to_support",
    "sender_payoff",
    "validate_game",
    "value_bp",
    "value_ct",
    "value_interval",
    "value_md",
    "value_mdmb",
    "value_mdmb_budget",
    "verify_saddle",
    "worst_prior_envelope",
]

__version__ = "0.1.0"
