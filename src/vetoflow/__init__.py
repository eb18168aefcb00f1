"""Exact tooling for veto-based voting rules, eating algorithms and
metric distortion.

Everything is computed over exact rationals: eating traces, probabilistic
serial shares, veto-core witnesses and distortion LPs all come back as
`fractions.Fraction` values with checkable certificates.
"""

from .axioms import (
    AuditReport,
    PscVerdict,
    PscViolation,
    VetoVerdict,
    equivalence_audit,
    pareto_matching_criterion,
    veto_core,
    veto_core_member,
    veto_power,
    weak_psc_satisfied,
)
from .distortion import (
    INFINITE,
    DistortionResult,
    LpSizeError,
    distortion_of_candidate,
    extend_to_full_pseudometric,
    verify_certificate,
)
from .eating import (
    EatingConfig,
    EatingTrace,
    FractionalAssignment,
    phragmen_committee,
    probabilistic_serial,
    run_eating,
    veto_by_consumption_winners,
)
from .matching import (
    CutWitness,
    build_domination_graph,
    extract_deficiency_witness,
    has_fractional_perfect_matching,
    max_bipartite_matching,
)
from .profiles import (
    CloneExpansion,
    PreferenceProfile,
    ProfileSizeError,
    VoterGroup,
    all_profiles,
    clone_expand,
    dominated_set,
    plurality_scores,
    reverse_profile,
    solid_coalitions,
)
from .profile_io import (
    DistanceMatrix,
    format_rational,
    gen_euclidean,
    gen_impartial_culture,
    parse_metric,
    parse_profile,
    parse_rational,
    serialize_profile,
)
from .rules import (
    composite_distortion_rule,
    plurality_matching_winners,
    plurality_veto,
    serial_dictatorship,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CloneExpansion",
    "CutWitness",
    "DistanceMatrix",
    "DistortionResult",
    "EatingConfig",
    "EatingTrace",
    "FractionalAssignment",
    "INFINITE",
    "LpSizeError",
    "PreferenceProfile",
    "ProfileSizeError",
    "PscVerdict",
    "PscViolation",
    "VetoVerdict",
    "VoterGroup",
    "all_profiles",
    "build_domination_graph",
    "clone_expand",
    "composite_distortion_rule",
    "distortion_of_candidate",
    "dominated_set",
    "equivalence_audit",
    "extend_to_full_pseudometric",
    "extract_deficiency_witness",
    "format_rational",
    "gen_euclidean",
    "gen_impartial_culture",
    "has_fractional_perfect_matching",
    "max_bipartite_matching",
    "pareto_matching_criterion",
    "parse_metric",
    "parse_profile",
    "parse_rational",
    "phragmen_committee",
    "plurality_matching_winners",
    "plurality_veto",
    "probabilistic_serial",
    "reverse_profile",
    "run_eating",
    "serial_dictatorship",
    "serialize_profile",
    "solid_coalitions",
    "verify_certificate",
    "veto_by_consumption_winners",
    "veto_core",
    "veto_core_member",
    "veto_power",
    "weak_psc_satisfied",
]
