"""Polymetric brick wall patterns from two-dimensional substitutions.

Generate walls by iterating geometric or block substitution rules
(deterministic, skewed, pseudo-self-affine, or random), then analyze them:
vertical joints and v_max, crossing verdicts and the joint-length bound,
substitution-matrix spectrum and brick frequencies, exact realization
counts, and Monte-Carlo statistics of V_max(p).
"""

from .builtins import BUILTIN_SOURCES, builtin, builtin_names
from .generate import (Brick, LetterGrid, OverlapError, Pattern,
                       check_no_overlap, format_pattern, generate_pattern,
                       iterate, iterate_block, overlap_certificate,
                       parse_pattern, ptm_oracle, render_grid, substitute_once)
from .joints import (JointReport, Prop2Verdict, check_prop2,
                     crossing_options, empirical_frequencies, has_crossing,
                     prop2_bound, report_with_crossings, v_max_at,
                     vertical_joints)
from .rng import SplitMix64, derive_seed
from .rules import (BrickType, ImageOption, Prob,
                    RuleError, RuleSyntaxError, RuleValidationError,
                    SubstitutionRule, parse_rule, serialize_rule, validate_rule)
from .spectral import (SubstitutionMatrix, assert_area_eigenvector,
                       brick_frequencies, count_bricks, count_realizations,
                       matrix, matrix_power, pf_eigenvalue)
from .stats import VmaxStats, sample_vmax
from .svg import to_svg

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SOURCES", "Brick", "BrickType", "ImageOption",
    "JointReport", "LetterGrid", "OverlapError", "Pattern",
    "Prob", "Prop2Verdict", "RuleError",
    "RuleSyntaxError", "RuleValidationError", "SplitMix64",
    "SubstitutionMatrix", "SubstitutionRule", "VmaxStats",
    "assert_area_eigenvector", "brick_frequencies", "builtin",
    "builtin_names", "check_no_overlap", "check_prop2", "count_bricks",
    "count_realizations", "crossing_options", "derive_seed",
    "empirical_frequencies", "format_pattern", "generate_pattern",
    "has_crossing", "iterate", "iterate_block", "matrix", "matrix_power",
    "overlap_certificate", "parse_pattern", "parse_rule", "pf_eigenvalue",
    "prop2_bound", "ptm_oracle", "render_grid", "report_with_crossings",
    "sample_vmax",
    "serialize_rule", "substitute_once", "to_svg", "v_max_at",
    "validate_rule", "vertical_joints",
]
