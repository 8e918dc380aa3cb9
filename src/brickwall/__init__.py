"""Polymetric brick wall patterns from two-dimensional substitutions.

Generate walls by iterating geometric or block substitution rules
(deterministic, skewed, pseudo-self-affine, or random), then analyze them:
vertical joints and v_max, crossing verdicts and the joint-length bound,
substitution-matrix spectrum and brick frequencies, exact realization
counts, and Monte-Carlo statistics of V_max(p).

Each export loads its module on first use, since without a bytecode cache
a process compiles every module it imports, and is looked up there on every
access: a patch of `brickwall.generate.iterate` is what `brickwall.iterate`
returns.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it defines
    "builtins": "BUILTIN_SOURCES builtin",
    "generate": "Brick LetterGrid OverlapError Pattern check_no_overlap"
                " format_pattern generate_pattern iterate iterate_block"
                " parse_pattern render_grid substitute_once",
    "joints": "JointReport Prop2Verdict analyze crossing_options has_crossing"
              " prop2_bound report_with_crossings vertical_joints",
    "rng": "SplitMix64 derive_seed",
    "rules": "BrickType ImageOption Prob RuleError RuleSyntaxError"
             " RuleValidationError SubstitutionRule parse_rule serialize_rule"
             " validate_rule",
    "spectral": "SubstitutionMatrix assert_area_eigenvector brick_frequencies"
                " count_bricks count_realizations matrix pf_eigenvalue",
    "stats": "VmaxStats sample_vmax",
    "svg": "to_svg",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
