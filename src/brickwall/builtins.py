"""Built-in substitution rules, stored as rule-DSL source text.

Offsets are anchor-relative: a brick at (x, y) maps to placements around
(lambda1*x, lambda2*y).  Colors follow the usual figure conventions for
these rules.
"""

from fractions import Fraction
from typing import Optional

from .rules import RuleError, SubstitutionRule, parse_rule

_PTM = """\
rule ptm
engine block skew 0
expansion 2 2
# letter 0 renders as a 2x1 brick, letter 1 as a 3x1 brick
brick 0 2 1 color #ff8000
brick 1 3 1 color #c57339
block 0 { row: 0 1 ; row: 1 0 }
block 1 { row: 1 0 ; row: 0 1 }
end
"""

_PTM_SKEWED = """\
rule ptm_skewed
engine block skew 1
expansion 2 2
brick 0 2 1 color #ff8000
brick 1 3 1 color #c57339
block 0 { row: 0 1 ; row: 1 0 }
block 1 { row: 1 0 ; row: 0 1 }
end
"""

_SIGMA3 = """\
rule sigma3
engine geometric
expansion 2 2
brick B11 1 1 color #ff9900
brick B21 2 1 color #ff6600
brick B22 2 2 color #c57339
image B11 { B21 @ -1 0 ; B21 @ 0 1 }
image B21 { B21 @ -1 0 ; B22 @ 1 0 ; B11 @ 0 1 ; B11 @ 3 1 }
image B22 { B21 @ -1 0 ; B22 @ 1 0 ; B11 @ 0 1 ; B11 @ 3 1 ; B21 @ -1 2 ; B11 @ 1 2 ; B11 @ 2 2 ; B21 @ 0 3 ; B21 @ 2 3 }
end
"""

_ROWS23 = """\
rule rows23
engine geometric
expansion 2 3
brick B11 1 1 color #ff9900
brick B21 2 1 color #cc6633
image B11 { B21 @ -1 0 ; B11 @ 0 1 ; B11 @ 1 1 ; B21 @ 0 2 }
image B21 { B21 @ -1 0 ; B11 @ 1 0 ; B11 @ 2 0 ; B11 @ 0 1 ; B21 @ 1 1 ; B11 @ 3 1 ; B21 @ 0 2 ; B21 @ 2 2 }
end
"""

_RANDOM_SELF_SIMILAR = """\
rule random_self_similar
engine geometric
expansion 2 2
brick B12 1 2 color #ff9900
brick B22 2 2 color #cc6633
image B12 prob 1/2 { B22 @ 0 0 ; B12 @ 0 2 ; B12 @ 1 2 }
image B12 prob 1/2 { B12 @ 0 0 ; B12 @ 1 0 ; B22 @ 0 2 }
image B22 prob 1/2 { B12 @ 0 0 ; B22 @ 1 0 ; B12 @ 3 0 ; B22 @ 0 2 ; B12 @ 2 2 ; B12 @ 3 2 }
image B22 prob 1/2 { B12 @ 0 0 ; B22 @ 1 0 ; B12 @ 3 0 ; B12 @ 0 2 ; B12 @ 1 2 ; B22 @ 2 2 }
end
"""

_RANDOM_PP = """\
rule random_pp
engine geometric
expansion 2 2
brick B12 1 2 color #b3b3ff
brick B22 2 2 color #6d6d93
image B12 prob 1-p { B12 @ -1 0 ; B12 @ 0 0 ; B12 @ 0 2 ; B12 @ 1 2 }
image B12 prob p { B22 @ -1 0 ; B22 @ 0 2 }
image B22 prob 1-p { B12 @ -1 0 ; B12 @ 0 0 ; B12 @ 1 0 ; B12 @ 2 0 ; B12 @ 0 2 ; B12 @ 1 2 ; B12 @ 2 2 ; B12 @ 3 2 }
image B22 prob p { B22 @ -1 0 ; B22 @ 1 0 ; B22 @ 0 2 ; B22 @ 2 2 }
end
"""

BUILTIN_SOURCES = {
    "ptm": _PTM,
    "ptm_skewed": _PTM_SKEWED,
    "sigma3": _SIGMA3,
    "rows23": _ROWS23,
    "random_self_similar": _RANDOM_SELF_SIMILAR,
    "random_pp": _RANDOM_PP,
}


def builtin(name: str, p: Optional[Fraction] = None) -> SubstitutionRule:
    """Return a built-in rule by name, optionally binding the parameter p."""
    try:
        source = BUILTIN_SOURCES[name]
    except KeyError:
        raise RuleError(f"unknown builtin rule '{name}'"
                        f" (have: {', '.join(BUILTIN_SOURCES)})") from None
    rule = parse_rule(source)
    if p is not None:
        rule = rule.bind(p)
    return rule
