"""Substitution rule model, the line-oriented rule DSL, and rule validation.

A rule maps every brick type to one or more image options.  A geometric
option is a patch of bricks, each sized by its type and placed at an integer
offset from the expanded anchor (lambda1*x, lambda2*y); block rules rewrite
letters into lambda2 rows of lambda1 letters and are rendered to bricks
separately.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

# default fill colors (warm masonry tones), cycled in declaration order
PALETTE = ("#ff9900", "#cc6633", "#c57339", "#ff8000", "#b3b3ff", "#6d6d93")

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RULE_FIELDS = attrgetter("name", "engine", "lambda1", "lambda2", "skew",
                          "types", "images", "blocks")  # all but unbound


class RuleError(ValueError):
    """Any problem with a substitution rule."""


class RuleSyntaxError(RuleError):
    """DSL syntax or structural error, with source position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            message = f"{where}: {message}"
        super().__init__(message)


class RuleValidationError(RuleError):
    """Raised by parse_rule when semantic validation fails."""

    def __init__(self, diagnostics: List[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid rule: " + "; ".join(self.diagnostics))


class Prob(NamedTuple):
    """Exact probability, possibly linear in the coin parameter: const + coeff*p."""

    const: Fraction
    coeff: Fraction = _ZERO

    @property
    def is_parametric(self) -> bool:
        return self.coeff != 0

    @property
    def value(self) -> Fraction:
        if self.is_parametric:
            raise RuleError("probability depends on unbound parameter p")
        return self.const

    def bind(self, p: Fraction) -> "Prob":
        return Prob(self.const + self.coeff * p)

    def __str__(self):
        if self.coeff == 0:
            return str(self.const)
        if self.const == 1 and self.coeff == -1:
            return "1-p"  # the parser's spelling
        size = abs(self.coeff)
        term = "p" if size == 1 else f"{size}*p"
        if self.const == 0:
            return term if self.coeff > 0 else f"-{term}"
        return f"{self.const} {'+' if self.coeff > 0 else '-'} {term}"


class BrickType(NamedTuple):
    id: str
    width: int
    height: int
    color: str

    @property
    def area(self) -> int:
        return self.width * self.height


class Brick(NamedTuple):
    """A placed brick occupying [x, x+width) x [y, y+height); equal to the
    plain tuple of its fields, whose order is not the wall order.  In an
    image option, x and y are the offset from the inflated anchor."""

    type_id: str
    x: int
    y: int
    width: int
    height: int


class ImageOption(NamedTuple):
    probability: Prob
    placements: Tuple[Brick, ...]  # in source order


class SubstitutionRule:
    """A rule; equal to another when every field but unbound is, and
    unhashable, since images and blocks are dicts."""

    def __init__(self, name, engine, lambda1, lambda2, skew, types, images,
                 blocks, unbound=None):
        self.name, self.engine = name, engine  # "geometric" or "block"
        self.lambda1, self.lambda2, self.skew = lambda1, lambda2, skew
        # the BrickTypes; per type id, the tuple of its ImageOptions
        self.types, self.images = types, images
        # block image per letter: lambda2 rows (bottom-to-top) of lambda1 ids
        self.blocks = blocks
        # bind()'s source: it shares the overlap certificate and growth bounds
        self.unbound = unbound

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _RULE_FIELDS(self) == _RULE_FIELDS(other)

    @property
    def type_ids(self) -> Tuple[str, ...]:
        return tuple(t.id for t in self.types)

    @property
    def expansion(self) -> int:
        return self.lambda1 * self.lambda2

    @property
    def is_random(self) -> bool:
        return any(len(opts) > 1 for opts in self.images.values())

    @property
    def is_parametric(self) -> bool:
        return any(opt.probability.is_parametric
                   for opts in self.images.values() for opt in opts)

    @cached_property
    def overlap_certificate(self):
        """generate.overlap_certificate of this rule, computed on first use
        and shared with the rule it was bound from: it ignores probabilities."""
        if self.unbound is not None:
            return self.unbound.overlap_certificate
        from .generate import overlap_certificate  # generate imports rules
        return overlap_certificate(self)

    @cached_property
    def growth_bounds(self):
        """spectral.growth_bounds of this rule, computed on first use and
        shared with the rule it was bound from: it ignores probabilities."""
        if self.unbound is not None:
            return self.unbound.growth_bounds
        from .spectral import growth_bounds  # spectral imports rules
        return growth_bounds(self)

    @cached_property
    def substitution_table(self):
        """generate._substitution_table of this rule, computed on first use."""
        from .generate import _substitution_table  # generate imports rules
        return _substitution_table(self)

    @cached_property
    def supertile_table(self):
        """generate._supertile_table of this rule: each type's supertile,
        built on its first lookup."""
        from .generate import _supertile_table  # generate imports rules
        return _supertile_table(self)

    def get_type(self, type_id: str) -> BrickType:
        for t in self.types:
            if t.id == type_id:
                return t
        raise RuleError(f"unknown brick type '{type_id}' in rule '{self.name}'")

    def bind(self, p) -> "SubstitutionRule":
        """Substitute a concrete value for the parameter p in all probabilities."""
        p = Fraction(p)
        if not self.is_parametric:
            raise RuleError(f"rule '{self.name}' takes no parameter p")
        if not 0 <= p <= 1:
            raise RuleError(f"parameter p={p} outside [0, 1]")
        images = {tid: tuple(ImageOption(opt.probability.bind(p), opt.placements)
                             for opt in opts)
                  for tid, opts in self.images.items()}
        return SubstitutionRule(self.name, self.engine, self.lambda1,
                                self.lambda2, self.skew, self.types, images,
                                self.blocks, unbound=self)


def _bricks_overlap(a: Brick, b: Brick) -> bool:
    # open-rectangle intersection: touching edges do not count
    return (a.x < b.x + b.width and b.x < a.x + a.width
            and a.y < b.y + b.height and b.y < a.y + a.height)


def validate_rule(rule: SubstitutionRule) -> List[str]:
    """Semantic diagnostics: probability sums, area identity, image overlaps,
    and image bricks whose type the rule lacks or whose size is not their
    type's (only a hand-built rule has those).

    Empty list means the rule is sound.  Structural problems (unknown ids,
    bad dimensions) are the parser's job and raise instead.
    """
    diags: List[str] = []
    if rule.engine == "geometric":
        sizes = {t.id: (t.width, t.height) for t in rule.types}
        for t in rule.types:
            opts = rule.images.get(t.id, ())
            if not opts:
                diags.append(f"{t.id}: no image options")
                continue
            const = sum((o.probability.const for o in opts), _ZERO)
            coeff = sum((o.probability.coeff for o in opts), _ZERO)
            if const != 1 or coeff != 0:
                diags.append(f"{t.id}: probabilities sum to {Prob(const, coeff)}")
            target = rule.expansion * t.area
            for k, opt in enumerate(opts):
                pr = opt.probability
                lo, hi = pr.const, pr.const + pr.coeff  # values at p=0 and p=1
                if min(lo, hi) < 0 or max(lo, hi) > 1:
                    diags.append(f"{t.id} option {k}: probability {pr} outside [0, 1]")
                for b in opt.placements:
                    size = sizes.get(b.type_id)
                    if size is None:
                        diags.append(f"{t.id} option {k}: unknown type '{b.type_id}'")
                    elif size != (b.width, b.height):
                        diags.append(f"{t.id} option {k}: brick {b.type_id}"
                                     f"@({b.x},{b.y}) has size {b.width}x{b.height},"
                                     f" rule says {size[0]}x{size[1]}")
                area = sum(b.width * b.height for b in opt.placements)
                if area != target:
                    diags.append(f"{t.id} option {k}: area {area} != {target}")
                for (i, a), (j, b) in combinations(enumerate(opt.placements), 2):
                    if _bricks_overlap(a, b):
                        diags.append(f"{t.id} option {k}: placements"
                                     f" {i} and {j} overlap")
    else:
        for t in rule.types:
            if t.height != 1:
                diags.append(f"{t.id}: block letters must have height 1, got {t.height}")
            img = rule.blocks.get(t.id)
            if img is None:
                diags.append(f"{t.id}: no block image")
                continue
            if len(img) != rule.lambda2:
                diags.append(f"{t.id}: block image has {len(img)} rows,"
                             f" expected {rule.lambda2}")
            for r, row in enumerate(img):
                if len(row) != rule.lambda1:
                    diags.append(f"{t.id}: block row {r} has {len(row)} letters,"
                                 f" expected {rule.lambda1}")
    return diags


# ---------------------------------------------------------------------------
# DSL
#
#   rule <name>
#   engine geometric | engine block skew <int>
#   expansion <lambda1> <lambda2>
#   brick <id> <width> <height> [color #rrggbb]
#   image <id> [prob <num>[/<den>] | prob p | prob 1-p] { <id> @ <dx> <dy> ; ... }
#   block <id> { row: <id> <id> ... ; row: ... }     (rows bottom-to-top)
#   end
#
# One statement per line; '#' starts a comment.

_TOKEN_RE = re.compile(r"[{};@]|[^\s{};@]+")
_COLOR_RE = re.compile(r"#[0-9a-fA-F]{6}")


def _strip_comment(line: str) -> str:
    # '#' opens a comment at line start or when followed by whitespace/EOL;
    # '#rrggbb' color values survive
    i = line.find("#")
    while i != -1:
        at_start = line[:i].strip() == ""
        spaced = i + 1 >= len(line) or line[i + 1].isspace()
        if at_start or spaced:
            return line[:i]
        i = line.find("#", i + 1)
    return line


def _tokenize(line: str):
    """Tokens with 1-based column positions; {, }, ; and @ are single tokens."""
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(_strip_comment(line))]


class _Line:
    def __init__(self, lineno, tokens):
        self.lineno = lineno
        self.tokens = tokens
        self.pos = 0

    def error(self, message):
        col = self.tokens[self.pos - 1][1] if 0 < self.pos <= len(self.tokens) else None
        raise RuleSyntaxError(message, self.lineno, col)

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, what="token"):
        if self.pos >= len(self.tokens):
            raise RuleSyntaxError(f"expected {what}", self.lineno,
                                  self.tokens[-1][1] if self.tokens else None)
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def take_int(self, what="integer"):
        tok = self.take(what)
        try:
            return int(tok)
        except ValueError:
            self.error(f"expected {what}, got '{tok}'")

    def expect(self, literal):
        tok = self.take(f"'{literal}'")
        if tok != literal:
            self.error(f"expected '{literal}', got '{tok}'")

    def done(self):
        if self.pos < len(self.tokens):
            self.pos += 1
            self.error(f"trailing token '{self.tokens[self.pos - 1][0]}'")


def _parse_prob(ln: _Line) -> Prob:
    tok = ln.take("probability")
    if tok == "p":
        return Prob(_ZERO, _ONE)
    if tok == "1-p":
        return Prob(_ONE, Fraction(-1))
    try:
        return Prob(Fraction(tok))
    except (ValueError, ZeroDivisionError):
        ln.error(f"bad probability '{tok}' (want num/den, p, or 1-p)")


def parse_rule(text: str) -> SubstitutionRule:
    """Parse rule DSL source into a validated SubstitutionRule.

    Syntax and structural errors raise RuleSyntaxError; semantic
    diagnostics (see validate_rule) raise RuleValidationError, whose
    diagnostics attribute holds the full list.
    """
    name = None
    engine = None
    skew = 0
    lambda1 = lambda2 = None
    types: List[BrickType] = []
    # per type, its options' probabilities and (type_id, dx, dy) references;
    # bricks once every type is declared
    images: Dict[str, List[Tuple[Prob, List[Tuple[str, int, int]]]]] = {}
    blocks: Dict[str, Tuple[Tuple[str, ...], ...]] = {}
    ended = False
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        last_line = lineno
        ln = _Line(lineno, tokens)
        if ended:
            ln.take()
            ln.error("statement after 'end'")
        head = ln.take("statement")

        if head == "rule":
            if name is not None:
                ln.error("duplicate 'rule' statement")
            name = ln.take("rule name")
            ln.done()
        elif head == "engine":
            kind = ln.take("engine kind")
            if kind == "geometric":
                engine = "geometric"
            elif kind == "block":
                engine = "block"
                ln.expect("skew")
                skew = ln.take_int("skew value")
            else:
                ln.error(f"unknown engine '{kind}'")
            ln.done()
        elif head == "expansion":
            lambda1 = ln.take_int("lambda1")
            lambda2 = ln.take_int("lambda2")
            if lambda1 < 1 or lambda2 < 1:
                ln.error(f"non-positive expansion {lambda1} {lambda2}")
            ln.done()
        elif head == "brick":
            tid = ln.take("brick id")
            if any(t.id == tid for t in types):
                ln.error(f"duplicate type id '{tid}'")
            width = ln.take_int("width")
            height = ln.take_int("height")
            if width < 1 or height < 1:
                ln.error(f"non-positive dimension {width}x{height} for '{tid}'")
            color = None
            if ln.peek() == "color":
                ln.take()
                color = ln.take("color value")
                if not _COLOR_RE.fullmatch(color):
                    ln.error(f"bad color '{color}' (want #rrggbb)")
            ln.done()
            if color is None:
                color = PALETTE[len(types) % len(PALETTE)]
            types.append(BrickType(tid, width, height, color))
        elif head == "image":
            tid = ln.take("type id")
            prob = Prob(_ONE)
            if ln.peek() == "prob":
                ln.take()
                prob = _parse_prob(ln)
            ln.expect("{")
            placements: List[Tuple[str, int, int]] = []
            while True:
                tok = ln.take("placement or '}'")
                if tok == "}":
                    break
                ref = tok
                ln.expect("@")
                dx = ln.take_int("dx")
                dy = ln.take_int("dy")
                placements.append((ref, dx, dy))
                tok = ln.take("';' or '}'")
                if tok == "}":
                    break
                if tok != ";":
                    ln.error(f"expected ';' or '}}', got '{tok}'")
            ln.done()
            images.setdefault(tid, []).append((prob, placements))
        elif head == "block":
            tid = ln.take("letter id")
            if tid in blocks:
                ln.error(f"duplicate block image for '{tid}'")
            ln.expect("{")
            rows: List[Tuple[str, ...]] = []
            row: List[str] = []
            while True:
                tok = ln.take("row or '}'")
                if tok not in ("}", ";", "row:"):
                    row.append(tok)
                    continue
                if row:
                    rows.append(tuple(row))
                    row = []
                if tok == "}":
                    break
            ln.done()
            if not rows:
                ln.error(f"empty block image for '{tid}'")
            blocks[tid] = tuple(rows)
        elif head == "end":
            ln.done()
            ended = True
        else:
            ln.error(f"unknown statement '{head}'")

    def fail(msg):
        raise RuleSyntaxError(msg, last_line or 1)

    if name is None:
        fail("missing 'rule' statement")
    if not ended:
        fail("missing 'end'")
    if engine is None:
        fail("missing 'engine' statement")
    if lambda1 is None:
        fail("missing 'expansion' statement")
    if not types:
        fail("no brick types declared")

    sizes = {t.id: (t.width, t.height) for t in types}
    if engine == "geometric":
        if blocks:
            fail("block statements not allowed in a geometric rule")
        for tid, opts in images.items():
            if tid not in sizes:
                fail(f"image for unknown type '{tid}'")
            for k, (prob, refs) in enumerate(opts):
                for ref, _, _ in refs:
                    if ref not in sizes:
                        fail(f"unknown type reference '{ref}' in image of '{tid}'")
                opts[k] = ImageOption(prob, tuple(Brick(ref, dx, dy, *sizes[ref])
                                                  for ref, dx, dy in refs))
        for t in types:
            if t.id not in images:
                fail(f"no image declared for '{t.id}'")
    else:
        if images:
            fail("image statements not allowed in a block rule")
        for tid, img in blocks.items():
            if tid not in sizes:
                fail(f"block image for unknown letter '{tid}'")
            for row in img:
                for ref in row:
                    if ref not in sizes:
                        fail(f"unknown letter reference '{ref}' in block of '{tid}'")
        for t in types:
            if t.id not in blocks:
                fail(f"no block image declared for '{t.id}'")

    rule = SubstitutionRule(name, engine, lambda1, lambda2, skew, tuple(types),
                            {tid: tuple(opts) for tid, opts in images.items()},
                            dict(blocks))
    diags = validate_rule(rule)
    if diags:
        raise RuleValidationError(diags)
    return rule


def serialize_rule(rule: SubstitutionRule) -> str:
    """Canonical DSL text for a rule; parse_rule(serialize_rule(r)) == r."""
    out = [f"rule {rule.name}"]
    if rule.engine == "block":
        out.append(f"engine block skew {rule.skew}")
    else:
        out.append("engine geometric")
    out.append(f"expansion {rule.lambda1} {rule.lambda2}")
    for t in rule.types:
        out.append(f"brick {t.id} {t.width} {t.height} color {t.color}")
    if rule.engine == "geometric":
        for t in rule.types:
            opts = rule.images[t.id]
            for opt in opts:
                body = " ; ".join(f"{b.type_id} @ {b.x} {b.y}"
                                  for b in opt.placements)
                if len(opts) == 1 and opt.probability == Prob(_ONE):
                    out.append(f"image {t.id} {{ {body} }}")
                else:
                    out.append(f"image {t.id} prob {opt.probability} {{ {body} }}")
    else:
        for t in rule.types:
            body = " ; ".join("row: " + " ".join(row) for row in rule.blocks[t.id])
            out.append(f"block {t.id} {{ {body} }}")
    out.append("end")
    return "\n".join(out) + "\n"
