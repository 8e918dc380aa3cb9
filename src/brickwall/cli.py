"""Command-line interface.

Subcommands: generate, analyze, validate, spectrum, count, sample.
Exit codes: 0 ok, 1 rule diagnostics (invalid rule, overlap), 2 usage and
I/O errors (unknown rule or brick, malformed flags, an --rng-seed outside
[0, 2**64) for any rule, a count -n too large to print, unreadable
--rule, unwritable --out, stdout closed by its reader).  Error paths never
write to --out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .builtins import BUILTIN_SOURCES
from .generate import _text_slices, generate_pattern
from .joints import analyze
from .rng import check_rng_seed
from .rules import RuleError, RuleSyntaxError, RuleValidationError, parse_rule
from .spectral import brick_frequencies, count_bricks, matrix, pf_eigenvalue, \
    realization_factors
from .stats import sample_vmax
from .svg import _svg_slices


def _load_rule(ref: str):
    """Rule by builtin name or DSL file path, parsed and validated."""
    if ref in BUILTIN_SOURCES:
        source = BUILTIN_SOURCES[ref]
    elif not os.path.exists(ref):
        raise ValueError(f"unknown rule '{ref}' (not a builtin, not a file)")
    else:
        try:
            with open(ref, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read rule file '{ref}': {e.strerror}") from None
    return parse_rule(source)


def _parse_p(p_arg: str) -> Fraction:
    try:
        p = Fraction(p_arg)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad -p value '{p_arg}' (want num/den)") from None
    if not 0 <= p <= 1:
        raise ValueError(f"-p {p} outside [0, 1]")
    return p


def _bind_p(rule, p_arg):
    if rule.is_parametric:
        if p_arg is None:
            raise ValueError(f"rule '{rule.name}' is parametric; -p is required")
        return rule.bind(_parse_p(p_arg))
    if p_arg is not None:
        raise ValueError(f"rule '{rule.name}' has no parameter; drop -p")
    return rule


def _check_seed(rule, seed_type):
    if seed_type not in rule.type_ids:
        raise ValueError(f"unknown seed brick '{seed_type}' in rule"
                         f" '{rule.name}' (have: {', '.join(rule.type_ids)})")


def _prepared(args):
    rule = _bind_p(_load_rule(args.rule), args.p)
    _check_seed(rule, args.seed_brick)
    if args.rng_seed is not None:  # one range for every rule, drawn from or not
        check_rng_seed(args.rng_seed)
    elif rule.is_random:
        raise ValueError(f"rule '{rule.name}' is random; --rng-seed is required")
    return rule


def cmd_generate(args) -> int:
    rule = _prepared(args)
    if not args.out.endswith((".svg", ".txt")):
        raise ValueError(f"--out must end in .svg or .txt, got '{args.out}'")
    pattern = generate_pattern(rule, args.seed_brick, args.n, args.rng_seed)
    slices = (_svg_slices(pattern, rule) if args.out.endswith(".svg")
              else _text_slices(pattern))
    header = next(slices)  # the SVG header's checks run before --out opens
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header)
            fh.writelines(slices)  # one slice in memory at a time
    except OSError as e:
        raise ValueError(f"cannot write '{args.out}': {e.strerror}") from None
    print(f"wrote {args.out} ({len(pattern)} bricks)")
    return 0


# one joint of analyze --json, as json.dumps(doc, indent=2) writes it
_JOINT_JSON = '    {\n      "x": %d,\n      "y0": %d,\n      "y1": %d\n    }'


def cmd_analyze(args) -> int:
    rule = _prepared(args)
    report, verdict = analyze(rule, args.seed_brick, args.n, args.rng_seed)
    if args.json:
        doc = report._replace(joints=()).to_json()
        if verdict is not None:
            doc["prop2"] = verdict.to_json()
        # the bytes of json.dumps with the report's joints: its indented
        # encoder is pure Python, so the joints, the part that grows with the
        # wall, take one %-format each; only v_max, an int, comes before them
        head, empty, tail = json.dumps(doc, indent=2).partition('"joints": []')
        joints = ",\n".join(map(_JOINT_JSON.__mod__, report.joints))
        print(head + (f'"joints": [\n{joints}\n  ]' if joints else empty) + tail)
        return 0
    print(f"rule {rule.name}, seed {args.seed_brick}, n={args.n}:"
          f" {len(report.pattern)} bricks")
    print(f"v_max: {report.v_max}")
    print(f"joints: {len(report.joints)}")
    crossing = [tid for tid, c in report.crossings.items() if c]
    print("crossings: " + (", ".join(crossing) if crossing else "none"))
    if verdict is not None and verdict.bound is not None:
        if verdict.hypothesis_holds:
            status = "respected" if verdict.bound_respected else "VIOLATED"
            print(f"joint bound {verdict.bound}: measured {verdict.measured_max},"
                  f" {status}")
        else:
            print(f"joint bound {verdict.bound}: not applicable"
                  f" (an image has a crossing); measured {verdict.measured_max}")
    return 0


def cmd_validate(args) -> int:
    try:
        rule = _load_rule(args.rule)
    except RuleValidationError as e:
        print("\n".join(e.diagnostics))
        return 1
    except RuleSyntaxError as e:
        print(f"error: {e}")
        return 1
    certificate = rule.overlap_certificate if rule.engine == "geometric" else None
    if certificate is not None and certificate.verdict == "overlap":
        print(certificate.message)
        return 1
    print(f"ok: rule '{rule.name}' ({rule.engine}, {len(rule.types)} types)")
    if certificate is not None and certificate.verdict == "undecided":
        print(f"note: {certificate.message}")
    return 0


def cmd_spectrum(args) -> int:
    rule = _bind_p(_load_rule(args.rule), args.p)
    M = matrix(rule)
    try:
        freqs, lam = brick_frequencies(M), pf_eigenvalue(M)
    except RuleError as e:
        raise RuleError(f"rule '{rule.name}': {e}") from None
    doc = {
        "pf_eigenvalue": lam,
        "expected": float(rule.expansion),
        "frequencies": {tid: f for tid, f in zip(M.type_order, freqs)},
        "matrix": [[str(e) for e in row] for row in M.entries],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _digit_limit():
    """The interpreter's int-to-str digit limit and whose it is; a lifted
    limit (0) reads as Python's default."""
    limit = sys.get_int_max_str_digits()
    if limit:
        return limit, "the interpreter's"
    return sys.int_info.default_max_str_digits, "Python's default"


def _exact_str(factors) -> str:
    """prod(p ** e) in decimal, or as 'p^e * ...' when the decimal has more
    digits than _digit_limit() allows; the exponents tell, so a product far
    over the limit is never built."""
    limit, _ = _digit_limit()
    log10 = sum(e * math.log10(p) for p, e in factors.items())
    if log10 < limit + 1:
        value = math.prod(p ** e for p, e in factors.items())
        if value < 10 ** limit:  # else just over the limit
            return str(value)
    return " * ".join(f"{p}^{e}" for p, e in sorted(factors.items()))


def _count_str(rule, seed_type, n) -> str:
    """count_bricks in decimal, or exit 2 when it is too long to print.  By
    the area identity a level-n wall has at least seed area * (lambda1 *
    lambda2)^n / largest brick area bricks: over the limit, no counting."""
    count_bricks(rule, seed_type, 0)  # an uncountable rule exits 1 at any -n
    limit, source = _digit_limit()
    too_long = ValueError(f"-n {n}: the brick count has more than {limit}"
                          f" digits ({source} int-to-str limit)")
    largest = max(t.area for t in rule.types)
    if (math.log10(rule.get_type(seed_type).area / largest)
            + n * math.log10(rule.expansion)) >= limit:
        raise too_long
    count = count_bricks(rule, seed_type, n)
    if count >= 10 ** limit:  # the bound fell short of the count
        raise too_long
    return str(count)


def cmd_count(args) -> int:
    rule = _load_rule(args.rule)
    _check_seed(rule, args.seed_brick)
    bricks = _count_str(rule, args.seed_brick, args.n)
    realizations = _exact_str(realization_factors(rule, args.seed_brick, args.n))
    if args.json:
        print(json.dumps({"bricks": bricks, "realizations": realizations},
                         indent=2))
    else:
        print(f"bricks: {bricks}")
        print(f"realizations: {realizations}")
    return 0


def cmd_sample(args) -> int:
    rule = _load_rule(args.rule)
    _check_seed(rule, args.seed_brick)
    if not rule.is_parametric:
        raise ValueError(f"rule '{rule.name}' has no parameter p; sample needs one")
    p = _parse_p(args.p)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    stats = sample_vmax(rule, args.seed_brick, args.n, p,
                        trials=args.trials, base_seed=args.rng_seed)
    print(json.dumps(stats.to_json(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brickwall",
        description="Generate and analyze brick wall patterns from"
                    " two-dimensional substitutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule(p):
        p.add_argument("--rule", required=True,
                       help="builtin rule name or path to a rule DSL file")

    def add_common(p):
        add_rule(p)
        p.add_argument("--seed-brick", required=True, help="seed brick type id")
        p.add_argument("-n", type=int, required=True, help="iteration depth")
        p.add_argument("--rng-seed", type=int, default=None,
                       help="64-bit seed for random rules")
        p.add_argument("-p", default=None, metavar="NUM/DEN",
                       help="value for the rule parameter p")

    p = sub.add_parser("generate", help="generate a pattern into an SVG or text file")
    add_common(p)
    p.add_argument("--out", required=True, help="output file (.svg or .txt)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="joint report for a generated pattern")
    add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="check a rule file, print diagnostics")
    add_rule(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="substitution matrix spectrum report")
    add_rule(p)
    p.add_argument("-p", default=None, metavar="NUM/DEN",
                   help="value for the rule parameter p")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("count", help="exact brick and realization counts")
    add_rule(p)
    p.add_argument("--seed-brick", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sample", help="Monte-Carlo v_max statistics for a"
                                      " parametric random rule")
    add_rule(p)
    p.add_argument("--seed-brick", required=True)
    p.add_argument("-n", type=int, default=4)
    p.add_argument("-p", required=True, metavar="NUM/DEN")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--rng-seed", type=int, default=0, help="base seed for trials")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows up here, not at exit
        return code
    except BrokenPipeError:  # no reader: the SIGPIPE recipe of the Python docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except RuleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
