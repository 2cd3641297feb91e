"""Command line interface.

Subcommands:

  q NU [--basis p|x] [--format text|json]
      Print the multi-index Schur Q-function of an integer vector.

  qa ALPHA --params SEQ [--basis p|x] [--format text|json]
      Print the multiparameter function of a positive integer vector.

  hierarchy --max-weight W [--format text|json]
      List the generated bilinear equations up to weight W.

  check-bilinear --tau SPEC
      Verify the fermionic bilinear identity for a tau function.

  check-bkp --tau SPEC [--max-weight W]
      Verify the generated hierarchy equations for a tau function.

  oracle-compare [--max-sum K] [--nvars N] [--points P] [--seed S] [--params SEQ]
      Compare operator constructions against the brute-force oracle at
      P random rational points, 1 <= P <= MAX_POINTS (100).

Tau functions are given as 'q:2,1', 'qa:2,1@0,1,2', 'qa:2,1@factorial',
or 'json:FILE'.  Parameter sequences are comma-separated rationals
starting with 0, or the families 'zero' and 'factorial'.  An integer is
written -?D+ and a rational -?D+, -?D+/D+ (D+ nonzero) or -?D+.D+, D an
ASCII digit; spaces around the commas of a list are allowed.

Exit status: 0 success, 1 a verification failed, 2 usage error (including
an input whose computation would pass the ring's exponent bound), 3
internal error (an unexpected exception, reported on stderr).  The
environment variable QLAB_MAX_WEIGHT caps the accepted --max-weight and
--max-sum values, the weight of a q/qa index vector (the sum of the
absolute values of its entries), its length (an entry of zero adds no
weight but one level of recursion) and the weight of a json: tau.  Unset,
the --max-weight of hierarchy and check-bkp is capped at
DEFAULT_MAX_HIERARCHY_WEIGHT (32), since generating the hierarchy costs
about 1.7-1.8 times as much for each 2 of weight, and every other cap is
DEFAULT_MAX_WEIGHT (64).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from .fermion import is_bkp_tau_bilinear, q_lambda
from .hirota import _equations, bkp_check, equation_listing, p_to_x, x_to_p
from .multiparam import multiparam_q
from .oracle import MAX_VARS, eval_powersums, q_sym_at, qa_sym_at
from .ring import Poly, _parse_int, strict_partitions
from .serialize import poly_from_json_dict, poly_to_json_dict
from .series import ParamSeq

# The most random points one oracle-compare run evaluates.
MAX_POINTS = 100

# The weight caps when QLAB_MAX_WEIGHT is unset: the --max-weight of the
# hierarchy commands, and every other weight.
DEFAULT_MAX_HIERARCHY_WEIGHT = 32
DEFAULT_MAX_WEIGHT = 64


def _parse_vector(text: str, positive: bool = False) -> tuple[int, ...]:
    try:
        vec = tuple(_parse_int(t.strip()) for t in text.split(","))
    except ValueError:
        raise ValueError(f"malformed index vector {text!r}") from None
    if positive and any(v <= 0 for v in vec):
        raise ValueError(f"index vector must have positive entries: {text!r}")
    _weight_cap(sum(map(abs, vec)))
    _weight_cap(len(vec), what="index vector length")
    return vec


def _parse_params(text: str, needed_max_index: int) -> ParamSeq:
    if text == "zero":
        return ParamSeq.zeros(max(needed_max_index, 0))
    if text == "factorial":
        return ParamSeq.factorial(max(needed_max_index, 0))
    a = ParamSeq.parse(text)
    a.prefix(needed_max_index)  # rejects a sequence too short for the request
    return a


def _multiparam(index: str, params: str) -> Poly:
    alpha = _parse_vector(index, positive=True)
    return multiparam_q(alpha, _parse_params(params, max(alpha) - 1))


def _load_tau(spec: str) -> Poly:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed tau spec {spec!r}")
    if kind == "q":
        return q_lambda(_parse_vector(rest))
    if kind == "qa":
        body, sep2, params = rest.partition("@")
        if not sep2:
            raise ValueError(f"tau spec {spec!r} is missing '@params'")
        return _multiparam(body, params)
    if kind == "json":
        with open(rest, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"tau file {rest!r} is nested too deeply") from None
        poly = poly_from_json_dict(data)
        if poly.family not in ("p", "x"):
            raise ValueError("tau polynomial must use vars 'p' or 'x'")
        _weight_cap(poly.weight())
        return x_to_p(poly) if poly.family == "x" else poly
    raise ValueError(f"unknown tau spec kind {kind!r}")


def _max_weight(w: int) -> int:
    if w < 2:
        raise ValueError("--max-weight must be at least 2")
    _weight_cap(w, DEFAULT_MAX_HIERARCHY_WEIGHT)
    return w


def _weight_cap(requested: int, default: int = DEFAULT_MAX_WEIGHT, what: str = "weight") -> None:
    text = os.environ.get("QLAB_MAX_WEIGHT", str(default))
    try:
        cap = _parse_int(text)
    except ValueError:
        raise ValueError(f"invalid QLAB_MAX_WEIGHT value {text!r}") from None
    if requested > cap:
        raise ValueError(f"{what} {requested} exceeds the QLAB_MAX_WEIGHT cap {cap}")


def _emit_poly(poly: Poly, args) -> int:
    if args.basis == "x":
        poly = p_to_x(poly)
    if args.format == "json":
        print(json.dumps(poly_to_json_dict(poly)))
    else:
        print(poly.text())
    return 0


def _cmd_q(args) -> int:
    return _emit_poly(q_lambda(_parse_vector(args.index)), args)


def _cmd_qa(args) -> int:
    return _emit_poly(_multiparam(args.index, args.params), args)


def _cmd_hierarchy(args) -> int:
    w = _max_weight(args.max_weight)
    if args.format == "json":
        payload = {
            "max_weight": w,
            "equations": [
                {"y": {str(n): e for n, e in mono}, "coefficient": poly_to_json_dict(p)}
                for mono, p in _equations(w)
            ],
        }
        print(json.dumps(payload))
    else:
        for line in equation_listing(w):
            print(line)
    return 0


def _cmd_check_bilinear(args) -> int:
    tau = _load_tau(args.tau)
    ok, discrepancy = is_bkp_tau_bilinear(tau)
    if ok:
        print("PASS: bilinear identity holds")
        return 0
    print("FAIL: bilinear identity violated")
    # Written piece by piece, so the text of a large discrepancy (tens of
    # megabytes at weight 33) is never held whole.
    out = sys.stdout
    out.write("discrepancy: ")
    out.writelines(discrepancy._text_pieces())
    out.write("\n")
    return 1


def _cmd_check_bkp(args) -> int:
    w = _max_weight(args.max_weight)
    report = bkp_check(_load_tau(args.tau), w)
    for name in report.trivial:
        print(f"{name} : trivial")
    for name, residual in report.failures.items():
        print(f"{name} : FAIL residual {residual.text()}")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: {report.checked} equations checked, "
        f"{len(report.trivial)} trivial, {len(report.failures)} failed"
    )
    return 0 if report.passed else 1


def _random_point(rng: random.Random, n_vars: int) -> list[Fraction]:
    return [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n_vars)
    ]


def _cmd_oracle_compare(args) -> int:
    if args.nvars > MAX_VARS:
        raise ValueError(f"--nvars must be at most {MAX_VARS}")
    if args.nvars < 1:
        raise ValueError("--nvars must be positive")
    if args.max_sum < 1:
        raise ValueError("--max-sum must be positive")
    if args.points < 1:
        raise ValueError("--points must be positive")
    if args.points > MAX_POINTS:
        raise ValueError(f"--points must be at most {MAX_POINTS}")
    _weight_cap(args.max_sum)
    rng = random.Random(args.seed)
    points = [_random_point(rng, args.nvars) for _ in range(args.points)]
    kinds = [("q", q_lambda, q_sym_at)]
    if args.params:
        a = _parse_params(args.params, args.max_sum - 1)
        kinds.append(("qa", lambda lam: multiparam_q(lam, a),
                      lambda lam, xs: qa_sym_at(lam, a, xs)))
    failures = 0
    for lam in strict_partitions(args.max_sum)[1:]:
        name = ",".join(map(str, lam))
        for kind, build, sym_at in kinds:
            f = build(lam)
            bad = 0
            for xs in points:
                lhs = sym_at(lam, xs)
                rhs = eval_powersums(f, xs)
                if lhs != rhs:
                    bad += 1
                    print(f"MISMATCH {kind} {name}: {lhs} != {rhs}")
            failures += bad
            if not bad:
                print(f"ok {kind} {name}")
    if failures:
        print(f"FAIL: {failures} mismatches")
        return 1
    print("PASS: oracle agrees")
    return 0


def _integer(text: str) -> int:
    """An integer option's value, read by ring._parse_int."""
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Exact computations with Schur Q-functions and the "
        "associated bilinear hierarchy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_options(p):
        p.add_argument("--basis", choices=("p", "x"), default="p",
                       help="variable basis for printed polynomials")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_q = sub.add_parser("q", help="multi-index Schur Q-function")
    p_q.add_argument("index", help="comma-separated integer vector, e.g. 2,1")
    add_output_options(p_q)
    p_q.set_defaults(func=_cmd_q)

    p_qa = sub.add_parser("qa", help="multiparameter Schur Q-function")
    p_qa.add_argument("index", help="comma-separated positive vector, e.g. 2,1")
    p_qa.add_argument("--params", required=True,
                      help="parameter sequence: '0,1,2', 'zero' or 'factorial'")
    add_output_options(p_qa)
    p_qa.set_defaults(func=_cmd_qa)

    p_h = sub.add_parser("hierarchy", help="list generated bilinear equations")
    p_h.add_argument("--max-weight", type=_integer, required=True)
    p_h.add_argument("--format", choices=("text", "json"), default="text")
    p_h.set_defaults(func=_cmd_hierarchy)

    p_cb = sub.add_parser("check-bilinear",
                          help="verify the fermionic bilinear identity")
    p_cb.add_argument("--tau", required=True,
                      help="tau spec: q:2,1 | qa:2,1@0,1,2 | json:FILE")
    p_cb.set_defaults(func=_cmd_check_bilinear)

    p_ck = sub.add_parser("check-bkp",
                          help="verify the generated hierarchy equations")
    p_ck.add_argument("--tau", required=True,
                      help="tau spec: q:2,1 | qa:2,1@0,1,2 | json:FILE")
    p_ck.add_argument("--max-weight", type=_integer, default=10)
    p_ck.set_defaults(func=_cmd_check_bkp)

    p_oc = sub.add_parser("oracle-compare",
                          help="compare against the brute-force oracle")
    p_oc.add_argument("--max-sum", type=_integer, default=5)
    p_oc.add_argument("--nvars", type=_integer, default=4)
    p_oc.add_argument("--points", type=_integer, default=2,
                      help=f"number of random points, at most {MAX_POINTS}")
    p_oc.add_argument("--seed", type=_integer, default=20260818)
    p_oc.add_argument("--params", default=None)
    p_oc.set_defaults(func=_cmd_oracle_compare)

    return parser


# An index vector whose first entry is negative, such as -3,2.
_NEGATIVE_VECTOR = re.compile(r"-[0-9]+(\s*,\s*-?[0-9]+)*")


def _vectors_last(argv: list[str]) -> list[str]:
    """argv with a q/qa index vector that starts with a negative entry
    moved behind '--'.

    argparse reads an argument such as -3,2 as an unknown option, so
    `qlab q -3,2` would stop with a missing index.  A vector that follows
    another option's name is that option's value and stays in place, as
    does everything once argv already holds '--'.
    """
    if argv[:1] not in (["q"], ["qa"]) or "--" in argv:
        return argv
    moved = [i for i in range(1, len(argv))
             if _NEGATIVE_VECTOR.fullmatch(argv[i]) and not argv[i - 1].startswith("-")]
    if not moved:
        return argv
    kept = [a for i, a in enumerate(argv) if i not in moved]
    return kept + ["--"] + [argv[i] for i in moved]


def main(argv=None) -> int:
    parser = build_parser()
    argv = _vectors_last(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
