"""Command-line interface: evaluate, solve, chain, check, and sweep.

Exit codes: 0 = success (or a check that found nothing), 1 = a check ran and
found a refutation or violation (the witness is on stdout), 2 = usage or
input error (message on stderr), among them a sampled check of a function
undefined on every set or pair it drew, 141 = the reader of stdout closed it
before the report was written (128 + SIGPIPE, as a shell reports a process
that signal ended). Every report starts with a "config" header echoing the
effective values of the options the verb takes, so runs are
reproducible: tolerance, trial count and seed for check-monotone and
check-order, those and the matrix size for ka-check, and nothing ({}) for
the other verbs. All numbers are printed with 17 significant digits.

`main` may run many times in one process. The parser is built once, at
import, and `main` hands the arguments after a verb straight to that verb's
own parser, so a call runs one parse; the full parser runs only when the
first argument names no verb (help and usage errors). Each verb's handler
returns only its report body and exit code, to which `main` prepends the
config header. The matrix verbs validate their first matrix as an SpdMatrix
and prove the second positive definite from the pair's relative spectrum,
as the solvers do, so a matrix is decomposed only where its spectrum is
used; a validation error names its matrix (A, B, X or Y).
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import jsonio
from .errors import OpmeansError, UsageError
from .funcexpr import parse_function
from .hdensity import SELF_ADJOINT, SYMMETRIC, HDensity
from .means import (CLASS_BOTH, CLASS_SELF_ADJOINT, CLASS_SYMMETRIC,
                    MeanDescriptor, arithmetic_pair, geometric_pair, heinz_pair,
                    heron_pair, mean_from_spectrum, parse_mean_descriptor,
                    representing_function)
from .monocheck import MonoConfig, is_operator_monotone_sampled, ka_condition_check
from .orders import order_leq_sa, order_leq_sym, phi_profile
from .solvers import (build_monotone_chain, solve_geom_heinz_matrix,
                      solve_heinz_heron_matrix, solve_matrix_pair)
from .spd import (SpdMatrix, _spd_relative_spectrum, as_spd, matrix_from_json_dict,
                  matrix_to_json_dict)

DEFAULT_TOL = 1e-8
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 42
DEFAULT_N = 3
_ECHOED = ("tol", "trials", "seed", "n")


def _config_echo(args) -> dict:
    return {key: getattr(args, key) for key in _ECHOED if hasattr(args, key)}


def _load_matrix(path: str) -> np.ndarray:
    return matrix_from_json_dict(jsonio.load_file(path))


def _load_spd(path: str, name: str) -> SpdMatrix:
    """The first matrix of a pair, validated before the second file is read."""
    return as_spd(_load_matrix(path), name)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive real, got {text!r}")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _parse_float_list(text: str) -> List[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"bad float list {text!r}") from None
    if not values:
        raise UsageError("no evaluation points given")
    return values


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad grid spec {spec!r}") from None
    if count < 0:
        raise UsageError("grid count must be non-negative")
    return np.linspace(lo, hi, count) if count else np.empty(0)


def _cmd_eval_mean(args) -> tuple:
    descriptor = parse_mean_descriptor(args.mean)
    a = _load_spd(args.a, "A")
    spectrum = _spd_relative_spectrum(a, _load_matrix(args.b), ("A", "B"))[2]
    value = mean_from_spectrum(spectrum, representing_function(descriptor))
    return {"mean": descriptor.describe(), "value": matrix_to_json_dict(value)}, 0


def _cmd_rep_eval(args) -> tuple:
    if (args.density is None) == (args.constant is None):
        raise UsageError("pass exactly one of --density or --constant")
    if args.density is not None:
        h = HDensity.from_json_dict(jsonio.load_file(args.density))
    else:
        cls = SYMMETRIC if args.domain_class == "sym" else SELF_ADJOINT
        h = HDensity.constant(args.constant, cls)
    points = _parse_float_list(args.t)
    value, derivative = representing_function(MeanDescriptor.from_h_density(h)).jet(
        np.array(points))
    return {"class": h.domain_class, "t": points,
            "value": value.tolist(), "derivative": derivative.tolist()}, 0


def _cmd_solve_pair(args) -> tuple:
    descriptor = parse_mean_descriptor(args.mean)
    witness = solve_matrix_pair(descriptor, _load_spd(args.x, "X"), _load_matrix(args.y))
    return {"mean": descriptor.describe(), **witness.to_json_dict()}, 0


def _cmd_solve_heinz_heron(args) -> tuple:
    solver = (solve_heinz_heron_matrix if args.targets == "heinz-heron"
              else solve_geom_heinz_matrix)
    witness = solver(args.s, _load_spd(args.x, "X"), _load_matrix(args.y))
    return {"s": float(args.s), "targets": args.targets,
            **witness.to_json_dict()}, 0


def _cmd_chain(args) -> tuple:
    descriptor = parse_mean_descriptor(args.mean)
    witness = build_monotone_chain(descriptor, _load_spd(args.x, "X"),
                                   _load_matrix(args.y), gamma0=args.gamma0)
    return {"mean": descriptor.describe(), **witness.to_json_dict()}, 0


def _cmd_check_monotone(args) -> tuple:
    fn = parse_function(args.fn)
    config = MonoConfig(trials=args.trials, seed=args.seed, tol=args.tol)
    verdict = is_operator_monotone_sampled(fn, None, config)
    return {"fn": fn.source, **verdict.to_json_dict()}, (1 if verdict.refuted else 0)


def _infer_order_class(f, g) -> str:
    classes = {f.symmetry_class, g.symmetry_class}
    if classes <= {CLASS_SYMMETRIC, CLASS_BOTH}:
        return "sym"
    if classes <= {CLASS_SELF_ADJOINT, CLASS_BOTH}:
        return "sa"
    raise UsageError("the two means live in different symmetry classes; no common order")


def _cmd_check_order(args) -> tuple:
    df, dg = parse_mean_descriptor(args.f), parse_mean_descriptor(args.g)
    ff, gg = representing_function(df), representing_function(dg)
    order_class = args.order_class
    if order_class == "auto":
        order_class = _infer_order_class(ff, gg)
    config = MonoConfig(trials=args.trials, seed=args.seed, tol=args.tol)
    verdict = (order_leq_sym if order_class == "sym" else order_leq_sa)(ff, gg, config)
    return ({"f": df.describe(), "g": dg.describe(), "order_class": order_class,
             **verdict.to_json_dict()}, (1 if verdict.refuted else 0))


def _cmd_ka_check(args) -> tuple:
    sigma, tau = parse_mean_descriptor(args.sigma), parse_mean_descriptor(args.tau)
    report = ka_condition_check(sigma, tau, trials=args.trials,
                                seed=args.seed, tol=args.tol, n=args.n)
    body = {k: v for k, v in report.to_json_dict().items() if k != "config"}
    return body, (0 if report.ok else 1)


_MARGIN_COLUMNS = ["s", "geometric", "heinz", "heron", "arithmetic",
                   "heinz_minus_geometric", "heron_minus_heinz",
                   "arithmetic_minus_heron"]
_GAMMA_COLUMNS = ["s", "gamma", "gamma_is_infinite"]


def _margin_rows(a: float, b: float, grid: np.ndarray) -> list:
    geo, arith = geometric_pair(a, b), arithmetic_pair(a, b)
    rows = []
    for s in grid.tolist():
        heinz, heron = heinz_pair(s, a, b), heron_pair((2.0 * s - 1.0) ** 2, a, b)
        rows.append([s, geo, heinz, heron, arith,
                     heinz - geo, heron - heinz, arith - heron])
    return rows


def _gamma_rows(family: str, grid: np.ndarray) -> list:
    rows = []
    for s in grid:
        descriptor = MeanDescriptor(family, param=float(s))
        profile = phi_profile(representing_function(descriptor))
        rows.append([float(s), profile.gamma, math.isinf(profile.gamma)])
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else jsonio.format_float(value)
    return str(value)


def _cmd_sweep(args) -> tuple:
    grid = _parse_grid(args.grid)
    if args.kind == "margins":
        if args.a is None or args.b is None:
            raise UsageError("margins sweep needs --a and --b")
        if not (args.a > 0.0 and args.b > 0.0 and math.isfinite(args.a)
                and math.isfinite(args.b)):
            raise UsageError("--a and --b must be finite positive reals")
        if not math.isfinite(arithmetic_pair(args.a, args.b)):
            raise UsageError("the arithmetic mean of --a and --b overflows")
        if not np.all((grid >= 0.0) & (grid <= 1.0)):    # NaN fails too
            raise UsageError(f"margins sweep parameter s must lie in [0, 1], got {args.grid!r}")
        columns = _MARGIN_COLUMNS
        rows = _margin_rows(args.a, args.b, grid)
    else:
        if args.family is None:
            raise UsageError("gamma sweep needs --family")
        columns = _GAMMA_COLUMNS
        rows = _gamma_rows(args.family, grid)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    return {"kind": args.kind, "rows": len(rows), "columns": columns,
            "out": args.out}, 0


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception, not a process exit."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opmeans",
                     description="Operator means on positive definite "
                                 "matrices: evaluation, inverse problems, "
                                 "chains, and monotonicity checks.")
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="numerical tolerance (default 1e-8)")
    common.add_argument("--trials", type=_non_negative, default=DEFAULT_TRIALS,
                        help="random trials (default 1000)")
    common.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED,
                        help="RNG seed (default 42)")

    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    parser.verbs = sub.choices      # verb -> its own parser, which main calls directly

    p = sub.add_parser("eval-mean", help="evaluate a mean of two SPD matrices")
    p.add_argument("--mean", required=True, help="mean spec, e.g. heinz:0.25")
    p.add_argument("--a", required=True, help="JSON file with matrix A")
    p.add_argument("--b", required=True, help="JSON file with matrix B")
    p.set_defaults(handler=_cmd_eval_mean)

    p = sub.add_parser("rep-eval",
                       help="evaluate a density-generated representing function")
    p.add_argument("--density", help="JSON file with a density")
    p.add_argument("--constant", type=float,
                   help="constant density value in [0, 1]")
    p.add_argument("--domain-class", choices=("sym", "sa"), default="sym",
                   help="density class when using --constant (default sym)")
    p.add_argument("--t", required=True, help="comma-separated points, all > 0")
    p.set_defaults(handler=_cmd_rep_eval)

    p = sub.add_parser("solve-pair",
                       help="find (A, B) with geometric mean X and sigma-mean Y")
    p.add_argument("--mean", required=True)
    p.add_argument("--x", required=True, help="JSON file with target X")
    p.add_argument("--y", required=True, help="JSON file with target Y")
    p.set_defaults(handler=_cmd_solve_pair)

    p = sub.add_parser("solve-heinz-heron",
                       help="find (A, B) hitting Heinz/Heron or "
                            "geometric/Heinz targets")
    p.add_argument("--s", type=float, required=True,
                   help="family parameter, s != 1/2")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--targets", choices=("heinz-heron", "geom-heinz"),
                   default="heinz-heron")
    p.set_defaults(handler=_cmd_solve_heinz_heron)

    p = sub.add_parser("chain",
                       help="connect X <= Y by a bounded-ratio monotone chain")
    p.add_argument("--mean", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--gamma0", type=float, default=None,
                   help="ratio bound; default sqrt(gamma), or 2 if gamma "
                        "is infinite")
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("check-monotone", parents=[common],
                       help="sampled operator-monotonicity check of an "
                            "expression in t")
    p.add_argument("--fn", required=True, help='expression, e.g. "sqrt(t)"')
    p.set_defaults(handler=_cmd_check_monotone)

    p = sub.add_parser("check-order", parents=[common],
                       help="sampled order comparison of two means")
    p.add_argument("--f", required=True, help="first mean spec")
    p.add_argument("--g", required=True, help="second mean spec")
    p.add_argument("--order-class", choices=("auto", "sym", "sa"),
                   default="auto")
    p.set_defaults(handler=_cmd_check_order)

    p = sub.add_parser("ka-check", parents=[common],
                       help="sampled mixing-condition check of sigma "
                            "against tau")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--n", type=int, default=DEFAULT_N,
                   help="matrix size (default 3)")
    p.set_defaults(handler=_cmd_ka_check)

    p = sub.add_parser("sweep", help="write a CSV over a parameter grid")
    p.add_argument("--kind", choices=("margins", "gamma"), required=True)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--a", type=float, help="scalar a for margins sweep")
    p.add_argument("--b", type=float, help="scalar b for margins sweep")
    p.add_argument("--family", choices=("heron", "heinz", "wgeo"),
                   help="parametric family for gamma sweep")
    p.set_defaults(handler=_cmd_sweep)

    return parser


_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = _PARSER.verbs.get(argv[0]) if argv else None
    try:
        # after a verb, its own parser alone gives the full parser's Namespace
        args = (_PARSER.parse_args(argv) if verb is None
                else verb.parse_args(argv[1:], argparse.Namespace(verb=argv[0])))
        body, code = args.handler(args)
        print(jsonio.dumps({"config": _config_echo(args), **body}), flush=True)
    except OpmeansError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (opmeans ... | head): Python's documented
        # recipe, so that the exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code
