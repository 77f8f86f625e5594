"""Command-line interface.

Subcommands: solve, sweep, verify, reduce, oracle.  Exit codes: 0 on
success, 1 on input/validation errors, 2 when no certified optimum was
produced (best-known fallback or failed verification), 141 (128 +
SIGPIPE) when the reader closed the output early (`usdkit ... | head`).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress

import numpy as np

from .errors import CertificateFailure, UsdKitError
from .model import is_proper, is_usd, success_probability
from .optimality import build_certificate, check_optimality, classify
from .oracle import OracleConfig, oracle_optimize, uniqueness_probe
from .pipeline import (BRANCH_ORACLE, dispatch, load_measurement,
                       load_problem, rows_to_csv, sweep)
from .reductions import reduce_fully
from .tolerances import DEFAULT_TOL, ToleranceContext

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCERTIFIED = 2
EXIT_SIGPIPE = 141


def _tolerances(args) -> ToleranceContext:
    tol = DEFAULT_TOL
    overrides = {}
    if args.tol is not None:
        overrides.update(equality=args.tol, hermitian=args.tol)
    if getattr(args, "rank_cutoff", None) is not None:
        overrides["rank_cutoff"] = args.rank_cutoff
    if getattr(args, "psd_floor", None) is not None:
        overrides["psd_floor"] = args.psd_floor
    return tol.with_overrides(**overrides) if overrides else tol


def _outcome_payload(outcome, pair) -> dict:
    return {
        "success_probability": outcome.success,
        "class": [outcome.class_tag.e1_rank, outcome.class_tag.e2_rank],
        "von_neumann": outcome.class_tag.is_von_neumann,
        "branch": outcome.branch,
        "optimal": outcome.optimal,
        "boundary": outcome.boundary,
        "report": outcome.report.to_dict(),
        "certificate_valid": outcome.certificate is not None,
        "warnings": list(outcome.warnings),
        "failure_probability": pair.total_trace - outcome.success,
    }


def _cmd_solve(args) -> int:
    tol = _tolerances(args)
    problem = load_problem(args.problem, tol)
    pair = problem.pair(args.p1, tol)
    outcome = dispatch(pair)
    payload = _outcome_payload(outcome, pair)
    if args.json:
        print(json.dumps(payload, indent=1))
    elif args.csv:
        p1 = problem.p1 if args.p1 is None else args.p1
        print("p1,success,class_e1,class_e2,branch")
        print(f"{p1:.17g},{outcome.success:.17g},{outcome.class_tag.e1_rank},"
              f"{outcome.class_tag.e2_rank},{outcome.branch}")
    else:
        print(f"success probability : {outcome.success:.12f}")
        print(f"measurement class   : ({outcome.class_tag.e1_rank},"
              f"{outcome.class_tag.e2_rank})"
              f"{' von Neumann' if outcome.class_tag.is_von_neumann else ''}")
        print(f"strategy branch     : {outcome.branch}")
        print(f"certified optimal   : {outcome.optimal}")
        for note in outcome.warnings:
            print(f"note: {note}")
    return EXIT_OK if outcome.optimal else EXIT_UNCERTIFIED


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    tol = _tolerances(args)
    problem = load_problem(args.problem, tol)
    grid = np.linspace(args.min, args.max, args.steps)
    rows = sweep(problem.rho1, problem.rho2, grid, tol)
    text = rows_to_csv(rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    # the CSV holds every row; the exit code says whether each is certified
    if any(row.branch == BRANCH_ORACLE for row in rows):
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    problem = load_problem(args.problem, tol)
    pair = problem.pair(args.p1, tol)
    m = load_measurement(args.measurement, problem.dim)
    try:
        m.validate(pair, tol)
    except (UsdKitError, ValueError) as exc:
        print(json.dumps({"valid_usd": False, "error": str(exc)}, indent=1))
        return EXIT_INVALID
    payload = {
        "valid_usd": is_usd(m, pair),
        "proper": is_proper(m, pair),
        "success_probability": success_probability(m, pair),
    }
    report = check_optimality(m, pair, require_proper=False)
    payload["report"] = report.to_dict()
    tag = classify(m, pair)
    payload["class"] = [tag.e1_rank, tag.e2_rank]
    violated = [name for name, okay in
                (("a1", report.cond_a1), ("a2", report.cond_a2),
                 ("cross", report.cond_cross), ("b", report.cond_b))
                if not okay]
    payload["violated_conditions"] = violated
    if report.is_optimal and payload["proper"]:
        try:
            cert = build_certificate(m, pair, report=report)
            payload["certificate"] = {
                "valid": True,
                "residuals": cert.residuals,
                "v1_condition_number": cert.v1_condition,
            }
        except CertificateFailure as exc:
            payload["certificate"] = {"valid": False, "error": str(exc)}
    print(json.dumps(payload, indent=1))
    return EXIT_OK if report.is_optimal and payload["proper"] else EXIT_UNCERTIFIED


def _cmd_reduce(args) -> int:
    tol = _tolerances(args)
    problem = load_problem(args.problem, tol)
    pair = problem.pair(args.p1, tol)
    record = reduce_fully(pair)
    payload = {
        "strictly_skew_input": pair.strictly_skew,
        "parallel_dim": int(round(float(np.real(np.trace(record.pi_parallel))))),
        "sigma1_dim": int(round(float(np.real(np.trace(record.sigma1))))),
        "sigma2_dim": int(round(float(np.real(np.trace(record.sigma2))))),
        "core_dim": int(round(float(np.real(np.trace(record.xi))))),
        "core_support_dim": record.reduced_pair.collective_support().size,
        "lifted_offset": record.lifted_offset,
        "warnings": list(record.boundary_warnings),
    }
    print(json.dumps(payload, indent=1))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    tol = _tolerances(args)
    problem = load_problem(args.problem, tol)
    pair = problem.pair(args.p1, tol)
    cfg = OracleConfig(seed=args.seed, restarts=args.restarts)
    if args.restarts >= 10:
        probe = uniqueness_probe(pair, cfg)
        result = probe.result
        payload = {"unique": probe.unique, "max_distance": probe.max_distance}
    else:
        result = oracle_optimize(pair, cfg)
        payload = {}
    payload.update({
        "success_probability": result.success,
        "upper_bound": result.upper_bound,
        "feasibility_residual": result.feasibility_residual,
        "iterations": result.iterations,
        "per_restart_distances": list(result.per_restart_distances),
    })
    print(json.dumps(payload, indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usdkit",
        description="Optimal unambiguous discrimination of two mixed states")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the equality and Hermiticity tolerances")
    parser.add_argument("--rank-cutoff", type=float, default=None,
                        help="override the relative rank cutoff")
    parser.add_argument("--psd-floor", type=float, default=None,
                        help="override the admissible negative eigenvalue")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("problem")
    p_solve.add_argument("--p1", type=float, default=None)
    fmt = p_solve.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a grid of priors")
    p_sweep.add_argument("problem")
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True,
                         help="output CSV path ('-' for stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify",
                              help="check a measurement for optimality")
    p_verify.add_argument("problem")
    p_verify.add_argument("measurement")
    p_verify.add_argument("--p1", type=float, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="show the reduction structure")
    p_reduce.add_argument("problem")
    p_reduce.add_argument("--p1", type=float, default=None)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_oracle = sub.add_parser("oracle", help="run the numerical optimizer")
    p_oracle.add_argument("problem")
    p_oracle.add_argument("--p1", type=float, default=None)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--restarts", type=int, default=1)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the flush at exit goes to the null device
        with suppress(AttributeError, OSError, ValueError):  # no descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_SIGPIPE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, UsdKitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
