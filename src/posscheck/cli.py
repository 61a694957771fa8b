"""Command-line front end.

Subcommands: residual, indep, axioms, markov, factorize, examples, validate.
Exit codes: 0 the checked property holds (or factorization found); 1 it
fails; 2 the answer is unknown or purely vacuous; 64 usage errors; 65 model
errors; 70 internal consistency failures; 74 the report could not be
written (standard output closed).  ``--json`` emits a machine-readable
report that is byte-stable apart from the timing field.
"""

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .corpus import builtin_example, builtin_examples, evaluate_claim
from .errors import InternalInconsistencyError, ModelFormatError, PosscheckError
from .factorization import factorizes
from .independence import (
    SCAN_LIMIT,
    IndependenceStatement,
    canonical_axioms,
    independent,
    scan_axioms,
)
from .markov import GLOBAL, LOCAL, PAIRWISE, chain_report, global_markov, local_markov, pairwise_markov
from .modelio import load_model
from .numeric import DEFAULT_EPSILON
from .tnorm import BASES, PowerTransform, TNorm

EX_OK = 0
EX_FAILS = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_MODEL = 65
EX_INTERNAL = 70
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


# argparse parsers can be reused, so the tree is built once per process
@functools.cache
def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--tnorm", choices=BASES, help="base t-norm (default: model's, else godel)")
    common.add_argument("--power", type=float, help="power-automorphism exponent applied to --tnorm")
    common.add_argument("--epsilon", type=float, help="comparison tolerance (default 1e-9)")
    common.add_argument("--exact", action="store_true",
                        help="exact rational mode: values become fractions, comparisons exact")
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = _Parser(prog="posscheck", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residual", parents=[common], help="evaluate a t-norm residual")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("indep", parents=[common], help="test one independence statement")
    p.add_argument("--model", required=True)
    p.add_argument("--a", required=True, help="comma-separated variable group")
    p.add_argument("--b", required=True, help="comma-separated variable group")
    p.add_argument("--given", default="", help="comma-separated conditioning group")

    p = sub.add_parser("axioms", parents=[common], help="scan graphoid axioms for violations")
    p.add_argument("--model", required=True)
    p.add_argument("--axiom", action="append", default=None,
                   help="axiom name or a1..a5; repeatable; default: all")
    p.add_argument("--scan-limit", type=int, default=SCAN_LIMIT)

    p = sub.add_parser("markov", parents=[common], help="check Markov properties against the model graph")
    p.add_argument("--model", required=True)
    p.add_argument("--property", dest="property_name", required=True,
                   choices=[PAIRWISE, LOCAL, GLOBAL, "all"])
    p.add_argument("--exhaustive", action="store_true",
                   help="check every separated triple instead of component bipartitions")

    p = sub.add_parser("factorize", parents=[common], help="decide factorization over the model graph")
    p.add_argument("--model", required=True)

    p = sub.add_parser("examples", parents=[common], help="replicate the built-in reference models")
    p.add_argument("--id", type=int, default=None, help="reference model number 1..5 (default: all)")

    p = sub.add_parser("validate", parents=[common], help="load a model file and report its consistency")
    p.add_argument("--model", required=True)

    return parser


def _resolve_tnorm(args, model=None):
    if args.tnorm is not None:
        transform = PowerTransform(args.power) if args.power is not None else None
        return TNorm(args.tnorm, transform)
    if model is not None and model.tnorm is not None:
        return model.tnorm
    return TNorm.godel()


def _resolve_epsilon(args):
    if args.epsilon is not None:
        eps, source = args.epsilon, "--epsilon"
    elif args.exact:
        return 0
    else:
        env = os.environ.get("POSSCHECK_EPSILON")
        if not env:
            return DEFAULT_EPSILON
        try:
            eps, source = float(env), "POSSCHECK_EPSILON"
        except ValueError:
            raise ModelFormatError(f"POSSCHECK_EPSILON={env!r} is not a number") from None
    if not 0 <= eps < float("inf"):
        raise ModelFormatError(f"{source} {eps!r} is not a finite number >= 0")
    return eps


def _split_group(raw):
    return tuple(v for v in str(raw).replace(" ", "").split(",") if v)


def _statement_entry(stmt, holds, witness=None):
    entry = {"statement": stmt.to_json_dict(), "display": str(stmt), "holds": holds}
    if witness is not None:
        entry["witness"] = witness
    return entry


def _serialize_factorization(f):
    return {
        "cliques": [
            {
                "vars": list(factor.schema.variables),
                "entries": [_plain(v) for v in factor.values.ravel()],
            }
            for _, factor in sorted(f.factors.items())
        ]
    }


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    return float(value)


def run(argv):
    """Execute a command line; returns (exit_code, report dict)."""
    args = _build_parser().parse_args(argv)
    if args.exact and args.power is not None:
        raise ModelFormatError("exact mode does not support transformed t-norms")
    if args.power is not None and args.tnorm is None:
        raise ModelFormatError("--power requires --tnorm")
    eps = _resolve_epsilon(args)
    started = time.perf_counter()
    report = {
        "command": args.command,
        "argv": list(argv),
        "epsilon": eps,
        "exact": bool(args.exact),
        "checks": [],
    }
    code = _dispatch(args, eps, report)
    report["exit"] = code
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return code, report


def _dispatch(args, eps, report):
    command = args.command
    if command == "residual":
        tn = _resolve_tnorm(args)
        report["tnorm"] = tn.to_json_dict()
        value = tn.residual(args.y, args.x)
        report["checks"].append(
            {
                "check": "residual",
                "y": args.y,
                "x": args.x,
                "value": _plain(value),
                "vacuous": args.x == 0,
            }
        )
        return EX_UNKNOWN if args.x == 0 else EX_OK

    if command == "examples":
        return _run_examples(args, eps, report)

    model = load_model(args.model, exact=args.exact)
    report["model_digest"] = model.digest
    if command == "validate":
        check = {
            "check": "validate",
            "ok": True,
            "variables": len(model.schema),
            "cells": int(model.table.values.size),
            "normal": model.table.is_normal(eps),
        }
        if model.graph is not None:
            check["graph_vertices"] = len(model.graph.vertices)
            check["graph_edges"] = len(model.graph.edges)
        report["checks"].append(check)
        return EX_OK

    tn = _resolve_tnorm(args, model)
    report["tnorm"] = tn.to_json_dict()

    if command == "indep":
        stmt = IndependenceStatement(
            _split_group(args.a), _split_group(args.b), _split_group(args.given)
        )
        res = independent(model.table, tn, stmt, eps)
        conditional = model.table.condition(tn, stmt.a, stmt.given)
        entry = _statement_entry(stmt, res.holds, res.witness)
        entry["check"] = "independent"
        entry["vacuous_cells"] = conditional.vacuous_assignments()
        report["checks"].append(entry)
        return EX_OK if res.holds else EX_FAILS

    if command == "axioms":
        axioms = canonical_axioms(args.axiom)
        reports = scan_axioms(model.table, tn, axioms, scan_limit=args.scan_limit, eps=eps)
        violated = reports.violated
        for axiom, start, stop in reports.blocks:
            broken = [reports[i] for i in violated if start <= i < stop]
            report["checks"].append(
                {
                    "check": "axiom_scan",
                    "axiom": axiom,
                    "instances": stop - start,
                    "violations": [
                        {
                            "groups": [list(g) for g in r.groups],
                            "consequent": str(r.consequent),
                            "witness": r.witness,
                        }
                        for r in broken
                    ],
                }
            )
        return EX_OK if not violated else EX_FAILS

    if model.graph is None:
        raise ModelFormatError(f"the {command} command needs a model with a graph")

    if command == "markov":
        if args.property_name == "all":
            chain = chain_report(model.table, model.graph, tn, eps, exhaustive=args.exhaustive)
            reports = [chain.pairwise_report, chain.local_report, chain.global_report]
        else:
            fn = {PAIRWISE: pairwise_markov, LOCAL: local_markov,
                  GLOBAL: global_markov}[args.property_name]
            kwargs = {"exhaustive": args.exhaustive} if args.property_name == GLOBAL else {}
            reports = [fn(model.table, model.graph, tn, eps, **kwargs)]
        for rep in reports:
            report["checks"].append(
                {
                    "check": "markov",
                    "property": rep.property_name,
                    "holds": rep.holds,
                    "mode": rep.mode,
                    "statements": [
                        _statement_entry(s, ok) for s, ok in rep.checked
                    ],
                    "witness": None
                    if rep.witness is None
                    else {"statement": str(rep.witness[0]), "assignment": rep.witness[1]},
                    "skipped": [
                        {k: list(v) for k, v in item.items()} for item in rep.skipped
                    ],
                }
            )
        if not all(rep.holds for rep in reports):
            return EX_FAILS
        return EX_OK if any(rep.checked for rep in reports) else EX_UNKNOWN

    result = factorizes(model.table, model.graph, tn, eps)
    check = {
        "check": "factorize",
        "status": result.status,
        "witness": result.witness,
        "reason": result.reason,
    }
    if result.factorization is not None:
        check["factorization"] = _serialize_factorization(result.factorization)
    report["checks"].append(check)
    return {"yes": EX_OK, "no": EX_FAILS, "unknown": EX_UNKNOWN}[result.status]


def _run_examples(args, eps, report):
    ids = [args.id] if args.id is not None else sorted(builtin_examples())
    any_false = False
    any_mismatch = False
    for number in ids:
        model = builtin_example(number)
        report.setdefault("examples", []).append(
            {
                "id": model.number,
                "title": model.title,
                "graph_reconstructed": model.graph_reconstructed,
            }
        )
        for claim in model.claims:
            bases = claim.tnorms
            if args.tnorm is not None:
                if args.tnorm not in bases:
                    continue
                bases = (args.tnorm,)
            for base in bases:
                # --power comes with --tnorm, which is then the only base
                transform = PowerTransform(args.power) if args.power is not None else None
                tn = TNorm(base, transform)
                outcome = evaluate_claim(model, claim, tn, eps, exact=args.exact)
                verdict = outcome.verdict
                is_false = verdict is False or verdict == "no"
                any_false = any_false or is_false
                any_mismatch = any_mismatch or not outcome.matches_expected
                report["checks"].append(
                    {
                        "check": "example_claim",
                        "example": model.number,
                        "kind": claim.kind,
                        "detail": outcome.detail,
                        "tnorm": tn.to_json_dict(),
                        "expected": claim.expected,
                        "verdict": verdict,
                        "witness": outcome.witness,
                        "matches_expected": outcome.matches_expected,
                    }
                )
    if any_mismatch:
        return EX_INTERNAL
    return EX_FAILS if any_false else EX_OK


def _render_human(report, stream):
    for check in report.get("checks", []):
        kind = check.get("check")
        if kind == "residual":
            note = "  (vacuous: residual by 0)" if check["vacuous"] else ""
            print(f"residual(y={check['y']}, x={check['x']}) = {check['value']}{note}",
                  file=stream)
        elif kind == "independent":
            verdict = "holds" if check["holds"] else "FAILS"
            line = f"{check['display']}: {verdict}"
            if check.get("witness"):
                line += "  witness " + _format_assignment(check["witness"])
            print(line, file=stream)
            if check.get("vacuous_cells"):
                print(f"  vacuous conditioning cells: {len(check['vacuous_cells'])}",
                      file=stream)
        elif kind == "axiom_scan":
            n_bad = len(check["violations"])
            verdict = "no violations" if n_bad == 0 else f"{n_bad} VIOLATIONS"
            print(f"axiom {check['axiom']}: {check['instances']} instances, {verdict}",
                  file=stream)
            for v in check["violations"][:5]:
                line = f"  violated at groups {v['groups']}"
                if v.get("witness"):
                    line += ", witness " + _format_assignment(v["witness"])
                print(line, file=stream)
        elif kind == "markov":
            verdict = "holds" if check["holds"] else "FAILS"
            print(f"markov {check['property']} ({check['mode']}): {verdict} "
                  f"[{len(check['statements'])} statements, {len(check['skipped'])} skipped]",
                  file=stream)
            if check.get("witness"):
                print(f"  witness {check['witness']['statement']} at "
                      + _format_assignment(check["witness"]["assignment"]), file=stream)
        elif kind == "factorize":
            print(f"factorize: {check['status'].upper()}", file=stream)
            if check.get("witness"):
                print("  witness " + _format_assignment(check["witness"]), file=stream)
            if check.get("reason"):
                print(f"  ({check['reason']})", file=stream)
        elif kind == "example_claim":
            status = "ok" if check["matches_expected"] else "MISMATCH"
            print(
                f"example {check['example']} [{check['tnorm']['base']}] {check['kind']}"
                f" {check['detail']}: verdict={check['verdict']} expected={check['expected']}"
                f" -> {status}",
                file=stream,
            )
            if check.get("witness"):
                print("  witness " + _format_assignment(check["witness"]), file=stream)
        elif kind == "validate":
            print(f"model ok: {check['variables']} variables, {check['cells']} cells"
                  + (f", graph with {check['graph_vertices']} vertices"
                     if "graph_vertices" in check else ""),
                  file=stream)


def _format_assignment(assignment):
    return ", ".join(f"{k}={v}" for k, v in assignment.items())


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, report = run(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InternalInconsistencyError as exc:
        print(f"posscheck: internal inconsistency: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except PosscheckError as exc:
        print(f"posscheck: {exc}", file=sys.stderr)
        return EX_MODEL
    try:
        if "--json" in argv:
            print(json.dumps(report, sort_keys=True, default=str))
        else:
            _render_human(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout still holds unwritten bytes, so point it at
        # devnull, or the interpreter's flush at exit fails on them again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("posscheck: standard output was closed before the report was written",
              file=sys.stderr)
        return EX_IOERR
    return code


if __name__ == "__main__":
    sys.exit(main())
