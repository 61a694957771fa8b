"""Output checks for every benchmark operation.

Each check returns an ``Outcome``: the verdict string of the operation, the
list of problems found, whether the verdict itself was wrong, and the exact
counts the per-layer metrics read from the output.

Expected verdicts come from theorems where one applies:

* a planted factorization under an Archimedean t-norm satisfies the global,
  local and pairwise Markov properties;
* A1-A4 (the semigraphoid axioms) never fail, for any continuous t-norm;
  A5 never fails on strictly positive tables under an Archimedean t-norm;
* a planted factorization is found (``yes``), and its JSON factors fold back
  to the table;
* one perturbed cell of a strictly positive strict or nilpotent table breaks
  a non-edge mixed difference, so the answer is ``no``; Goedel and crisp
  models are perturbed at a cell that makes the table differ from the
  minimum of its clique marginals (``workloads.min_factorizes``), which
  decides those regimes, so the answer is ``no`` there too.

Every other verdict is compared with the seed code's verdict on the same
input, pinned in ``pins/<workload>.json``.  Every reported Markov witness is
re-checked as failing through ``independent``.

The pins also list the operations that failed some check on the seed code.
``judge`` counts any other failure as wrong, whatever check it failed: a
raise, a witness that holds on re-check, missing axiom instances or factors
that do not fold back make the run incorrect just as a wrong verdict does.
"""

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

from posscheck import independent
from posscheck.independence import AXIOMS

from .workloads import VARIANTS, cylinder, tnorm_fold

PINS = Path(__file__).resolve().parent / "pins"
ARCHIMEDEAN = ("product", "lukasiewicz", "product^2", "lukasiewicz^2")


@dataclass
class Outcome:
    """``wrong``: the verdict is wrong, or the operation failed a check that
    it passed on the seed code."""

    verdict: str
    problems: list = field(default_factory=list)
    wrong: bool = False
    facts: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.problems)


@dataclass(frozen=True)
class Pins:
    """The seed code's results on one input variant: each operation's
    verdict, and the indices of the operations that failed a check."""

    verdicts: list
    failing: frozenset


def load_pins(workload, seed):
    path = PINS / f"{workload}.json"
    doc = json.loads(path.read_text())
    if doc["variants"] != VARIANTS:
        raise ValueError(f"{path} pins {doc['variants']} variants, expected {VARIANTS}")
    variant = str(seed % VARIANTS)
    return Pins(doc["verdicts"][variant], frozenset(doc["failing"][variant]))


def judge(check, op, result, pins):
    """Run ``check`` on one output.  With ``pins``, a failure is wrong unless
    the seed code failed the same operation with the same verdict."""
    if pins is None:
        return check(op, result)
    pinned = pins.verdicts[op.index]
    outcome = check(op, result, pinned)
    if outcome.failed and (op.index not in pins.failing or outcome.verdict != pinned):
        outcome.wrong = True
    return outcome


def _merge(pinned, theorem):
    """Expected verdict: theorem characters where known, pinned ones elsewhere.

    ``theorem`` uses '?' for characters no theorem fixes; in pinning mode
    (``pinned`` is None) those stay unchecked.
    """
    if pinned is None:
        return theorem
    return "".join(p if t == "?" else t for p, t in zip(pinned, theorem))


def _verdict_matches(verdict, expected):
    return len(verdict) == len(expected) and all(
        e in ("?", v) for v, e in zip(verdict, expected))


def _raised(result):
    return Outcome("error", [f"raised {type(result).__name__}: {result}"])


def _judge(outcome, expected):
    if not _verdict_matches(outcome.verdict, expected):
        outcome.wrong = True
        outcome.problems.append(f"verdict {outcome.verdict}, expected {expected}")
    return outcome


def check_markov(op, result, pinned=None):
    """``result`` is the ChainReport of chain_report(table, graph, tn)."""
    if isinstance(result, Exception):
        return _raised(result)
    reports = (result.global_report, result.local_report, result.pairwise_report)
    outcome = Outcome("".join("T" if r.holds else "F" for r in reports),
                      facts={"global_statements": len(result.global_report.checked)})
    table = op.fresh_table()
    for report in reports:
        if report.holds:
            continue
        if report.witness is None:
            outcome.problems.append(f"{report.property_name} fails without a witness")
        elif independent(table, op.tnorm, report.witness[0], op.eps).holds:
            outcome.problems.append(
                f"{report.property_name} witness {report.witness[0]} holds on re-check")
    theorem = "TTT" if op.planted and op.spec in ARCHIMEDEAN else "???"
    return _judge(outcome, _merge(pinned, theorem))


def scan_instances(n):
    """Axiom instances a full scan must report: inclusion-exclusion over the
    nonempty X, Y, Z groups, with 3 roles plus 'unused' for symmetry and 4
    plus 'unused' for the other axioms."""
    def count(roles):
        return sum((-1) ** k * comb(3, k) * (roles + 1 - k) ** n for k in range(4))
    return count(3) + (len(AXIOMS) - 1) * count(4)


def check_axioms(op, result, pinned=None):
    """``result`` is the report list of scan_axioms over all five axioms."""
    if isinstance(result, Exception):
        return _raised(result)
    violated = {r.axiom for r in result if not r.holds}
    distinct = set()
    consequents = 0
    for r in result:
        distinct.update(stmt for stmt, _ in r.antecedents)
        if r.consequent_holds is not None:
            distinct.add(r.consequent)
            consequents += 1
    outcome = Outcome("".join("1" if a in violated else "0" for a in AXIOMS),
                      facts={"instances": len(result), "statements_distinct": len(distinct),
                             "consequents": consequents})
    if len(result) != scan_instances(op.n):
        outcome.problems.append(f"{len(result)} instances, expected {scan_instances(op.n)}")
    for r in result:
        if not r.holds and (r.consequent_holds is not False or r.witness is None):
            outcome.problems.append(f"{r.axiom} violation at {r.groups} lacks a failing consequent")
            break
    a5 = "0" if op.positive and op.spec in ARCHIMEDEAN else "?"
    return _judge(outcome, _merge(pinned, "0000" + a5))


def check_cli(op, result, pinned=None):
    """``result`` is (exit code, stdout, stderr) of ``factorize --json``.
    Theorems fix every verdict here, so ``pinned`` is not consulted."""
    if isinstance(result, Exception):
        return _raised(result)
    code, out, err = result
    try:
        check = json.loads(out)["checks"][0]
    except (ValueError, KeyError, IndexError):
        detail = err.strip().splitlines()[-1] if err.strip() else "no output"
        return Outcome("error", [f"exit {code}: {detail}"])
    status = check["status"]
    outcome = Outcome(status)
    if code != {"yes": 0, "no": 1, "unknown": 2}.get(status):
        outcome.problems.append(f"exit code {code} for status {status}")
    if status == "yes":
        _check_factors(op, check["factorization"]["cliques"], outcome)
    return _judge(outcome, "yes" if op.planted else "no")


def _check_factors(op, cliques, outcome):
    """The JSON factors, read as C-order arrays over their listed variables,
    must cover the graph's cliques and fold back to the table."""
    order = op.schema.variables
    got = {frozenset(c["vars"]) for c in cliques}
    if got != {frozenset(c) for c in op.graph.cliques()}:
        outcome.problems.append("factor cliques differ from the graph's cliques")
        return
    arrays = []
    for c in cliques:
        axes = [order.index(v) for v in c["vars"]]
        local = np.array(c["entries"], dtype=float).reshape([op.values.shape[a] for a in axes])
        arrays.append(cylinder(local, axes, op.n))
    error = float(np.abs(tnorm_fold(op.spec, arrays) - op.values).max())
    tol = 1e-7 if op.regime in ("strict", "nilpotent") else 1e-9
    if error > tol:
        outcome.problems.append(f"factors recombine with error {error:.3g} > {tol:g}")


CHECKS = {"markov-sparse": check_markov, "markov-dense": check_markov,
          "axiom-scan": check_axioms, "cli-factorize": check_cli}
