"""Correctness gates: what one unit of a workload must have produced.

``assess`` turns a unit's raw outputs into an :class:`Outcome`: how many
instances it attempted, how many failed (quarantined errors, usage exits
and instances covered by a failed gate), and how many certificates and
``indeterminate-numeric`` verdicts it produced.  Each gate failure is
named in ``problems`` so a doctored output can be traced to the check
that caught it.
"""

import json
from dataclasses import dataclass, field

INDETERMINATE = "indeterminate-numeric"
VERDICTS = ("holds", "holds-with-equality", "violated", INDETERMINATE, "not-applicable")


@dataclass
class Outcome:
    instances: int
    failed: int = 0
    certificates: int = 0
    indeterminate: int = 0
    problems: list = field(default_factory=list)


def _certificates(totals):
    return sum(counts[v] for counts in totals.values() for v in VERDICTS)


def _indeterminate(totals):
    return sum(counts[INDETERMINATE] for counts in totals.values())


def _errors(report):
    return sum(counts["errors"] for counts in report["totals"].values())


def _safe_violations(report):
    """Every checker these workloads run is a safe-mode checker."""
    listed = sum(len(records) for records in report["violations"].values())
    return listed + sum(report["truncation"]["violations"].values())


def _sweep_problems(report, expect):
    problems = []
    if report["corpus"]["graphs"] != expect["graphs"]:
        problems.append(
            "graph count %d != %d" % (report["corpus"]["graphs"], expect["graphs"])
        )
    if _safe_violations(report):
        problems.append("%d safe-mode violations" % _safe_violations(report))
    return problems


def _load_report(out, outcome):
    try:
        return json.loads(out["report"])
    except ValueError:
        outcome.problems.append("the report is not JSON")
        outcome.failed = outcome.instances
        return None


def _graph_sweep(out, expect):
    outcome = Outcome(expect["graphs"])
    report = _load_report(out, outcome)
    if report is None:
        return outcome
    outcome.problems = _sweep_problems(report, expect)
    for key, wanted in expect["witnesses"].items():
        got = sorted(report["equality_witnesses"].get(key, []))
        if got != wanted or report["truncation"]["equality_witnesses"].get(key):
            outcome.problems.append(
                "%s witnesses: %d reported, %d expected" % (key, len(got), len(wanted))
            )
    return _finish(outcome, report)


def _subset_sweep(out, expect):
    outcome = Outcome(expect["pairs"])
    report = _load_report(out, outcome)
    if report is None:
        return outcome
    outcome.problems = _sweep_problems(report, expect)
    for key, counts in report["totals"].items():
        seen = sum(counts[v] for v in VERDICTS) + counts["errors"]
        if seen != expect["pairs"]:
            outcome.problems.append(
                "%s saw %d (graph, U) pairs, expected %d" % (key, seen, expect["pairs"])
            )
    return _finish(outcome, report)


def _emit_parallel(out, expect, reference):
    outcome = Outcome(expect["graphs"])
    report = _load_report(out, outcome)
    if report is None:
        return outcome
    outcome.problems = _sweep_problems(report, expect)
    if out["rc"] != 0:
        outcome.problems.append("sweep exited %d" % out["rc"])
    rows = _certificates(report["totals"])
    if out["csv_rows"] != rows:
        outcome.problems.append("CSV has %d rows, totals sum to %d" % (out["csv_rows"], rows))
    if reference is not None:
        if out["report"] != reference["report"]:
            outcome.problems.append("report differs from the workers=1 reference")
        if out["csv_sha256"] != reference["csv_sha256"]:
            outcome.problems.append("CSV differs from the workers=1 reference")
    return _finish(outcome, report)


def _finish(outcome, report):
    outcome.certificates = _certificates(report["totals"])
    outcome.indeterminate = _indeterminate(report["totals"])
    errors = _errors(report)
    outcome.failed = outcome.instances if outcome.problems else min(errors, outcome.instances)
    return outcome


def _request_certificates(record):
    """(certificates, None) of one exact_check request, or (None, why it failed)."""
    request = " ".join(record["argv"])
    if record["rc"] != 0:
        return None, "%s exited %s" % (request, record["rc"])
    try:
        payload = json.loads(record["out"])
    except ValueError:
        return None, "%s printed no JSON" % request
    certs = payload.get("certificates", payload.get("claims"))
    if not certs:
        return None, "%s returned no certificate" % request
    if record["kind"] == "tie":
        cert = certs[0]
        if cert["verdict"] != "holds-with-equality" or "exact" not in cert["notes"]:
            return None, "%s: tie came back %s without an exact note" % (request, cert["verdict"])
    return certs, None


def _exact_check(out):
    outcome = Outcome(len(out["requests"]))
    for record in out["requests"]:
        certs, problem = _request_certificates(record)
        if problem is not None:
            outcome.problems.append(problem)
            outcome.failed += 1
            continue
        outcome.certificates += len(certs)
        outcome.indeterminate += sum(c["verdict"] == INDETERMINATE for c in certs)
    return outcome


def assess(workload, out, expect, reference=None):
    if workload == "graph_sweep":
        return _graph_sweep(out, expect)
    if workload == "subset_sweep":
        return _subset_sweep(out, expect)
    if workload == "exact_check":
        return _exact_check(out)
    if workload == "emit_parallel":
        return _emit_parallel(out, expect, reference)
    raise ValueError("unknown workload %r" % (workload,))
