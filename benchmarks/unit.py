"""One unit of a workload, run in a fresh interpreter so every cache starts cold.

Usage: python3 unit.py JOB.json RESULT.json

The job names the workload, its input files and whether to trace.  The
result holds the unit's raw outputs (report text, per-request outputs),
its timed wall, its process tree's peak RSS and, when traced, the
per-layer counts.  The gates and statistics live in run.py, which
starts this script.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from statistics import median
from time import perf_counter

CHAR_POLY_ORDERS = (8, 12, 20, 30)


def _cli(cli, argv):
    """(exit code, stdout text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run_sweep_unit(job):
    from qbounds import search

    corpus = job.get("corpus") or "file:" + job["corpus_path"]
    t0 = perf_counter()
    report = search.run_sweep(corpus, job["bounds"], subsets=job.get("subsets"), workers=1)
    text = report.to_json()
    wall = perf_counter() - t0
    return {"wall_s": wall, "report": text, "output_bytes": 0}


def exact_check_unit(job):
    from qbounds import cli

    records = []
    t0 = perf_counter()
    for request in job["requests"]:
        start = perf_counter()
        rc, out = _cli(cli, request["argv"])
        records.append(dict(request, rc=rc, out=out, ms=(perf_counter() - start) * 1e3))
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "requests": records,
        "output_bytes": sum(len(r["out"].encode()) for r in records),
    }


def emit_parallel_unit(job):
    from qbounds import cli

    argv = [
        "sweep", "--corpus", "file:" + job["corpus_path"], "--bounds", job["bounds"],
        "--workers", str(job["workers"]), "--format", "json",
        "--emit-certificates", job["csv_path"],
    ]
    t0 = perf_counter()
    rc, out = _cli(cli, argv)
    wall = perf_counter() - t0
    with open(job["csv_path"], "rb") as handle:
        data = handle.read()
    os.remove(job["csv_path"])
    return {
        "wall_s": wall,
        "rc": rc,
        "report": out,
        "csv_rows": max(0, data.count(b"\n") - 1),
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "output_bytes": len(out.encode()) + len(data),
    }


RUNNERS = {
    "graph_sweep": run_sweep_unit,
    "subset_sweep": run_sweep_unit,
    "exact_check": exact_check_unit,
    "emit_parallel": emit_parallel_unit,
}


def char_poly_ms():
    """Exact characteristic polynomial of the star's Q matrix, per order."""
    from qbounds.linalg import RationalMatrix, char_poly_exact

    timings = {}
    for n in CHAR_POLY_ORDERS:
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = n - 1
        for v in range(1, n):
            rows[0][v] = rows[v][0] = rows[v][v] = 1
        matrix = RationalMatrix(rows)
        samples = []
        for _ in range(5 if n <= 12 else 1):
            t0 = perf_counter()
            char_poly_exact(matrix)
            samples.append((perf_counter() - t0) * 1e3)
        timings["n%d" % n] = median(samples)
    return timings


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, caches, counter, before):
    """The per-layer metrics of one traced unit (see BENCHMARK.json)."""
    import spans

    spans_by_name = tracer.by_name()
    metrics = {}

    def total(prefixes):
        calls = self_s = 0
        for name, (c, s) in spans_by_name.items():
            if name.startswith(prefixes):
                calls += c
                self_s += s
        return calls, self_s

    for layer in ("graphs", "spectra", "partitions", "families"):
        calls, self_s = total(layer + ".")
        metrics[layer + ".calls"] = calls
        metrics[layer + ".self_s"] = self_s
    for metric, names in (
        ("eig", ("linalg.sym_eigenvalues",)),
        ("exact", ("linalg.char_poly_exact",)),
        ("rootcount", ("linalg.count_real_roots_above", "linalg.count_real_roots_below")),
    ):
        calls, self_s = total(names)
        metrics["linalg.%s_calls" % metric] = calls
        metrics["linalg.%s_self_s" % metric] = self_s
    for layer in ("search", "cli"):
        metrics[layer + ".self_s"] = total(layer + ".")[1]
    for name, (_, self_s) in spans_by_name.items():
        if name.startswith("bounds.checker."):
            key = name[len("bounds.checker."):].replace(":", ".")
            metrics["bounds.checker_self_s." + key] = self_s
    metrics["bounds.checker_self_s.family_props"] = total(("bounds.family_props",))[1]

    for label, metric in (
        ("graphs.to_graph6", "graphs.to_graph6_hit_ratio"),
        ("spectra.spectrum_of", "spectra.cache_hit_ratio"),
        ("partitions", "partitions.cache_hit_ratio"),
    ):
        if caches[label]:
            hits, misses = spans.cache_counts(caches[label])
            hits -= before[label][0]
            misses -= before[label][1]
            metrics[metric] = _ratio(hits, hits + misses)
    metrics["bounds.guard_band_hits"] = counter.guard_band_hits
    metrics["bounds.exact_escalations"] = counter.exact_escalations
    metrics["bounds.escalation_decided_ratio"] = _ratio(counter.decided, counter.guard_band_hits)
    return metrics


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "blas": blas}


def main(argv):
    job_path, result_path = argv
    with open(job_path) as handle:
        job = json.load(handle)
    import qbounds.cli  # noqa: F401  (the whole package, as a CLI call loads it)

    result = {}
    tracer = None
    if job["trace"]:
        import spans

        if job.get("char_poly"):
            result["char_poly_ms"] = char_poly_ms()
        tracer = spans.Tracer()
        caches, counter = spans.instrument(tracer)
        before = {label: spans.cache_counts(objs) for label, objs in caches.items()}
    result.update(RUNNERS[job["workload"]](job))
    result["peak_rss_mb"] = _peak_rss_mb()
    result["environment"] = _environment()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, caches, counter, before)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
