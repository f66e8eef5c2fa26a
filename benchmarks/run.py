"""The qbounds benchmark: one workload per invocation, end to end or traced.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs from ``workloads.make_inputs``; why each exists is in
BENCHMARK.json):

- ``graph_sweep``: ``run_sweep("enumerate:3..6", ["main_q1q2", "l_sum2"])``;
  the seed is accepted and unused because the corpus is exhaustive.
- ``subset_sweep``: ``run_sweep`` of ``t1_sandwich:safe`` and
  ``gm_qanalog`` over all subsets of 64 seeded connected graphs, n 5..8.
- ``exact_check``: one closed-loop client sending in-process
  ``qbounds check`` / ``qbounds family`` requests; most are guard-band
  ties that escalate to exact arithmetic, the rest float-path controls.
- ``emit_parallel``: ``qbounds sweep --workers 2 --format json
  --emit-certificates`` over 8192 seeded connected graphs, n 7..10.

Every unit of work runs in a fresh interpreter (``unit.py``), so the
program's caches start cold as they do for a CLI user, with
``QBOUNDS_OPTS`` removed and BLAS pinned to one thread.  Units repeat
until ``--seconds`` have passed.  ``setup_s`` is the median wall time of
fresh interpreters that only import ``qbounds.cli``: five before the
first unit and one before each unit.  Latencies are per request on
``exact_check``; on the sweep workloads one request is one whole sweep.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced units with traced ones (``spans.py``, workers = 1) and prints
the per-layer metrics.  Every unit's output passes the gates in
``gates.py``; a failed gate or quarantined error counts in ``failed``.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever that line is
printed, and 1 or 2 (with no such line) when the program under test is
missing or a unit crashes.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import gates
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    # cli.main splices QBOUNDS_OPTS into argv, which would change the requests
    env.pop("QBOUNDS_OPTS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=SRC,
    )
    return env


class Runner:
    """Starts fresh interpreters in their own process group and reaps them."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self._count = 0

    def spawn(self, argv):
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("%s ran past the time limit" % " ".join(argv[1:3]))
        finally:
            # pool workers share the group; none may outlive its unit
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(
                "%s exited %d:\n%s" % (" ".join(argv[1:3]), proc.returncode,
                                       err.decode(errors="replace")[-4000:])
            )

    def setup_probe(self):
        t0 = perf_counter()
        self.spawn([sys.executable, "-c", "import qbounds.cli"])
        return perf_counter() - t0

    def unit(self, job):
        self._count += 1
        job_path = os.path.join(self.workdir, "job-%d.json" % self._count)
        result_path = os.path.join(self.workdir, "result-%d.json" % self._count)
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        self.spawn([sys.executable, os.path.join(HERE, "unit.py"), job_path, result_path])
        with open(result_path) as handle:
            result = json.load(handle)
        os.remove(job_path)
        os.remove(result_path)
        return result


def make_job(inputs, workdir):
    """The unit job for these inputs; graph lists go to a graph6 file."""
    job = {key: value for key, value in inputs.items() if key != "graphs"}
    job["trace"] = False
    if "graphs" in inputs:
        job["corpus_path"] = os.path.join(workdir, "corpus.g6")
        with open(job["corpus_path"], "w") as handle:
            handle.writelines(g6 + "\n" for g6 in inputs["graphs"])
    if inputs["workload"] == "emit_parallel":
        job["csv_path"] = os.path.join(workdir, "certificates.csv")
    return job


def tail(samples):
    """(value, percentile): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples beyond it (nearest rank), else the median.

    Sweep workloads have one sample per sweep, too few for any tail
    percentile; their tail is then their median, not their maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        idx = math.ceil(pct * n / 100.0) - 1
        if n - 1 - idx >= TAIL_BEYOND:
            return ordered[idx], pct
    return statistics.median(ordered), 50.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def same_output(workload, a, b):
    if workload == "exact_check":
        return [(r["rc"], r["out"]) for r in a["requests"]] == [
            (r["rc"], r["out"]) for r in b["requests"]]
    return a["report"] == b["report"] and a.get("csv_sha256") == b.get("csv_sha256")


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def measure(workload, seed, seconds, trace, workdir):
    """Run the units of one invocation; returns (lines, result dict)."""
    start = perf_counter()
    runner = Runner(workdir, start + TIME_LIMIT_S)
    inputs = workloads.make_inputs(workload, seed)
    expect = workloads.expectations(inputs)
    job = make_job(inputs, workdir)

    setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    reference = None
    if workload == "emit_parallel":
        reference = runner.unit(dict(job, workers=1))

    units, traced = [], []
    end = perf_counter() + seconds
    while True:
        setup.append(runner.setup_probe())
        units.append(runner.unit(job))
        if trace:
            traced.append(runner.unit(dict(
                job, trace=True, workers=1, char_poly=not traced)))
        if perf_counter() >= end:
            break

    outcomes = [gates.assess(workload, u, expect, reference) for u in units + traced]
    problems = [p for o in outcomes for p in o.problems]
    failed = sum(o.failed for o in outcomes)
    for t, o in zip(traced, outcomes[len(units):]):
        if not same_output(workload, units[0], t):
            problems.append("traced output differs from the untraced output")
            failed += o.instances - o.failed
    attempted = sum(o.instances for o in outcomes)
    certificates = sum(o.certificates for o in outcomes)
    indeterminate = sum(o.indeterminate for o in outcomes)

    env = units[0]["environment"]
    lines = [
        "qbounds benchmark: workload=%s seed=%d seconds=%d trace=%d"
        % (workload, seed, seconds, trace),
        "environment: nproc=%d python=%s numpy=%s blas=%s blas_threads=1 QBOUNDS_OPTS=unset"
        % (len(os.sched_getaffinity(0)), platform.python_version(), env["numpy"], env["blas"]),
        "units: %d untraced, %d traced, each in a fresh interpreter; %d instances, %d failed"
        % (len(units), len(traced), attempted, failed),
    ]
    # zero at a correct commit, so they are no bounded end-to-end metric:
    # printed here, and per-layer metrics in the traced run
    prefix = "outcome." if trace else ""
    values = {
        prefix + "error_ratio": (failed / attempted, "ratio",
                                 "%d failed of %d" % (failed, attempted)),
        prefix + "indeterminate_ratio": (
            indeterminate / certificates if certificates else 0.0, "ratio",
            "%d of %d certificates" % (indeterminate, certificates)),
    }
    if trace:
        # traced units run at workers=1; so does emit_parallel's reference
        baseline = [reference] if reference is not None else units
        values.update(layer_values(baseline, traced))
    else:
        values.update(end_to_end_values(workload, units, outcomes, setup))

    end_to_end, per_layer = load_metric_specs()
    wanted = per_layer if trace else end_to_end
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        value, _, note = values.pop(name, (0, spec["unit"], "not exercised here, or absent"))
        metrics[name] = {"value": value, "unit": spec["unit"]}
        lines.append("%-44s %14.6g %-6s %s" % (name, value, spec["unit"], note))
    for name, (value, unit, note) in sorted(values.items()):
        lines.append("%-44s %14.6g %-6s %s" % (name, value, unit, note))
    lines.extend("gate failed: %s" % p for p in problems[:20])
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def end_to_end_values(workload, units, outcomes, setup):
    rates = [o.instances / u["wall_s"] for u, o in zip(units, outcomes)]
    if workload == "exact_check":
        latencies = [r["ms"] for u in units for r in u["requests"]]
        what = "requests"
    else:
        latencies = [u["wall_s"] * 1e3 for u in units]
        what = "sweeps (one request = one sweep)"
    tail_value, tail_pct = tail(latencies)
    lo, hi = quartiles(rates)
    return {
        "setup_s": (statistics.median(setup), "s",
                    "median of %d fresh interpreters importing qbounds.cli" % len(setup)),
        "instances_per_s": (statistics.median(rates), "1/s",
                            "median of %d units, quartiles %.6g..%.6g" % (len(rates), lo, hi)),
        "latency_p50_ms": (statistics.median(latencies), "ms",
                           "median of %d %s" % (len(latencies), what)),
        "latency_tail_ms": (tail_value, "ms", "p%.4g of %d %s" % (tail_pct, len(latencies), what)),
        "peak_rss_mb": (max(u["peak_rss_mb"] for u in units), "MB",
                        "largest ru_maxrss in any unit's process tree"),
    }


def layer_values(baseline, traced):
    """Per-layer metrics: medians over the traced units.  ``baseline`` holds
    untraced units at the traced units' worker count."""
    values = {}
    names = sorted({name for t in traced for name in t["layers"]})
    for name in names:
        samples = [t["layers"].get(name, 0) for t in traced]
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        values[name] = (statistics.median(samples), unit,
                        "median of %d traced units" % len(traced))
    for order, ms in traced[0]["char_poly_ms"].items():
        values["linalg.char_poly_ms." + order] = (ms, "ms", "star Q matrix, before tracing")
    values["cli.rows_written"] = (traced[0].get("csv_rows", 0), "count", "CSV rows per unit")
    values["cli.output_bytes"] = (traced[0]["output_bytes"], "bytes", "stdout and files per unit")
    overhead = (statistics.median(t["wall_s"] for t in traced)
                / statistics.median(u["wall_s"] for u in baseline))
    values["trace.overhead_ratio"] = (overhead, "ratio", "traced / untraced median wall")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbounds", "__init__.py")):
        print("error: no qbounds package under %s" % SRC, file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
