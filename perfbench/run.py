"""fmtk benchmark: seeded closed-loop job mixes against the library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload equiv-mix --seed 1 --seconds 25 --trace 0

One client sends one job at a time and waits for its answer (a closed
loop); ``cli-batch`` runs one child process at a time. The job list of a
workload is fixed by the seed. The run makes one whole pass over it, so
that every job runs and is checked, and then goes on with further passes
until ``--seconds`` is used up; the last pass stops at the deadline. Where a
job's cost swings with its seeded content, the list holds many such jobs,
so that the mix's percentiles move little from one seed to the next.

Times are scaled to a fixed machine speed. The machine is shared, and its
speed swings by up to 2x in spells of seconds, long enough to cover a
whole run. So a probe (a fixed piece of pure-Python work that does not
touch fmtk) runs between every two jobs, and each job's wall time is
divided by the mean of the probes on either side of it and multiplied by
``PROBE_REF_S``, the probe's time on a quiet machine. A job's time is the
median of these scaled times over its runs. A change to fmtk moves the
job times and not the probe; a machine that slows both moves neither.

Each job's answer is checked independently (``workloads.py``); on the
recorded seed it must also match the answer recorded in ``expected/``; a
job that runs again must repeat its first answer. Set-up (importing fmtk,
building the job list, writing input files) is timed on its own, several
times, scaled the same way, and never inside a job.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced whole passes with passes that record spans around every fmtk layer
boundary (``tracing.py``), and prints the per-layer metrics together with
the tracing overhead (the drop in jobs per second). Which
end-to-end metric each layer metric should move is in ``layers.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.

Tests of the benchmark itself: ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("equiv-mix", "shrink-mix", "translate-mix", "cli-batch")
RECORDED_SEED = 1
SETUP_REPEATS = 9

# The probe's time, in seconds, on a quiet 2-vCPU Xeon KVM guest running
# Python 3.11: every reported time is scaled to a machine of that speed.
PROBE_REF_S = 0.00075
_PROBE_N = 150
_PROBE_ADJ = [tuple(random.Random(0).sample(range(_PROBE_N), 4)) for _ in range(_PROBE_N)]


def _probe_work() -> int:
    # colour refinement on a fixed 4-out-regular digraph: tuples, dicts,
    # sorting and frozensets, the same kind of work fmtk does
    col = [0] * _PROBE_N
    for _ in range(5):
        ids: dict = {}
        col = [ids.setdefault((col[v], tuple(sorted(col[u] for u in _PROBE_ADJ[v]))), len(ids))
               for v in range(_PROBE_N)]
    return len(frozenset(frozenset((col[u], col[v], u % 5)) for v in range(_PROBE_N) for u in _PROBE_ADJ[v]))


def probe() -> float:
    """How long the probe takes right now, in seconds (with the collector
    off: it allocates little, and a collection is not the machine's speed)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, between probes that took ``before`` and
    ``after``, as the time it takes on a machine where the probe takes
    ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / ((before + after) / 2)


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list:
    import workloads

    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-batch":
        jobs = workloads.cli_batch(rng, ROOT, os.path.join(WORK, workload), tiny)
    else:
        jobs = getattr(workloads, workload.replace("-", "_"))(rng, tiny)
    if len({job.id for job in jobs}) != len(jobs):
        raise ValueError(f"{workload}: job ids are not unique")
    rng.shuffle(jobs)
    return jobs


def set_up(workload: str, seed: int, tiny: bool = False) -> tuple[list, list[float]]:
    """Import fmtk afresh, build the job list and write the input files,
    ``SETUP_REPEATS`` times; returns the last job list and every set-up time."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times = []
    jobs: list = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "fmtk" or n.startswith("fmtk.")]:
            del sys.modules[name]
        started = time.perf_counter()
        importlib.import_module("fmtk.cli")  # imports every layer
        jobs = build_jobs(workload, seed, tiny)
        dt = time.perf_counter() - started
        after = probe()
        times.append(scaled(dt, before, after))
        before = after
    return jobs, times


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Run:
    """The job executions, failures and first answers of one run."""

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def phase(self, lanes: list, seconds: float,
              whole_passes: bool) -> tuple[list[int], list[dict[str, list[float]]]]:
        """Passes for about ``seconds``, taking the ``(jobs, tracer)`` lanes
        in turn; a traced lane's wrappers are installed only for its own
        passes. Every job runs at least once. After the first round, with
        ``whole_passes`` a new round starts only if half an average round
        still fits; without, the run stops at the first job that would
        start after ``seconds``. Returns each lane's count of whole passes
        and scaled job times (see ``scaled``)."""
        times = [{job.id: [] for job in jobs} for jobs, _ in lanes]
        passes = [0] * len(lanes)
        started = time.perf_counter()
        rounds = 0
        while True:
            for lane, (jobs, tracer) in enumerate(lanes):
                if tracer is not None:
                    tracer.install()
                try:
                    before = probe()
                    for job in jobs:
                        if rounds and not whole_passes and time.perf_counter() - started >= seconds:
                            return passes, times
                        dt, failure = self._one(job, tracer)
                        after = probe()
                        times[lane][job.id].append(scaled(dt, before, after))
                        before = after
                        self.attempted += 1
                        if failure:
                            self.failures.append((job.id, failure))
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                passes[lane] += 1
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed + (0.5 * elapsed / rounds if whole_passes else 0) >= seconds:
                return passes, times

    def _one(self, job, tracer) -> tuple[float, str | None]:
        failure = None
        answer = None
        # every job starts from a collected heap, so the collector's pauses
        # inside it depend on its own allocations, not on earlier jobs'
        gc.collect()
        if tracer is not None:
            tracer.active = True
            span = tracer.open_job()
        t0 = time.perf_counter()
        try:
            answer = job.run()
        except Exception as exc:  # a job that raises counts as failed, the run goes on
            failure = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        if failure:
            return dt, failure
        got = digest(answer)
        if job.id in self.first:
            if got != self.first[job.id]:
                return dt, "answer differs from the first run of this job"
            return dt, None
        self.first[job.id] = got
        try:
            failure = job.check(answer)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
        if failure is None and self.recorded is not None:
            want = self.recorded.get(job.id)
            if want != got:
                failure = f"answer {got} differs from the recorded {want}"
        return dt, failure


def best_times(times: dict[str, list[float]]) -> dict[str, float]:
    """Each job's cost: the median of its scaled times over the passes.
    Scaling leaves an error either way (a probe may fall in a quieter or a
    busier moment than the job), so the median, not the minimum."""
    return {job_id: statistics.median(ts) for job_id, ts in times.items()}


def quantile_ms(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-quantile, in ms: a mean of
    all the sorted values, weighted by the Beta((n+1)p, (n+1)(1-p)) mass on
    each one's slice of [0, 1]. A single order statistic jumps when the
    jobs near it are sparse; this estimate moves smoothly with them."""
    xs = sorted(v * 1000 for v in values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule on each slice
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        mids = (i / n + (j + 0.5) * h for j in range(steps))
        weights.append(h * sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                               for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def cli_metrics(best: dict[str, float], families: dict[str, str], commands) -> dict[str, float]:
    by_family: dict[str, list[float]] = {}
    for job_id, t in best.items():
        by_family.setdefault(families[job_id], []).append(t)

    def p50_ms(family: str) -> float:
        ts = by_family.get(family)
        return statistics.median(ts) * 1000 if ts else 0.0

    out = {"cli.startup_ms": p50_ms("cli-startup")}
    for cmd in commands:
        out[f"cli.{cmd}.p50_ms"] = p50_ms(f"cli-{cmd}")
    out["cli.guard_refusal_ms"] = p50_ms("cli-guard")
    return out


def load_recorded(workload: str, seed: int) -> dict[str, str] | None:
    path = os.path.join(EXPECTED, f"{workload}.json")
    if seed != RECORDED_SEED or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["answers"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, recorded: dict[str, str] | None = None) -> dict:
    """Set up, measure and return the result object, plus the pass count,
    the failures and the answer digests of the first pass.

    ``recorded`` maps job ids to the answer digests every job must match;
    ``None`` checks nothing beyond the independent checks.
    """
    jobs, setup_times = set_up(workload, seed, tiny)
    families = {job.id: job.family for job in jobs}
    run = Run(recorded)
    if not trace:
        (passes,), (times,) = run.phase([(jobs, None)], seconds, whole_passes=False)
        best = best_times(times)
        # cli-batch: the largest of the CLI children it waited for
        usage = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
        metrics = {
            "jobs_per_s": (len(best) / sum(best.values()), "1/s"),
            "job_p50_ms": (quantile_ms(best.values(), 0.5), "ms"),
            "job_p90_ms": (quantile_ms(best.values(), 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        import tracing
        import workloads

        tracer = tracing.Tracer()
        tracer.install()
        try:
            # built while the wrappers are in place, so that these jobs call them
            traced_jobs = build_jobs(workload, seed, tiny)
        finally:
            tracer.uninstall()
        # untraced and traced passes alternate, so that both see the same
        # warm-up and the same spells of a busy machine
        (plain_passes, traced_passes), (plain_times, traced_times) = run.phase(
            [(jobs, None), (traced_jobs, tracer)], seconds, whole_passes=True)
        passes = plain_passes + traced_passes
        tracer.dump(os.path.join(WORK, "spans", workload))
        values = tracing.layer_metrics(tracer, traced_passes)
        plain_best, traced_best = best_times(plain_times), best_times(traced_times)
        values.update(cli_metrics(plain_best, families, workloads.CLI_COMMANDS))
        untraced = len(plain_best) / sum(plain_best.values())
        traced = len(traced_best) / sum(traced_best.values())
        values.update({
            "trace.jobs_per_s_untraced": untraced,
            "trace.jobs_per_s_traced": traced,
            "trace.overhead_jobs_per_s": untraced - traced,
            "fail_ratio": len(run.failures) / run.attempted,
        })
        metrics = {name: (value, _unit(name)) for name, value in values.items()}
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "failures": run.failures,
        "answers": run.first,
    }


def _unit(name: str) -> str:
    if "jobs_per_s" in name:
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_call"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"write the answers of this run to expected/ (seed {RECORDED_SEED} only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fmtk", "__init__.py")):
        print(f"error: no fmtk sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fmtk

    if not os.path.abspath(fmtk.__file__).startswith(SRC + os.sep):
        print(f"error: fmtk was imported from {fmtk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != RECORDED_SEED:
        print(f"error: answers are recorded for seed {RECORDED_SEED} only", file=sys.stderr)
        return 2

    recorded = None if args.record else load_recorded(args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), recorded=recorded)
    for job_id, reason in result["failures"][:20]:
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)
    if args.record:
        if result["failures"]:
            print("error: not recording a run with failing checks", file=sys.stderr)
            return 1
        os.makedirs(EXPECTED, exist_ok=True)
        with open(os.path.join(EXPECTED, f"{args.workload}.json"), "w") as fh:
            json.dump({"seed": RECORDED_SEED, "answers": result["answers"]}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: {result['passes']} whole passes of "
          f"{result['jobs_per_pass']} jobs, {attempted} jobs run, fail_ratio {failed / attempted:.4f}; "
          f"percentiles over {result['jobs_per_pass']} per-job times (median scaled pass each)")
    for name, metric in result["metrics"].items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
