"""fpsystems benchmark: one workload per process, one thread.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --check-only

Run from the repository root.  Set-up (fresh import of fpsystems,
building the seeded inputs, warming lazy caches) is repeated and its
median reported as ``setup_s``.  With ``--trace 0`` the job list then
runs in passes until ``--seconds`` is spent; ``wall_s`` is the median
pass time.  These times are scaled to a reference host speed (see
``HostSpeed``).  With ``--trace 1`` one untraced pass is followed by two
traced passes, whose deterministic counts must agree, and the per-layer
metrics come from the second.  Every answer of every pass is checked
after the pass, outside the timed region.  The last line of stdout is
the JSON result; a readable table goes to stderr, and the full record
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
import oracle
import spans
from workloads import MIN_JOBS, WORKLOADS, JobError

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
CAL_MATRICES = [[[(i * j + j * k * k + 2 * i * k + j) % 3 for k in range(4)] for j in range(3)]
                for i in range(150)]
CAL_ITERATIONS = 12_000
CAL_REFERENCE_NS = 2_000_000
CAL_INTERVAL_S = 0.1
CAL_WINDOW_NS = 500_000_000

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
             "job_p90_ms": "ms", "peak_rss_mb": "MB"}


def job_percentiles(latencies_s: list) -> tuple[float, float]:
    """Median and 90th percentile in ms.  Fewer than 100 samples would
    leave under ten beyond p90, so such a run is rejected."""
    if len(latencies_s) < MIN_JOBS:
        raise ValueError(f"{len(latencies_s)} job latencies; p90 needs at least {MIN_JOBS}")
    p90 = statistics.quantiles(latencies_s, n=10)[8]
    return statistics.median(latencies_s) * 1e3, p90 * 1e3


def fresh_import(with_cli: bool):
    for name in [m for m in sys.modules if m == "fpsystems" or m.startswith("fpsystems.")]:
        del sys.modules[name]
    api = importlib.import_module("fpsystems")
    if with_cli:
        importlib.import_module("fpsystems.cli")
    return api


class HostSpeed:
    """Host speed, sampled by timing a fixed piece of pure-Python work.

    The shared host's speed drifts by up to ~1.5x over tens of seconds,
    and the program slows with it.  Scaling a time by
    CAL_REFERENCE_NS / (median sample) expresses it at the reference
    speed.  The work is an integer loop plus the oracle's rank by
    elimination over fixed small matrices.  Alone, the first slows less
    than the program when the host slows and the second slows more;
    together they track it best of the loops tried (also tuple and set
    building, random reads of a large dict).  The garbage collector is
    paused during a sample, whose time would otherwise depend on the
    program's heap.  The work never touches fpsystems, so no change to
    the program moves it.  Inside ``with``, a timer signal takes a
    sample every CAL_INTERVAL_S, also during long jobs; ``spent_ns`` is
    the time the samples took."""

    def __init__(self):
        self.ends: list[int] = []
        self.samples: list[int] = []
        self.spent_ns = 0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            gc_on = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter_ns()
            acc = 0
            for i in range(CAL_ITERATIONS):
                acc += i * i % 7
            for rows in CAL_MATRICES:
                oracle.rank(rows, 3)
            end = time.perf_counter_ns()
            if gc_on:
                gc.enable()
            self.ends.append(end)
            self.samples.append(end - t0)
            self.spent_ns += end - t0

    def __enter__(self):
        self.sample(3)
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample(3)

    def factor(self, t0: int | None = None, t1: int | None = None) -> float:
        """Scale factor from every sample, or from those taken within
        CAL_WINDOW_NS of the interval [t0, t1]."""
        window = self.samples
        if t0 is not None:
            lo = bisect.bisect_left(self.ends, t0 - CAL_WINDOW_NS)
            hi = bisect.bisect_right(self.ends, t1 + CAL_WINDOW_NS)
            window = self.samples[lo:hi] or self.samples
        return CAL_REFERENCE_NS / statistics.median(window)


def set_up(workload, seed: int, ref: dict):
    """Repeat the set-up; keep the last package and inputs.  Returns the
    median set-up time, raw and scaled to the reference host speed."""
    times, speed = [], HostSpeed()
    for _ in range(SETUP_REPEATS):
        speed.sample(3)
        t0 = time.perf_counter()
        api = fresh_import(workload.name == "cli-session")
        inputs = workload.setup(api, seed, ref, OUT / "work" / workload.name)
        times.append(time.perf_counter() - t0)
    speed.sample(3)
    jobs = workload.jobs(api, inputs)
    if len(jobs) < MIN_JOBS:
        raise ValueError(f"{workload.name} has {len(jobs)} jobs, fewer than {MIN_JOBS}")
    raw = statistics.median(times)
    return api, inputs, {"raw_s": raw, "scaled_s": raw * speed.factor()}


def run_pass(workload, api, inputs, tracer=None, speed=None):
    """Run every job once.  Returns (pass ns, job latencies in s,
    answers); a job that raised gets a JobError answer.  With ``speed``
    the host speed is sampled meanwhile: the samples' time is taken out
    of the pass and job times, and each latency is scaled by the samples
    around its job."""
    jobs = workload.jobs(api, inputs)
    clock = time.perf_counter_ns
    lat, answers, windows = [], [], []
    job_nid = tracer.name_id(spans.BENCH + ".job") if tracer else None
    with speed or contextlib.nullcontext():
        spent = speed.spent_ns if speed else 0
        start = clock()
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job_id = i
                sid = tracer.open(job_nid)
            before = speed.spent_ns if speed else 0
            t0 = clock()
            try:
                ans = job()
            except Exception as exc:  # a failing job is counted, not fatal
                ans = JobError(exc)
            t1 = clock()
            if tracer:
                tracer.close(sid)
            lat.append((t1 - t0 - ((speed.spent_ns - before) if speed else 0)) * 1e-9)
            windows.append((t0, t1))
            answers.append(ans)
        wall = clock() - start - ((speed.spent_ns - spent) if speed else 0)
    if speed:
        lat = [x * speed.factor(t0, t1) for x, (t0, t1) in zip(lat, windows)]
    return wall, lat, answers


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, workload, inputs, ref, answers) -> None:
        bad = workload.check(inputs, ref, answers)
        self.attempted += len(answers)
        indices = {i for i, _ in bad}
        # an index of None condemns the whole pass
        self.failed += len(answers) if None in indices else len(indices)
        self.messages += [msg for _, msg in bad[:5]]


def timed_run(workload, api, inputs, ref, seconds: float, tally: Tally) -> dict:
    """Passes until ``seconds`` are spent; the last pass may run over,
    so a workload with long passes still gets more than one.  A pass's
    scaled time is the sum of its scaled job latencies.  Every reported
    time is the median over passes, so one pass caught in a slow spell
    does not move it; raw times go to the results file."""
    walls, raw_walls, p50s, p90s, factors = [], [], [], [], []
    start = time.perf_counter()
    while True:
        speed = HostSpeed()
        wall_ns, lat, answers = run_pass(workload, api, inputs, speed=speed)
        tally.check(workload, inputs, ref, answers)
        factors.append(speed.factor())
        raw_walls.append(wall_ns * 1e-9)
        walls.append(sum(lat))
        p50, p90 = job_percentiles(lat)
        p50s.append(p50)
        p90s.append(p90)
        if time.perf_counter() - start >= seconds:
            break
    return {"wall_s": statistics.median(walls), "job_p50_ms": statistics.median(p50s),
            "job_p90_ms": statistics.median(p90s), "passes": len(walls),
            "pass_walls_s": walls, "raw_pass_walls_s": raw_walls, "speed_factors": factors}


def traced_run(workload, api, inputs, ref, tally: Tally, stem: Path) -> dict:
    untraced_ns, _, answers = run_pass(workload, api, inputs)
    tally.check(workload, inputs, ref, answers)
    metrics = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install(api, layers.HOOKS)
        try:
            wall_ns, _, answers = run_pass(workload, api, inputs, tracer)
        finally:
            tracer.uninstall()
        tally.check(workload, inputs, ref, answers)
        metrics.append(layers.layer_metrics(tracer, wall_ns, untraced_ns * 1e-9))
    first, last = metrics
    diff = count_diff(first["counts"], last["counts"])
    if diff:
        tally.messages.append(f"counts differ between traced passes: {diff[:10]}")
        tally.failed += 1
    roots = sum(tracer.end[i] - tracer.start[i] for i in range(tracer.span_count())
                if tracer.parent[i] < 0)
    unattributed = last["bench_self_s"] + (wall_ns - roots) * 1e-9
    if abs(last["attributed_s"] + unattributed - wall_ns * 1e-9) > 1e-6:
        tally.messages.append("layer self times do not add up to the traced wall time")
        tally.failed += 1
    tracer.write(stem, {"workload": workload.name, "wall_ns": wall_ns})
    return last


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fpsystems").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def count_diff(old: dict, new: dict) -> list:
    return sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))


def compare_counts(counts: dict, path: Path, tally: Tally) -> None:
    """Flag a deterministic count that differs from the one stored at
    ``path`` by an earlier traced run of the same source, workload and
    seed; the first run stores its counts there."""
    if path.is_file():
        diff = count_diff(json.loads(path.read_text()), counts)
        if diff:
            tally.messages.append(f"counts differ from an earlier run of this source: {diff[:10]}")
            tally.failed += 1
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))


def check_only(names: list, seed: int, ref: dict) -> int:
    """One untimed pass per workload, every answer checked."""
    worst = 0
    for name in names:
        workload = WORKLOADS[name]
        api, inputs, _ = set_up(workload, seed, ref)
        _, _, answers = run_pass(workload, api, inputs)
        tally = Tally()
        tally.check(workload, inputs, ref, answers)
        status = "ok" if tally.failed == 0 else "FAILED"
        print(f"{name}: {tally.attempted} jobs, {tally.failed} failed: {status}")
        for msg in tally.messages:
            print(f"  {msg}")
        worst = max(worst, int(tally.failed > 0))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true",
                        help="one untimed pass, answers checked; exit 1 on a failure")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fpsystems" / "__init__.py").is_file():
        print(f"error: no fpsystems sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    ref = json.loads((HERE / "reference.json").read_text())
    if args.check_only:
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        return check_only(names, args.seed, ref)
    if args.workload == "all":
        parser.error("--workload all needs --check-only")

    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    api, inputs, setup = set_up(workload, args.seed, ref)
    tally = Tally()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    fingerprint = source_fingerprint()
    if args.trace:
        traced = traced_run(workload, api, inputs, ref, tally, OUT / "spans" / workload.name)
        compare_counts(traced["counts"], OUT / "counts" /
                       f"{fingerprint[:16]}-{workload.name}-seed{args.seed}.json", tally)
        metrics = {name: {"value": traced["values"][name], "unit": layers.UNITS[name]}
                   for name, _, _ in layers.PER_LAYER}
        extra = {"counts": traced["counts"]}
    else:
        timed = timed_run(workload, api, inputs, ref, args.seconds, tally)
        values = {"setup_s": setup["scaled_s"], "wall_s": timed["wall_s"],
                  "job_p50_ms": timed["job_p50_ms"], "job_p90_ms": timed["job_p90_ms"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
        extra = {key: timed[key] for key in
                 ("passes", "pass_walls_s", "raw_pass_walls_s", "speed_factors")}
        extra["raw_setup_s"] = setup["raw_s"]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  fail_ratio=tally.failed / tally.attempted, jobs_per_pass=len(
                      workload.jobs(api, inputs)),
                  failures=tally.messages, git_commit=git_commit(),
                  source_sha256=fingerprint, python=platform.python_version(),
                  nproc=os.cpu_count(), cpu=cpu_model(), loadavg_before=load_before,
                  loadavg_after=os.getloadavg(), **extra)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {tally.attempted} jobs, "
          f"{tally.failed} failed (fail_ratio {record['fail_ratio']:g})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for msg in tally.messages:
        print(f"  FAILURE: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
