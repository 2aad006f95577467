"""End-to-end benchmark of polylab over four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: polylab is imported from
`src/`, never from an installed copy, and the run fails without it.
One client runs a closed loop of whole job cycles until the jobs have
taken --seconds of wall time; every output is then checked against its
oracle, outside the timed region.  The last line of stdout is the
result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  Scratch files, spans and exact-counter records go to
`.perfbench_out/`.  See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
EDGE_TICKS = 6              # ticks taken before and after each job and set-up
TICK_PERIOD_S = 0.05        # wall time between the ticks taken during a job


def load_polylab() -> SimpleNamespace:
    """Import polylab afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "polylab" / "__init__.py").is_file():
        raise SystemExit(f"no polylab sources under {src}; run from a source checkout")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "polylab" or n.startswith("polylab.")]:
        del sys.modules[name]
    package = importlib.import_module("polylab")
    if Path(package.__file__).resolve().parent != (src / "polylab").resolve():
        raise SystemExit(f"polylab imported from {package.__file__}, not from {src}")
    mods = {n: importlib.import_module(f"polylab.{n}")
            for n in tracing.LAYERS + ("errors",)}
    return SimpleNamespace(package=package, **mods)


def environment(seed: int) -> Dict[str, Any]:
    import mpmath
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "seed": seed, "commit": commit}


def set_up(cls, seed: int, workdir: Path):
    """Import polylab, draw the inputs, write the fixtures and warm up; timed as one."""
    t0 = time.perf_counter()
    lab = load_polylab()
    wl = cls(lab, seed, workdir)
    wl.warm_up()
    return time.perf_counter() - t0, wl


@dataclass
class Record:
    job: workloads.Job
    wall: float
    cpu: float
    slowdown: float     # mean of the ticks around and during the job
    res: Any = None
    error: Optional[str] = None
    counts: Dict[str, Any] = field(default_factory=dict)


with mp.workprec(96):
    TICK_STEP, TICK_FREE = mp.sqrt(2), mpf(1) / 3


def tick_mpf() -> float:
    """One sample of the machine's slowdown: a fixed kernel's time over its nominal time.

    The kernel is the shape of polylab's inner loops: mpf products, sums
    and comparisons at 96 bits in a Python loop, so a shared host that
    runs slower for a while slows both alike.  mpf arithmetic keeps no
    caches, and workprec restores the precision it found, so a tick may
    run between any two bytecodes of a job.  The nominal time, 1.5 ms,
    defines the machine speed that the reported figures describe.
    """
    t0 = time.perf_counter()
    with mp.workprec(96):
        s = mpf(0)
        for i in range(150):
            x, y = TICK_STEP * i + TICK_FREE, mpf(i) + TICK_FREE
            if abs(x - y) > s:
                s += 1
    return (time.perf_counter() - t0) / 0.0015


TICK_PRODUCT = 3 ** 56000 + 1                   # about 89,000 bits
TICK_DIVIDEND, TICK_DIVISOR = 3 ** 30000, 5 ** 7000 + 1


def tick_bigint() -> float:
    """The slowdown sample of a workload whose time goes into 10^5-bit mantissas.

    It times a product of 89,000-bit integers and a division of a
    48,000-bit integer by a 16,000-bit one, each against its nominal
    time (2 ms and 1 ms), and weighs the two alike.  A host slowdown
    stretches products more than divisions, and the liouville jobs
    about halfway between.
    """
    t0 = time.perf_counter()
    TICK_PRODUCT * (TICK_PRODUCT + 2)
    t1 = time.perf_counter()
    divmod(TICK_DIVIDEND, TICK_DIVISOR)
    t2 = time.perf_counter()
    return ((t1 - t0) / 0.002 + (t2 - t1) / 0.001) / 2


TICKS = {"mpf": tick_mpf, "bigint": tick_bigint}


def edge_ticks(tick) -> List[float]:
    return [tick() for _ in range(EDGE_TICKS)]


class Ticker:
    """Takes a tick every TICK_PERIOD_S of wall time while armed, on SIGALRM.

    The ticks run in the main thread between bytecodes of the job.  Their
    wall and CPU time accumulate in `wall` and `cpu`, to be taken out of
    the job's own times.
    """

    def __init__(self, kind: str, enabled: bool):
        self.tick = TICKS[kind]
        self.enabled = enabled
        self.ticks: List[float] = []
        self.wall = self.cpu = 0.0

    def _on_alarm(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.ticks.append(self.tick())
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    def arm(self, on: bool) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S if on else 0, TICK_PERIOD_S)

    def __enter__(self):
        if self.enabled:
            self.old = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)


def execute(wl, seconds: float, workdir: Path, tracer=None, jobs=None) -> List[Record]:
    """Closed loop, one client: whole cycles until the jobs took `seconds`.

    With `jobs` given, runs exactly those jobs instead.  The workload's
    tick is taken before and after every job, and during it in an
    untraced timed loop.
    """
    with Ticker(wl.tick, tracer is None and jobs is None) as ticker:
        return _loop(wl, seconds, workdir, tracer, jobs, ticker)


def _loop(wl, seconds, workdir, tracer, jobs, ticker: Ticker) -> List[Record]:
    records: List[Record] = []
    busy = 0.0
    i = 0
    before = edge_ticks(ticker.tick)

    def more() -> bool:
        if jobs is not None:
            return i < len(jobs)
        return i == 0 or i % len(wl.cycle) != 0 or busy < seconds

    while more():
        job = jobs[i] if jobs is not None else wl.jobs[i % len(wl.jobs)]
        out = str(workdir / f"out{i}{'t' if tracer else ''}")
        if tracer is not None:
            tracer.job = i
        res = error = None
        n0, tick_wall, tick_cpu = len(ticker.ticks), ticker.wall, ticker.cpu
        ticker.arm(True)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            res = wl.run(job, out)
        except Exception as exc:  # a job that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            ticker.arm(False)
        wall = time.perf_counter() - t0 - (ticker.wall - tick_wall)
        cpu = time.process_time() - c0 - (ticker.cpu - tick_cpu)
        after = edge_ticks(ticker.tick)
        samples = before + ticker.ticks[n0:] + after
        records.append(Record(job, wall, cpu, statistics.mean(samples), res, error))
        before = after
        busy += wall
        i += 1
    return records


def check_outputs(wl, records: List[Record], state_path: Path) -> None:
    """Oracle checks, outside the timed region, and the exact-counter drift check.

    Counters of each pooled job are kept per seed and code state in
    `state_path`; a job whose counters differ from an earlier run of the
    same code with the same seed fails.
    """
    state = json.loads(state_path.read_text()) if state_path.is_file() else {}
    for rec in records:
        if rec.error is not None:
            continue
        try:
            rec.counts = wl.check(rec.job, rec.res)
        except workloads.CheckFailed as exc:
            rec.error = f"check: {exc}"
            continue
        except Exception as exc:  # an unreadable output fails its check
            rec.error = f"check raised {type(exc).__name__}: {exc}"
            continue
        key = str(rec.job.index)
        if state.setdefault(key, rec.counts) != rec.counts:
            rec.error = f"counter drift: {rec.counts} != {state[key]}"
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, state_path)


def code_digest() -> str:
    """Hash of the polylab and benchmark sources: counters are compared within one code state."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polylab").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def quantile(xs: List[float], pct: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def job_metrics(records: List[Record], setup_s: float, tail_count: int,
                factors: List[float]) -> Dict[str, Any]:
    """End-to-end metrics of `records`, each job's times multiplied by its factor.

    `job_tail_ms` is the median of the `tail_count` slowest latencies.
    """
    walls = [r.wall * f for r, f in zip(records, factors)]
    failed = sum(1 for r in records if r.error)
    return {
        "jobs_per_s": ((len(records) - failed) / sum(walls), "1/s"),
        "job_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "job_tail_ms": (statistics.median(sorted(walls)[-tail_count:]) * 1e3, "ms"),
        "cpu_per_job_ms": (sum(r.cpu * f for r, f in zip(records, factors)) / len(records) * 1e3,
                           "ms"),
        "fail_frac": (failed / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def end_to_end(records: List[Record], setup_s: float, raw_setup_s: float, tail_kind: str):
    """End-to-end metrics, with times scaled to the nominal machine speed.

    The host's speed drifts by tens of percent within seconds.  Each
    job's wall and CPU time is divided by its slowdown, so a job on a
    slowed host counts what it would have taken at the speed where the
    workload's tick reads 1.  `setup_s` comes scaled the same way.
    Raw values go to the detail line.

    The tail is read where it is a median of like jobs.  Runs are whole
    cycles, so the k jobs of the slowest kind fill the top k places of
    the sorted latencies, and `job_tail_ms` is the median of those k.
    """
    n, k = len(records), sum(1 for r in records if r.job.kind == tail_kind)
    nominal = [1 / r.slowdown for r in records]
    metrics = job_metrics(records, setup_s, k, nominal)
    raw = job_metrics(records, raw_setup_s, k, [1.0] * n)
    walls = [r.wall * f for r, f in zip(records, nominal)]
    # the highest whole percentile with at least ten samples beyond it:
    # recorded, not reported, because it can fall between two job kinds
    pct10 = math.floor(100 * (1 - 10 / n)) if n > 10 else None
    return metrics, {
        "tail_percentile": 100 * (n - (k + 1) / 2) / (n - 1) if n > 1 else 50.0,
        "tail_samples_beyond": sum(1 for w in walls if w > metrics["job_tail_ms"][0] / 1e3),
        "tail10_percentile": pct10,
        "tail10_ms": quantile(walls, pct10) * 1e3 if pct10 is not None else None,
        "slowdown": statistics.median(r.slowdown for r in records),
        "raw_metrics": {name: v for name, (v, _) in raw.items()}}


def exact_totals(records: List[Record]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for rec in records:
        for key, val in rec.counts.items():
            totals[key] = totals.get(key, 0) + int(val)
    return totals


def bench(name: str, seed: int, seconds: float, trace: bool):
    cls = workloads.WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        times, scaled_times = [], []
        for _ in range(SETUP_REPEATS):
            tick = TICKS[cls.tick]
            before = edge_ticks(tick)
            dt, wl = set_up(cls, seed, workdir)
            slowdown = statistics.mean(before + edge_ticks(tick))
            times.append(dt)
            scaled_times.append(dt / slowdown)
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install(wl.lab)
            try:
                records = execute(wl, seconds, workdir, tracer)
            finally:
                tracer.uninstall()
            replay = execute(wl, seconds, workdir, jobs=[r.job for r in records])
        else:
            records = execute(wl, seconds, workdir)
        (OUT / "counters").mkdir(exist_ok=True)
        check_outputs(wl, records, OUT / "counters" / f"{name}-{seed}-{code_digest()}.json")
        detail: Dict[str, Any] = {
            "workload": name, "environment": environment(seed),
            "jobs": len(records), "cycles": len(records) // len(wl.cycle),
            "measured_s": sum(r.wall for r in records), "setup_runs_s": times,
            "rejected_draws": dict(wl.rejected), "exact_counters": exact_totals(records),
            "kind_wall_ms": {k: [round(r.wall * 1e3, 1) for r in records if r.job.kind == k]
                             for k in dict.fromkeys(wl.cycle)},
            "failures": [f"job {i} ({r.job.kind}): {r.error}"
                         for i, r in enumerate(records) if r.error],
        }
        if tracer is not None:
            busy = sum(r.wall for r in records)
            ref_jobs = set(range(len(wl.cycle)))
            per_layer = tracing.layer_metrics(tracer, {i: r.job.kind for i, r in enumerate(records)},
                                              ref_jobs, busy)
            per_layer["numerics.neg_log_add_us"] = tracing.neg_log_add_probe(
                wl.lab, random.Random(f"probe:{seed}"))
            per_layer["trace.overhead_frac"] = busy / sum(r.wall for r in replay) - 1
            tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
            units = {m["name"]: m["unit"] for m in declared()["per_layer"]}
            metrics = {k: (v, units[k]) for k, v in per_layer.items()}
            detail["spans"] = len(tracer.spans)
        else:
            metrics, extra = end_to_end(records, statistics.median(scaled_times),
                                        statistics.median(times), wl.tail_kind)
            detail.update(extra)
        return metrics, detail, records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def declared() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(metrics, detail, records, trace: bool) -> Dict[str, Any]:
    failed = sum(1 for r in records if r.error)
    print(f"workload {detail['workload']}: {len(records)} jobs in {detail['cycles']} cycles, "
          f"{failed} failed, {detail['measured_s']:.2f} s measured")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    names = [m["name"] for m in declared()["per_layer" if trace else "end_to_end"]]
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names}}


def smoke(seed: int) -> int:
    """One cycle of every workload: schema, oracles, and that corrupted outputs fail."""
    spec = declared()
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        for trace in (False, True):
            metrics, detail, records = bench(name, seed, 0, trace)
            result = report(metrics, detail, records, trace)
            want = spec["per_layer" if trace else "end_to_end"]
            if not result["correct"]:
                problems.append(f"{name}: {detail['failures']}")
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} missing or in another unit")
                elif not trace and not got["value"] > 0:
                    problems.append(f"{name}: end-to-end metric {m['name']} is not positive")
        workdir = OUT / f"smoke-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, wl = set_up(cls, seed, workdir)
            records = execute(wl, 0, workdir)
            for rec in records:
                wl.check(rec.job, rec.res)
                wl.corrupt(rec.job, rec.res)
                try:
                    wl.check(rec.job, rec.res)
                    problems.append(f"{name}: corrupted {rec.job.kind} output passed its check")
                except workloads.CheckFailed:
                    pass
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one-cycle self-check of every workload, its metrics and oracles")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polylab" / "__init__.py").is_file():
        print(f"no polylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    metrics, detail, records = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(metrics, detail, records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
