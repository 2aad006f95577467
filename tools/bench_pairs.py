"""Alternating parent/change runs of the perfbench end-to-end benchmark.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds S [S ...] --pairs K --out FILE.json

DIR is the root of a source tree (src/, perfbench/, BENCHMARK.json).
Pair i runs the change tree's BENCHMARK.json `command` with `--workload W
--seed S_i --seconds T --trace 0`, T being its `run_seconds`, once in each
tree, the parent first on even i and the change first on
odd i, so a drift of the host's speed does not favour one side.  Seeds
are taken in order and cycled if there are fewer than K.  Runs already
in --out are kept, so one file can gather several workloads; the
summary is recomputed over all of them.  A metric is marked unresolved
when it has fewer than 3 pairs or when either side's quartile distance,
over the parent's median, exceeds the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(tree: Path, command, workload: str, seed: int, seconds: float) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln)["detail"] for ln in lines if ln.startswith('{"detail"'))
    return {"jobs": detail["jobs"], "result": json.loads(lines[-1]), "seed": seed,
            "slowdown": detail["slowdown"], "workload": workload}


def machine() -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "python": platform.python_version()}


def commit_of(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(runs, spec) -> dict:
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        # the k-th parent and the k-th change run of a workload form pair k
        side = {s: [r for r in runs if r["workload"] == wl and r["side"] == s]
                for s in ("parent", "change")}
        pairs = min(len(v) for v in side.values())
        entry = {"pairs": pairs,
                 "failed": {s: sum(r["result"]["failed"] for r in side[s])
                            for s in ("change", "parent")}}
        for m in spec["end_to_end"]:
            name = m["name"]
            val = {s: [r["result"]["metrics"][name]["value"] for r in side[s][:pairs]]
                   for s in side}
            higher = m["better"] == "higher"
            p_med, c_med = statistics.median(val["parent"]), statistics.median(val["change"])
            p_iqr, c_iqr = iqr(val["parent"]), iqr(val["change"])
            entry[name] = {
                "parent_median": p_med, "change_median": c_med,
                "parent_iqr": p_iqr, "change_iqr": c_iqr,
                "unresolved": pairs < 3 or max(p_iqr, c_iqr) / p_med > m["bound"],
                "change_over_parent": c_med / p_med,
                "change_wins": sum((c > p) if higher else (c < p)
                                   for p, c in zip(val["parent"], val["change"])),
            }
        out[wl] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"runs": []}
    runs = doc["runs"]
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            run = run_side(trees[side], spec["command"], args.workload, seed, seconds)
            run["side"] = side
            runs.append(run)
            metrics = run["result"]["metrics"]
            print(f"{args.workload} seed {seed} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items()), flush=True)
    doc.update({
        "benchmark": " ".join(spec["command"])
                     + f" --workload W --seed S --seconds {seconds:g} --trace 0",
        "machine": machine(),
        "method": "alternating parent/change pairs, each side run from its own copy of the "
                  "source tree; even pairs run the parent first, odd pairs the change first; "
                  "parent_iqr and change_iqr are the distances between the quartiles of each "
                  "side's runs; change_wins counts the pairs where the change is better; "
                  "unresolved marks a metric with fewer than 3 pairs or with a quartile "
                  "distance over the parent median above the metric's bound",
        "parent_commit": commit_of(trees["parent"]),
        "runs": runs,
        "summary": summarize(runs, spec),
    })
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
