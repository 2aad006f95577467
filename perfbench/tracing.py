"""Spans around the public functions of each polylab layer.

The traced run wraps every public function of the layer modules, at
every module attribute it is reached through (`progressions.
equivalent_pairs` and `heart.equivalent_pairs` alike).  Private helpers
and per-letter methods such as `value()` are not wrapped, so their time
counts as the caller's.  A span records its name, start, end, parent
span and job; spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child
spans cover.
"""

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

from mpmath import mp, mpf

LAYERS = ("numerics", "monodromy", "connections", "progressions", "heart", "liouville", "cli")


def _out_bytes(a, _res) -> Dict[str, int]:
    argv = list(a["argv"] or [])
    if "--out" not in argv:
        return {"out_bytes": 0}
    with open(argv[argv.index("--out") + 1], "rb") as fh:
        return {"out_bytes": len(fh.read())}


def _perturbed(p) -> bool:
    return mpf(getattr(p, "coeff", 0)) != 0


# Exact counts taken from the arguments and results of selected functions.
COUNTERS: Dict[str, Callable[[Dict[str, Any], Any], Dict[str, Any]]] = {
    "connections.generate_sequence": lambda a, r: {
        "solves": len(r.entries), "bits": a["prec"].bits,
        "width_log2_max": max(int(mp.floor(mp.log(mpf(e.bracket_width), 2)))
                              for e in r.entries)},
    "monodromy.envelope_profile": lambda a, r: {"points": len(a["eps_values"]) * a["x_count"]},
    "progressions.interleaving_word": lambda a, r: {
        "letters": len(r.letters), "perturbed": _perturbed(a["p1"]) or _perturbed(a["p2"])},
    "progressions.words_equivalent_up_to_shift": lambda a, r: {"letters": r.overlap_letters},
    "heart.compare": lambda a, r: {
        "checked_depth": r.checked_depth, "undecided": r.undecided,
        "word_overlap": r.margins.get("word_overlap", 0)},
    "liouville.construct_A": lambda a, r: {"bits": a["prec"].bits, "witnesses": len(r[1])},
    "liouville.verify": lambda a, r: {"windows": len(a["witnesses"])},
    "cli.main": _out_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []          # [name, layer, job, parent, start, end]
        self.counts: Dict[int, Dict[str, Any]] = {}
        self.stack: List[int] = []
        self.job = -1
        self._patched: List[tuple] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, layer, self.job, stack[-1] if stack else -1, clock(), None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][5] = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[sid] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, lab) -> None:
        holders = [m for n, m in sys.modules.items() if n == "polylab" or n.startswith("polylab.")]
        for layer in LAYERS:
            mod = getattr(lab, layer)
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, fn)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, layer, job, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "layer": layer, "job": job,
                                     "parent": parent, "start": start, "end": end,
                                     **self.counts.get(sid, {})}) + "\n")


def neg_log_add_probe(lab, rng, calls: int = 400, repeats: int = 5) -> float:
    """Median microseconds per numerics.neg_log_add at 512 bits, gaps in [0, bits ln 2]."""
    nm = lab.numerics
    prec = nm.Precision(bits=512)
    with prec.work():
        cap = prec.bits * mp.log(2)
        pairs = []
        for _ in range(calls):
            y = mpf(rng.uniform(0, 50))
            pairs.append((nm.LogValue(y), nm.LogValue(y + cap * mpf(rng.random()))))
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in pairs:
            nm.neg_log_add(a, b, prec)
        per_call.append((time.perf_counter() - t0) / calls)
    return statistics.median(per_call) * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, job_kind: Dict[int, str], ref_jobs: set,
                  busy: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    `busy` is the summed wall time of the traced jobs, the base of every
    self_frac.  Exact counts are taken over `ref_jobs`, the run's first
    cycle, so they repeat exactly for a seed whatever the run length.
    A layer that does no work on the workload reports 0.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, layer, job, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self: Dict[str, float] = defaultdict(float)
    dur: Dict[str, List[float]] = defaultdict(list)
    own: Dict[str, List[float]] = defaultdict(list)
    rows: Dict[str, List[tuple]] = defaultdict(list)     # (duration, job, counts)
    for sid, (name, layer, job, parent, start, end) in enumerate(spans):
        d = end - start
        layer_self[layer] += d - child[sid]
        dur[name].append(d)
        own[name].append(d - child[sid])
        rows[name].append((d, job, tracer.counts.get(sid, {})))

    def mean_ms(name: str) -> float:
        return statistics.fmean(dur[name]) * 1e3 if dur[name] else 0.0

    def rate(name: str, key: str, keep=lambda job, c: True) -> float:
        picked = [(d, c[key]) for d, job, c in rows[name] if key in c and keep(job, c)]
        return _ratio(sum(n for _, n in picked), sum(d for d, _ in picked))

    def ref(name: str, key: str) -> List[Any]:
        return [c[key] for _, job, c in rows[name] if key in c and job in ref_jobs]

    m: Dict[str, float] = {f"{layer}.self_frac": _ratio(layer_self[layer], busy)
                           for layer in LAYERS}

    m["monodromy.envelope_ms"] = mean_ms("monodromy.envelope_profile")
    m["monodromy.grid_points_per_s"] = rate("monodromy.envelope_profile", "points")

    seq = "connections.generate_sequence"
    for label, keep in (("256", lambda j, c: job_kind.get(j) != "long" and c["bits"] == 256),
                        ("512", lambda j, c: c["bits"] == 512),
                        ("1024", lambda j, c: c["bits"] == 1024),
                        ("long", lambda j, c: job_kind.get(j) == "long")):
        per_index = rate(seq, "solves", keep)
        m[f"connections.solve_ms_{label}"] = 1e3 / per_index if per_index else 0.0
    m["connections.solves"] = float(sum(ref(seq, "solves")))
    m["connections.bracket_width_log2_max"] = float(max(ref(seq, "width_log2_max"), default=0))

    word = "progressions.interleaving_word"
    m["progressions.word_letters_per_s"] = rate(word, "letters", lambda j, c: not c["perturbed"])
    m["progressions.perturbed_letters_per_s"] = rate(word, "letters", lambda j, c: c["perturbed"])
    m["progressions.check_letters_per_s"] = rate("progressions.words_equivalent_up_to_shift",
                                                 "letters")
    m["progressions.reconstruct_ms"] = mean_ms("progressions.reconstruct_invariants")
    m["progressions.shift_search_us"] = mean_ms("progressions.equivalent_pairs") * 1e3
    m["progressions.irrationality_ms"] = mean_ms("progressions.irrationality_report")

    cmp_ = "heart.compare"
    m["heart.compare_self_ms"] = statistics.fmean(own[cmp_]) * 1e3 if own[cmp_] else 0.0
    m["heart.scan_n_per_s"] = _ratio(sum(c.get("checked_depth", 0) for _, _, c in rows[cmp_]),
                                     sum(own[cmp_]))
    m["heart.undecided_per_depth"] = _ratio(sum(ref(cmp_, "undecided")),
                                            sum(ref(cmp_, "checked_depth")))
    m["heart.invariants_ms"] = mean_ms("heart.invariants")
    m["heart.word_overlap"] = float(sum(ref(cmp_, "word_overlap")))

    m["liouville.construct_ms"] = mean_ms("liouville.construct_A")
    m["liouville.verify_ms"] = mean_ms("liouville.verify")
    bits = ref("liouville.construct_A", "bits")
    m["liouville.bits_mean"] = statistics.fmean(bits) if bits else 0.0
    m["liouville.windows_per_s"] = rate("liouville.verify", "windows")

    calls = len(dur["cli.main"])
    m["cli.self_ms"] = _ratio(layer_self["cli"], calls) * 1e3
    out = ref("cli.main", "out_bytes")
    m["cli.out_kb"] = sum(out) / 1024 / len(out) if out else 0.0
    return m
