"""dtm2d benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog_solve --seed 1 --seconds 25 --trace 0

One process, one client, one thread: each operation starts when the previous
one has finished and its output has been checked (checks are not timed).  The
run repeats whole rounds of operations until the timed operations add up to
``--seconds``.  ``--trace 0`` reports the end-to-end metrics, with operation
times in units of a reference computation timed during the same run (see
reference.py); ``--trace 1`` alternates untraced and traced rounds and
reports per-layer metrics from the traced ones.  Every metric is printed by
name and unit, then one JSON line with the full report, then the result line
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, time_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("cli", "solver", "verify", "rules", "taylor", "spectrum")
SETUP_REPEATS = 9
DIGEST_ROUNDS = 4
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
REF_EVERY_S = 0.1  # time the reference again after this much operation time
PROBE_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Import dtm2d from this checkout's src/, never from an installed copy."""
    if not (SRC / "dtm2d" / "__init__.py").is_file():
        sys.exit("error: no dtm2d sources under src/ next to perfbench/; "
                 "run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import dtm2d

    if Path(dtm2d.__file__).resolve().parent != SRC / "dtm2d":
        sys.exit(f"error: imported dtm2d from {dtm2d.__file__}, not from {SRC}")


def pin_to_one_cpu():
    """Pin this process (and the probes it starts) to one allowed CPU."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


# --------------------------------------------------------------------------
# Set-up time: fresh processes importing dtm2d and running the warm-up ops.
# --------------------------------------------------------------------------

def probe_setup(name: str) -> tuple[float, bool]:
    """Run one set-up probe (probe.py) in a fresh process:
    (set-up seconds, warm-up outputs ok)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["ok"]


# --------------------------------------------------------------------------
# The closed loop.
# --------------------------------------------------------------------------

def inputs_digest(workload, seed: int) -> str:
    """sha256 of the first DIGEST_ROUNDS rounds the seed generates."""
    schedule = workload.rounds(random.Random(seed))
    rounds = [[workload.describe(op) for op in next(schedule)]
              for _ in range(DIGEST_ROUNDS)]
    return hashlib.sha256(json.dumps(rounds).encode()).hexdigest()


class Loop:
    """Runs rounds until the timed ops reach `seconds`; checks every output."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.schedule = workload.rounds(random.Random(seed))
        self.tracer = tracer
        self.latencies: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.max_abs_err = 0.0
        self.rounds = 0
        self.reference: list[float] = []
        self.setup: list[tuple[float, bool]] = []
        self._since_reference = float("inf")

    def run(self, seconds: float, probes: int = 0) -> None:
        """Timed rounds, with `probes` set-up probes spread over the run so
        that they meet the same phases of machine speed as the operations."""
        for op in self.workload.warmup():
            self.workload.run(op)
        busy = 0.0
        # A traced run alternates untraced and traced rounds and stops on an
        # even count, so both halves see the same mix of strata.
        while busy < seconds or self.rounds == 0 or (self.tracer and self.rounds % 2):
            if len(self.setup) < probes and busy >= seconds * len(self.setup) / probes:
                self.setup.append(probe_setup(self.workload.name))
            traced = self.tracer is not None and self.rounds % 2 == 1
            for op in next(self.schedule):
                busy += self._one(op, traced)
            self.rounds += 1
        while len(self.setup) < probes:
            self.setup.append(probe_setup(self.workload.name))

    def _one(self, op, traced: bool) -> float:
        if self._since_reference >= REF_EVERY_S:
            self.reference.append(time_reference())
            self._since_reference = 0.0
        if traced:
            self.tracer.active = True
        start = perf_counter()
        try:
            output = self.workload.run(op)
            error = None
        except Exception:  # a failing op is counted, the loop keeps going
            error = traceback.format_exc()
        elapsed = perf_counter() - start
        if traced:
            self.tracer.active = False
        self.attempted += 1
        ok, err = (False, float("inf")) if error else self.workload.check(op, output)
        if not ok:
            self.failed += 1
            print(f"FAILED op {self.workload.describe(op)}\n{error or ''}", file=sys.stderr)
        self.max_abs_err = max(self.max_abs_err, err)
        self.latencies[traced].append(elapsed)
        self._since_reference += elapsed
        return elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves TAIL_BEYOND samples above it, or as many as a short run has."""
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def end_to_end(loop: Loop) -> dict:
    lat = loop.latencies[False]
    tail_s, tail_pct, tail_beyond = tail(lat)
    ref = statistics.fmean(loop.reference)
    setup = statistics.median(t for t, _ in loop.setup)
    return {
        "op_mean_ref": (statistics.fmean(lat) / ref, "ref"),
        "op_p50_ref": (statistics.median(lat) / ref, "ref"),
        "op_tail_ref": (tail_s / ref, "ref"),
        "ref_ms": (ref * 1e3, "ms"),
        "ops_per_s": ((loop.attempted - loop.failed) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_tail_beyond": (tail_beyond, "count"),
        "op_samples": (len(lat), "count"),
        "setup_s": (setup / ref * NOMINAL_S, "s"),
        "setup_raw_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_failed_ratio": (loop.failed / loop.attempted, "ratio"),
        "max_abs_err": (loop.max_abs_err, "abs"),
    }


def per_layer(loop: Loop, tracer) -> tuple[dict, list[str]]:
    """Per-op span metrics from the traced rounds, plus module shares."""
    traced, plain = loop.latencies[True], loop.latencies[False]
    ops, busy = len(traced), sum(traced)
    out = {}
    absent = list(tracer.absent)
    module_self = dict.fromkeys(LAYERS, 0.0)
    for span, st in tracer.stats.items():
        layer = span.split(".")[0]
        module_self[layer] = module_self.get(layer, 0.0) + st.self_s
        out[f"{span}.calls"] = (st.calls / ops, "calls/op")
        out[f"{span}.ms"] = (st.total_s * 1e3 / ops, "ms/op")
        out[f"{span}.self_ms"] = (st.self_s * 1e3 / ops, "ms/op")
    stats = tracer.stats
    if "verify.eval2d" in stats:
        entries = stats["verify.eval2d"].counts.get("entries", 0)
        out["verify.eval2d.entries"] = (entries / ops, "entries/op")
    if "rules.dt_product" in stats:
        useful = stats["rules.dt_product"].counts.get("useful_pairs", 0)
        lookups = stats["rules.dt_product"].counts.get("dense_lookups", 0)
        out["rules.dt_product.useful_pairs"] = (useful / ops, "pairs/op")
        out["rules.dt_product.dense_lookups"] = (lookups / ops, "lookups/op")
        if lookups:
            out["rules.dt_product.useful_ratio"] = (useful / lookups, "ratio")
        else:
            absent.append("rules.dt_product.useful_ratio (no calls)")
    if "solver.infer_missing_seed" in stats:
        st = stats["solver.infer_missing_seed"]
        exact = st.counts.get("exact", 0)
        out["solver.infer_missing_seed.exact_calls"] = (exact / ops, "calls/op")
        if st.calls:
            out["solver.infer_missing_seed.exact_ratio"] = (exact / st.calls, "ratio")
        else:
            absent.append("solver.infer_missing_seed.exact_ratio (no calls)")
    for layer in LAYERS:
        out[f"{layer}.share"] = (100.0 * module_self[layer] / busy, "%")
        path = SRC / "dtm2d" / f"{layer}.py"
        if path.is_file():
            out[f"{layer}.lines"] = (len(path.read_text(encoding="utf-8").splitlines()), "lines")
    out["trace.other.share"] = (100.0 * (busy - sum(module_self.values())) / busy, "%")
    out["trace.ops"] = (ops, "count")
    out["trace.overhead_ratio"] = ((ops / busy) / (len(plain) / sum(plain)), "ratio")
    return out, absent


def environment(pinned_cpu) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "allowed_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinned_cpu": pinned_cpu,
        "processes": 1,
        "threads": threading.active_count(),
    }


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              setup_repeats: int = SETUP_REPEATS, pinned_cpu=None) -> dict:
    """One run; returns the report (the result line is report["result"])."""
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        tracer = Tracer()
        tracer.install()
        loop = Loop(workload, seed, tracer)
        try:
            loop.run(seconds)
        finally:
            tracer.uninstall()
        metrics, absent = per_layer(loop, tracer)
    else:
        loop = Loop(workload, seed)
        loop.run(seconds, probes=setup_repeats)
        metrics, absent = end_to_end(loop), []
    emitted = {}
    for metric, unit in declared_metrics(trace):
        if metric in metrics:
            emitted[metric] = {"value": metrics[metric][0], "unit": metrics[metric][1]}
        elif metric not in absent:
            absent.append(metric)
    return {
        "workload": name,
        "why": workload.why,
        "params": workload.params,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs_digest": inputs_digest(workload, seed),
        "digest_rounds": DIGEST_ROUNDS,
        "rounds": loop.rounds,
        "setup_probes_s": [t for t, _ in loop.setup],
        "environment": environment(pinned_cpu),
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": absent,
        "result": {
            "correct": loop.failed == 0 and all(ok for _, ok in loop.setup),
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": emitted,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                       pinned_cpu=pin_to_one_cpu())
    for metric, entry in sorted(report["all_metrics"].items()):
        print(f"{metric:44s} {entry['value']:.6g} {entry['unit']}")
    for metric in report["absent"]:
        print(f"{metric:44s} absent")
    print(json.dumps({k: v for k, v in report.items() if k != "result"}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
