"""Smoke test of the benchmark itself: one short run per workload and mode.

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that the output checks reject deliberately wrong results, and that the
tracer reports a missing target as absent.  Run from the repository root:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_source()
from dtm2d.spectrum import Spectrum2D  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The layers each workload is built to stress, and their least share of op time.
STRESSED = {
    "catalog_solve": (("verify",), 75.0),
    "spectrum_high_order": (("solver", "rules"), 65.0),
    "transform_algebra": (("rules",), 90.0),
}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    report = run.benchmark(name, seed=7, seconds=0, trace=trace, setup_repeats=1)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        layers, floor = STRESSED[name]
        assert sum(report["all_metrics"][f"{layer}.share"]["value"] for layer in layers) >= floor
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert report["all_metrics"]["setup_raw_s"]["value"] > 0
        assert report["all_metrics"]["ops_failed_ratio"]["value"] == 0


def test_inputs_follow_the_seed():
    workload = WORKLOADS["spectrum_high_order"]
    assert run.inputs_digest(workload, 3) == run.inputs_digest(workload, 3)
    assert run.inputs_digest(workload, 3) != run.inputs_digest(workload, 4)


def _bump_one_entry(s: Spectrum2D) -> Spectrum2D:
    entries = dict(s.entries)
    key = min(entries)
    entries[key] += Fraction(1, 10**12)
    return Spectrum2D(s.order, s.origin, entries)


def test_catalog_check_rejects_wrong_results():
    workload = WORKLOADS["catalog_solve"]
    op = {"example": 2, "order": 40}
    status, text = workload.run(op)
    assert workload.check(op, (status, text))[0]
    assert not workload.check(op, (2, text))[0]
    payload = json.loads(text)
    payload["pde_residual"] = 1e-3
    assert not workload.check(op, (0, json.dumps(payload)))[0]
    assert not workload.check({"example": 2, "order": 41}, (status, text))[0]


def test_spectrum_check_rejects_wrong_results():
    workload = WORKLOADS["spectrum_high_order"]
    op = {"model": "example4", "order": 100, "c": Fraction(-3, 7)}
    report = workload.run(op)
    assert workload.check(op, report)[0]
    wrong = dataclasses.replace(report, spectrum=_bump_one_entry(report.spectrum))
    assert not workload.check(op, wrong)[0]


def test_transform_checks_reject_wrong_results():
    workload = WORKLOADS["transform_algebra"]
    for op in next(workload.rounds(random.Random(5)))[:4]:
        result = workload.run(op)
        assert workload.check(op, result)[0]
        assert not workload.check(op, _bump_one_entry(result))[0]


def test_tracer_reports_missing_target_as_absent():
    tracer = Tracer(targets=(("dtm2d.verify", "no_such_function", None),
                             ("dtm2d.verify", "eval2d", None)))
    tracer.install()
    try:
        assert tracer.absent == ["dtm2d.verify.no_such_function"]
        assert set(tracer.stats) == {"verify.eval2d"}
    finally:
        tracer.uninstall()
    import dtm2d.verify

    assert not hasattr(dtm2d.verify.eval2d, "__wrapped__")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
