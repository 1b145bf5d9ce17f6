"""The benchmark's own tests: metric names, tiny-size runs of every
workload, seed isolation, agreement with the program's own drivers, and
traced runs matching untraced ones.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.probe import Probe
from perfbench.workloads import (REFERENCE, SAMPLED_WORKLOADS, WORKLOADS,
                                 CampaignParallel, HeadlineSerial,
                                 SampledMillion, headline_ratios)
from repro.analysis.experiments import run_headline
from repro.analysis.parallel import run_cells
from repro.analysis.sampling import SamplingConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name: str):
    """Each workload at a size that runs in a few seconds."""
    if name == "headline-serial":
        return HeadlineSerial(length=1000, names=("cjpeg", "gsmdec"))
    if name == "sampled-million":
        return SampledMillion(length=20_000, names=("cjpeg", "pgpdec"),
                              sampling=SamplingConfig(interval=300,
                                                      warmup=50,
                                                      samples=2))
    return CampaignParallel(length=2000, names=("cjpeg", "pgpdec"),
                            kinds=("value", "steer"))


def test_metric_names_are_plain():
    for name in run.METRICS:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_declared_metrics():
    for section, scope in (("end_to_end", "e2e"), ("per_layer", "layer")):
        listed = {entry["name"]: (entry["unit"], entry["better"])
                  for entry in BENCHMARK[section]}
        declared = {name: run.METRICS[name][:2]
                    for name in run.declared(scope)}
        assert listed == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_emits_every_declared_metric(name, trace):
    values, checks, _ = run.benchmark(tiny(name), seed=0, seconds=0.01,
                                      trace=trace)
    failed = [check for check, ok in checks if not ok]
    assert not failed
    # A declared metric is measured on every workload, so it never
    # reads zero; a report-only layer metric appears only on the one
    # workload that reaches its layer.
    for metric in run.declared("layer" if trace else "e2e"):
        assert isinstance(values[metric], (int, float)), metric
        assert values[metric] != 0, metric
    reported = {metric for metric, (_, _, where) in run.METRICS.items()
                if where == "layer-report"} & set(values)
    assert reported == (set(WORKLOADS[name].own_layers) if trace else set())
    for metric in reported:
        assert isinstance(values[metric], (int, float)), metric


def test_seed_changes_only_the_generated_inputs(tmp_path):
    headline = tiny("headline-serial")
    assert [dataclasses.replace(cell, seed=1)
            for cell in headline.cells(0)] == headline.cells(1)
    sampled = tiny("sampled-million")
    assert [dataclasses.replace(cell, seed=1)
            for cell in sampled.cells(0, tmp_path)] \
        == sampled.cells(1, tmp_path)
    campaign = tiny("campaign-parallel")
    first, second = campaign.arguments(0), campaign.arguments(1)
    assert first.pop("seeds") != second.pop("seeds")
    assert first == second
    # ...and the inputs really do change with it.
    assert (headline.run(0, tmp_path).digest
            != headline.run(1, tmp_path).digest)


def test_headline_at_seed_0_equals_run_headline():
    workload = HeadlineSerial(length=300, names=("cjpeg", "g721enc",
                                                 "pgpdec"))
    sims = run_cells(workload.cells(0), jobs=1)
    expected = run_headline(workloads=workload.names, length=300, jobs=1)
    assert headline_ratios(sims, workload.names) == expected.measured


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_give_identical_digests(name, tmp_path):
    workload = tiny(name)
    plain = workload.run(0, tmp_path)
    spool = tmp_path / "spool"
    spool.mkdir()
    with Probe(spool) as probe:
        traced = workload.run(0, tmp_path)
    assert traced.digest == plain.digest
    assert probe.counts["committed"] > 0


def test_paper_reference_is_the_programs_table():
    from repro.analysis.experiments import HeadlineResult
    assert REFERENCE["headline_paper"]["values"] == HeadlineResult().paper


def test_sampled_ipcs_at_seed_0_equal_the_recorded_ones(tmp_path):
    """The full 8 x 1M-instruction batch (about 20 s)."""
    batch = SampledMillion().run(0, tmp_path)
    assert all(ok for _, ok in batch.checks)
    sims = run_cells(SampledMillion().cells(0, tmp_path / "again"), jobs=1)
    recorded = REFERENCE["sampled_ipc_seed0"]["ipc"]
    assert {name: round(sims[name].ipc, 4)
            for name in SAMPLED_WORKLOADS} == recorded


def test_accuracy_is_missing_without_a_reference(tmp_path):
    seed = 7
    assert str(seed) not in REFERENCE["sampled_detailed_ipc"]
    batch = tiny("sampled-million").run(seed, tmp_path)
    assert batch.report == {"sampled_ipc_err_max": None,
                            "sampled_ipc_err_mean": None}


def test_ambient_settings_are_shadowed(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, REPRO_CACHE=str(cache), REPRO_JOBS="many",
               REPRO_TRACE_LEN="banana", REPRO_WORKLOADS="nonesuch",
               REPRO_CHUNKSIZE="huge")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "campaign-parallel", "--seed", "0", "--seconds", "0.01",
         "--trace", "0"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["correct"]
    assert not any(cache.iterdir())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "headline-serial", "--seed", "0", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_sampled_population_is_bench_wallclocks():
    spec = importlib.util.spec_from_file_location(
        "bench_wallclock", ROOT / "benchmarks" / "bench_wallclock.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.SAMPLED_WORKLOADS == SAMPLED_WORKLOADS
    assert module.SAMPLED_LENGTH == SampledMillion().length
