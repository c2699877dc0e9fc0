"""Self-tests of the benchmark: its reference scorer, metric names and failure counting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from survscreen import (  # noqa: E402
    SurvivalDataset,
    dc_utility,
    hsic_pair,
    run_experiment,
    screen,
)
from survscreen.dataio import (  # noqa: E402
    build_manifest,
    write_manifest,
    write_ranking,
    write_records,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_dataset(seed: int, n: int = 40, p: int = 12) -> SurvivalDataset:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    times = np.exp(z[:, 0] + 0.5 * rng.standard_normal(n))
    status = (rng.random(n) < 0.7).astype(np.int8)
    status[:2] = (0, 1)
    return SurvivalDataset(times=times, status=status, covariates=z)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_hsic_matches_hsic_pair_and_screen(seed):
    d = small_dataset(seed)
    ref = reference.hsic_utilities(d.covariates, d.times, d.status)
    y = reference.standardize(d.times, d.status)
    pairwise = [hsic_pair(d.covariates[:, k], y) for k in range(d.p)]
    assert reference.agree(pairwise, ref)
    result = screen(d)
    assert reference.agree(result.omega, ref)
    assert np.array_equal(result.ranking, reference.ranking(ref))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_dcor_matches_dc_utility(seed):
    d = small_dataset(seed)
    ref = reference.dcor_utilities(d.covariates, d.times, d.status)
    assert reference.agree(dc_utility(d), ref)


def test_reference_ranking_breaks_ties_by_ascending_index():
    assert reference.ranking([0.5, 0.9, 0.5, 0.9]).tolist() == [1, 3, 0, 2]


def test_metric_names_match_benchmark_json():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in config["end_to_end"]]
    per_layer = [m["name"] for m in config["per_layer"]]
    for name in end_to_end + per_layer + [w["name"] for w in config["workloads"]]:
        assert NAME.fullmatch(name), name
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(spans.LAYER_METRICS)
    assert [m["unit"] for m in config["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["unit"] for m in config["per_layer"]] == list(spans.LAYER_METRICS.values())
    assert sorted(w["name"] for w in config["workloads"]) == sorted(run.WORKLOADS)


def _screen_case(tmp_path) -> run.Case:
    workload = run.Workload("tiny_screen", "screen", dict(model="cox", n=30, p=8))
    case = run.Case(workload, 5, tmp_path)
    case.clear("cli")
    result = screen(case.data)
    write_ranking(case.output(), result)
    manifest = build_manifest(
        command="screen", version="0", params={},
        inputs={case.input.name: case.input_info["sha256"]},
    )
    write_manifest(case.manifest(), manifest)
    return case


def test_correct_ranking_passes(tmp_path):
    case = _screen_case(tmp_path)
    inv = run.Invocation(1.0, 1.0, 1.0, 0, "", "")
    output = case.check_invocation(inv, None)
    assert inv.problems == []
    assert case.reference_problems(output, seed=5) == []


def test_perturbed_ranking_counts_as_failure(tmp_path):
    case = _screen_case(tmp_path)
    rows = [line.split(",") for line in case.output().read_text().splitlines()]
    rows[1][0], rows[2][0] = rows[2][0], rows[1][0]  # swap the covariates ranked 1 and 2
    case.output().write_text("".join(",".join(r) + "\n" for r in rows))

    inv = run.Invocation(1.0, 1.0, 1.0, 0, "", "")
    output = case.check_invocation(inv, None)
    problems = case.reference_problems(output, seed=5)
    assert any("differs from the reference" in p for p in problems)
    assert run.tally([inv], problems) == (1, 1)


def test_perturbed_records_count_as_failure(tmp_path):
    workload = run.Workload(
        "tiny_sim", "simulate", dict(model="cox", n=30, p=8), replications=2
    )
    case = run.Case(workload, 3, tmp_path)
    case.clear("cli")
    records, _ = run_experiment(case.scenario, replications=2)
    write_records(case.output(), records, case.scenario.active_set)
    good = case.output().read_bytes()
    assert case.reference_problems(good, seed=3) == []

    rep = 3 % workload.replications
    rows = good.decode().splitlines()
    fields = rows[1 + rep].split(",")
    fields[-1] = str(int(fields[-1]) % 8 + 1)
    rows[1 + rep] = ",".join(fields)
    problems = case.reference_problems(("\n".join(rows) + "\n").encode(), seed=3)
    assert problems
    inv = run.Invocation(1.0, 1.0, 1.0, 0, "", "")
    assert run.tally([inv], problems) == (1, 1)


def test_nonzero_exit_and_traceback_count_as_failures(tmp_path):
    children = run.Children(tmp_path, deadline=time.perf_counter() + 60)
    inv = children.run(["-c", "raise SystemExit(3)"])
    assert inv.problems == ["exit code 3"]
    inv = children.run(["-c", "import sys; sys.stderr.write('Traceback (most recent call last):')"])
    assert inv.problems == ["traceback on stderr"]


class SilentChildren(run.Children):
    """Children whose every child exits 0 and writes nothing."""

    def run(self, args):
        return super().run(["-c", "pass"])


def test_invocation_that_writes_nothing_counts_as_failure(tmp_path):
    case = _screen_case(tmp_path)
    expected = case.output().read_bytes()
    children = SilentChildren(tmp_path, deadline=time.perf_counter() + 60)
    samples, output = run.timed_invocations(case, children, 0.0)
    assert output is None
    assert samples and all("no output file" in inv.problems for inv in samples)
    assert all("no manifest" in inv.problems for inv in samples)
    inv, output = run.invoke(case, children, expected)
    assert output is None and "no output file" in inv.problems


def test_trace_child_that_writes_nothing_counts_as_failure(tmp_path):
    case = _screen_case(tmp_path)
    children = SilentChildren(tmp_path, deadline=time.perf_counter() + 60)
    with pytest.raises(RuntimeError, match="no traced run succeeded"):
        run.trace(case, children, 0.0, "t", tmp_path / "spans.jsonl")


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_matches_pinned_digests(name):
    assert run.generator_problems(run.WORKLOADS[name]) == []


def test_changed_generator_output_counts_as_failure(tmp_path, monkeypatch):
    pinned = json.loads(run.GENERATOR_DIGESTS.read_text())
    pinned["digests"]["sim_hsic"][0] = "0" * 64
    changed = tmp_path / "digests.json"
    changed.write_text(json.dumps(pinned))
    monkeypatch.setattr(run, "GENERATOR_DIGESTS", changed)
    problems = run.generator_problems(run.WORKLOADS["sim_hsic"])
    assert problems and "no longer gives the pinned data" in problems[0]


def _traced(case, tmp_path) -> list[dict]:
    """``child.py trace`` on ``case`` after one plain CLI run; returns its spans."""
    env = run.Children(tmp_path, 0.0).env
    case.clear("cli", "cold", "untraced", "traced")
    cli = subprocess.run(
        [sys.executable, "-m", "survscreen", *case.cli_args()], env=env, capture_output=True
    )
    assert cli.returncode == 0, cli.stderr
    spans_path = tmp_path / "spans.jsonl"
    passes = [case.cli_args(kind) for kind in ("cold", "untraced", "traced")]
    child = subprocess.run(
        [sys.executable, run.CHILD, "trace", "t", str(spans_path), json.dumps(passes)],
        env=env, capture_output=True,
    )
    assert child.returncode == 0, child.stderr
    for kind in ("cold", "untraced", "traced"):
        assert case.output(kind).read_bytes() == case.output().read_bytes()
    recorded = spans.read_spans(spans_path)
    assert {s["run"] for s in recorded} == {"t.cold", "t.untraced", "t.traced"}
    untraced = [s for s in recorded if s["run"] == "t.untraced"]
    assert [s["name"] for s in untraced] == ["pass"]
    return recorded


def test_traced_child_matches_cli_and_reports_every_layer(tmp_path):
    case = _screen_case(tmp_path)
    recorded = _traced(case, tmp_path)
    cli_calls = {s["name"] for s in recorded if s["run"] == "t.traced" and s["parent"] == 1}
    assert {"dataio.read_dataset", "screening.screen", "dataio.write_ranking",
            "dataio.sha256_file", "dataio.write_manifest"} <= cli_calls
    metrics = spans.layer_metrics(recorded)
    assert list(metrics) == list(spans.LAYER_METRICS)
    assert metrics["screening.screen_s"] > 0
    assert metrics["dataio.read_dataset_s"] > 0
    assert metrics["kernels.gram_entries"] == 30 * 30 * 9
    assert 0.0 < metrics["trace.coverage"] <= 1.0  # argparse dominates on tiny inputs


def test_traced_simulate_records_pool_and_serial_runs(tmp_path):
    workload = run.Workload(
        "tiny_sim", "simulate", dict(model="cox", n=30, p=8), replications=2
    )
    case = run.Case(workload, 3, tmp_path)
    recorded = _traced(case, tmp_path)
    for kind in ("untraced", "traced"):
        serial = case.out_dir(kind) / "records_jobs1.csv"
        assert serial.read_bytes() == case.output().read_bytes()
    metrics = spans.layer_metrics(recorded)
    assert metrics["evaluate.run_experiment_jobs1_s"] > 0
    assert metrics["evaluate.run_experiment_jobsN_s"] > 0
    assert metrics["simulate.calibrate_s"] > 0
    assert metrics["simulate.generate_s"] > 0
    assert metrics["dataio.write_records_s"] > 0
