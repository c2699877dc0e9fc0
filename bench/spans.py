"""Span recorder and the per-layer metrics derived from its spans.

A span is one call into a layer of survscreen, timed from the benchmark's
own code: name, start, end, parent span and run id, plus counts (``attrs``)
taken at the same boundary. Spans stay in memory and are written out as
JSON lines when a run ends.

A traced child process makes three runs, each a list of spans under one
root span named ``pass``. In each, ``survscreen.cli.main`` runs under a
``cli.main`` span whose children are the CLI's calls into the layers:

  cold      ``cli.import``, then the CLI in a fresh interpreter, so its
            first calls pay lazy set-up;
  untraced  the CLI again, warm, with the recorder off except for the root;
  traced    the same, with every span recorded.

The warm passes are followed, under the root but outside ``cli.main``, by
measurements the CLI never makes on its own: the response Gram, and on the
simulate path each replication's ``generate``, one warm ``screen`` and a
serial ``run_experiment``.

This module uses the standard library only, so importing it in a child
does not load numpy before the import of survscreen is timed.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

#: Per-layer metrics with their units, in the order they are printed.
LAYER_METRICS = {
    "cli.import_s": "s",
    "dataio.read_dataset_s": "s",
    "dataio.read_mb_per_s": "MB/s",
    "dataio.write_ranking_s": "s",
    "dataio.manifest_s": "s",
    "dataio.write_records_s": "s",
    "kernels.response_gram_s": "s",
    "kernels.gram_entries": "count",
    "screening.screen_s": "s",
    "screening.score_ns_per_entry": "ns",
    "screening.first_call_extra_s": "s",
    "screening.score_computed_gb_per_s": "GB/s",
    "screening.dc_utility_s": "s",
    "screening.dc_ns_per_entry": "ns",
    "simulate.calibrate_s": "s",
    "simulate.generate_s": "s",
    "evaluate.run_experiment_jobs1_s": "s",
    "evaluate.run_experiment_jobsN_s": "s",
    "evaluate.pool_speedup": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

MANIFEST_SPANS = ("dataio.sha256_file", "dataio.build_manifest", "dataio.write_manifest")


class Recorder:
    """Collects the spans of one run; with ``enabled=False`` only the root is kept."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled and self._stack:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
            "start": None,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def write_spans(path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _runs(spans: list[dict]) -> dict[str, dict[str, list[dict]]]:
    """spans grouped as {child: {pass: [spans]}}; run ids are '<child>.<pass>'."""
    out: dict[str, dict[str, list[dict]]] = {}
    for span in spans:
        child, _, kind = span["run"].rpartition(".")
        out.setdefault(child, {}).setdefault(kind, []).append(span)
    return out


def _child_metrics(runs: dict[str, list[dict]]) -> dict[str, float]:
    cold, traced = runs["cold"], runs["traced"]
    untraced_root = runs["untraced"][0]

    def cli_calls(spans) -> list[dict]:
        main = next(s for s in spans if s["name"] == "cli.main")
        return [s for s in spans if s["parent"] == main["id"]]

    cli_cold, cli = cli_calls(cold), cli_calls(traced)
    extra = [s for s in traced if s["parent"] == traced[0]["id"] and s["name"] != "cli.main"]

    def find(spans, name) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def seconds(spans, name) -> float:
        hits = find(spans, name)
        return _duration(hits[0]) if hits else 0.0

    m = dict.fromkeys(LAYER_METRICS, 0.0)
    m["cli.import_s"] = seconds(cold, "cli.import")

    read = find(cli, "dataio.read_dataset")
    if read:
        m["dataio.read_dataset_s"] = _duration(read[0])
        m["dataio.read_mb_per_s"] = read[0]["attrs"]["bytes"] / 1e6 / _duration(read[0])
    m["dataio.write_ranking_s"] = seconds(cli, "dataio.write_ranking")
    m["dataio.manifest_s"] = sum(seconds(cli, name) for name in MANIFEST_SPANS)
    m["dataio.write_records_s"] = seconds(cli, "dataio.write_records")

    screen = find(cli + extra, "screening.screen")
    if screen:
        n, p = screen[0]["attrs"]["n"], screen[0]["attrs"]["p"]
        m["screening.screen_s"] = _duration(screen[0])
        m["kernels.response_gram_s"] = seconds(extra, "kernels.response_gram")
        m["kernels.gram_entries"] = float(n * n * (p + 1))
        score = m["screening.screen_s"] - m["kernels.response_gram_s"]
        m["screening.score_ns_per_entry"] = score / (n * n * p) * 1e9
        m["screening.score_computed_gb_per_s"] = 16.0 * n * n * p / score / 1e9
    dc = find(cli, "screening.dc_utility")
    if dc:
        n, p = dc[0]["attrs"]["n"], dc[0]["attrs"]["p"]
        m["screening.dc_utility_s"] = _duration(dc[0])
        m["screening.dc_ns_per_entry"] = _duration(dc[0]) / (n * n * p) * 1e9
    # The CLI's scoring call: in a fresh interpreter, and warm.
    for name in ("screening.screen", "screening.dc_utility", "evaluate.run_experiment"):
        if find(cli, name):
            m["screening.first_call_extra_s"] = seconds(cli_cold, name) - seconds(cli, name)

    m["simulate.calibrate_s"] = seconds(cli_cold, "simulate.censoring_scale")
    generate = [_duration(s) for s in find(extra, "simulate.generate")]
    if generate:
        m["simulate.generate_s"] = statistics.median(generate)
    serial = find(extra, "evaluate.run_experiment")
    pooled = find(cli, "evaluate.run_experiment")
    if serial and pooled:
        m["evaluate.run_experiment_jobs1_s"] = _duration(serial[0])
        m["evaluate.run_experiment_jobsN_s"] = _duration(pooled[0])
        m["evaluate.pool_speedup"] = _duration(serial[0]) / _duration(pooled[0])

    main = next(s for s in traced if s["name"] == "cli.main")
    m["trace.overhead_s"] = _duration(traced[0]) - _duration(untraced_root)
    m["trace.coverage"] = sum(_duration(s) for s in cli) / _duration(main)
    return m


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric, as the median over the traced children.

    A layer that the workload's CLI path does not call reports 0.
    """
    per_child = [_child_metrics(runs) for runs in _runs(spans).values()]
    return {
        name: float(statistics.median(m[name] for m in per_child)) for name in LAYER_METRICS
    }
