"""Child process of the benchmark: environment probe, set-up timing, traced run.

  python3 child.py env
  python3 child.py setup [SCENARIO_JSON]
  python3 child.py trace TAG SPANS_OUT PASSES_JSON

``env`` prints the environment block as JSON. ``setup`` times a fresh
interpreter's ``import survscreen`` (and, given a scenario, the first
``censoring_scale`` call) and prints it. ``trace`` runs ``survscreen.cli.main``
three times in one fresh interpreter, with the layer functions that the CLI
calls wrapped in spans: cold, warm with the recorder off, and warm with every
span recorded. PASSES_JSON holds the CLI arguments of the three passes. After
each warm pass come the measurements the CLI never makes on its own (see
``extra_calls``). survscreen is found through PYTHONPATH.

Only the standard library is imported at module level, so the import of
survscreen (and numpy behind it) is what ``setup`` and the ``cli.import``
span time.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time

from spans import Recorder, write_spans

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SURVSCREEN_JOBS")


def cache_sizes() -> dict[str, str]:
    """L2 and last-level cache sizes of cpu0, as the kernel reports them."""
    levels = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            levels[level] = size
    out = {"L2": levels.get(2, "unknown")}
    out["LLC"] = f"L{max(levels)} {levels[max(levels)]}" if levels else "unknown"
    return out


def env_block() -> dict:
    import numpy as np

    import survscreen
    from survscreen import cli

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "env_as_child_saw_it": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "jobs_resolved": cli._default_jobs(),
        "cache": cache_sizes(),
        "survscreen": survscreen.__version__,
    }


def timed_setup(scenario_json: str | None) -> float:
    start = time.perf_counter()
    import survscreen

    if scenario_json:
        survscreen.censoring_scale(survscreen.SimScenario(**json.loads(scenario_json)))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# spans around the CLI's own calls


def _size(data, *args, **kwargs) -> dict:
    return {"n": data.n, "p": data.p}


#: Names that ``survscreen.cli`` imports and calls into a layer with, the
#: span each call gets, and the counts recorded with it.
CLI_CALLS = {
    "read_dataset": ("dataio.read_dataset", lambda path, *a, **k: {"bytes": os.path.getsize(path)}),
    "read_scenario": ("dataio.read_scenario", None),
    "screen": ("screening.screen", _size),
    "dc_utility": ("screening.dc_utility", _size),
    "write_ranking": ("dataio.write_ranking", None),
    "sha256_file": ("dataio.sha256_file", None),
    "build_manifest": ("dataio.build_manifest", None),
    "write_manifest": ("dataio.write_manifest", None),
    "censoring_scale": ("simulate.censoring_scale", None),
    "run_experiment": (
        "evaluate.run_experiment",
        lambda *a, **k: {"jobs": k["parallelism"], "reps": k["replications"]},
    ),
    "write_records": ("dataio.write_records", None),
}


class CliTracer:
    """Replaces the ``CLI_CALLS`` names in ``survscreen.cli`` with wrappers that
    record a span on the current recorder and keep each call's arguments and
    result, so the extra measurements can reuse the CLI's own inputs."""

    def __init__(self, cli):
        self.cli = cli
        self.rec = Recorder("unset", enabled=False)
        self.calls: dict[str, tuple[tuple, dict, object]] = {}
        for attr, (name, counts) in CLI_CALLS.items():
            setattr(cli, attr, self._wrap(attr, getattr(cli, attr), name, counts))

    def _wrap(self, attr, fn, name, counts):
        def wrapper(*args, **kwargs):
            with self.rec.span(name, **(counts(*args, **kwargs) if counts else {})):
                result = fn(*args, **kwargs)
            self.calls[attr] = (args, kwargs, result)
            return result

        return wrapper

    def main(self, rec: Recorder, cli_args: list[str]) -> None:
        """``survscreen <cli_args>`` under one ``cli.main`` span on ``rec``."""
        self.rec = rec
        self.calls.clear()
        with rec.span("cli.main"):
            code = self.cli.main(cli_args)
        if code != 0:
            raise SystemExit(f"survscreen {' '.join(cli_args)} exited with {code}")


def _response_gram(rec: Recorder, data, spec) -> None:
    from survscreen import kernels, screening

    y = screening.standardize(data.times, data.status).y
    with rec.span("kernels.response_gram", n=data.n):
        kernels.center(kernels.gram(y, spec))


def extra_calls(rec: Recorder, tracer: CliTracer) -> None:
    """What the CLI never does on its own, on the inputs of its last run.

    screen: the response Gram alone (HSIC only).
    simulate: each replication's ``generate``, one warm ``screen`` of
    replication 0 and its response Gram, and ``run_experiment`` again with
    one worker, whose records go to ``records_jobs1.csv`` next to the CLI's.
    """
    from survscreen import dataio, evaluate, kernels, screening, simulate

    calls = tracer.calls
    if "run_experiment" not in calls:
        if "screen" in calls:
            args, kwargs, _ = calls["screen"]
            _response_gram(rec, args[0], kwargs["spec_y"])
        return
    args, kwargs, _ = calls["run_experiment"]
    scenario = args[0]
    for r in range(kwargs["replications"]):
        with rec.span("simulate.generate", rep=r):
            gen = simulate.generate(scenario, r)
        if r == 0:
            data = gen.dataset
    with rec.span("screening.screen", n=data.n, p=data.p):
        screening.screen(data)
    _response_gram(rec, data, kernels.GAUSSIAN_DEFAULT)
    serial_kwargs = dict(kwargs, parallelism=1)
    with rec.span("evaluate.run_experiment", jobs=1, reps=kwargs["replications"]):
        serial, _ = evaluate.run_experiment(*args, **serial_kwargs)
    records_path = calls["write_records"][0][0]
    dataio.write_records(
        os.path.join(os.path.dirname(records_path), "records_jobs1.csv"),
        serial,
        scenario.active_set,
    )


def traced_run(tag: str, spans_path: str, passes: list[list[str]]) -> None:
    """``passes`` holds the CLI arguments of the cold, untraced and traced pass;
    each writes its outputs to its own directory."""
    cold = Recorder(f"{tag}.cold")
    with cold.span("pass"):
        with cold.span("cli.import"):
            from survscreen import cli
        tracer = CliTracer(cli)
        tracer.main(cold, passes[0])

    recorders = [cold]
    for kind, cli_args in zip(("untraced", "traced"), passes[1:]):
        rec = Recorder(f"{tag}.{kind}", enabled=kind == "traced")
        with rec.span("pass"):
            tracer.main(rec, cli_args)
            extra_calls(rec, tracer)
        recorders.append(rec)
    write_spans(spans_path, [span for rec in recorders for span in rec.spans])


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "env":
        print(json.dumps(env_block()))
    elif mode == "setup":
        print(json.dumps({"setup_s": timed_setup(argv[1] if len(argv) > 1 else None)}))
    elif mode == "trace" and len(argv) == 4:
        traced_run(argv[1], argv[2], json.loads(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
