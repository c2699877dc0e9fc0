"""Benchmark of survscreen's two CLI paths, ``simulate`` and ``screen``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory, and every file the run makes goes under ``.bench_work/`` there.

Workloads. Each is a closed loop with one client: one ``python -m
survscreen`` invocation at a time, from this single process.

  sim_hsic          ``simulate``: cox model, random censoring, target rate
                    0.2, n=200, p=2000, HSIC, 4 replications per invocation,
                    default --jobs. The paper's design; scoring dominates
                    and runs inside evaluate's thread pool.
  screen_wide_dc    ``screen --method dc`` on n=200, p=10000 (nonlinear
                    model, informative censoring, target 0.4; ~39 MB CSV).
                    CSV parsing and the DC scorer; no pool.

Every layer that the traced run reports is called on one of the two. A
third workload, ``screen`` (HSIC) at n=2000, p=100, where scoring is
memory-bound, was taken out so that each run can be long enough to be
steady on a shared 2-vCPU host within the time the runs are given.

Inputs are made from the seed with ``simulate.generate`` and
``dataio.write_dataset`` (or ``write_scenario``) before anything is timed;
the program only receives the files. Writing and hashing them leaves them
in the page cache, and one discarded ``survscreen --version`` invocation,
which imports every module of the package, leaves the ``.pyc`` files warm.
Children run with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS
and SURVSCREEN_JOBS removed from their environment, so users' defaults are
measured. Each invocation writes into an emptied output directory, so one
that writes nothing fails.

``--trace 0`` repeats the invocation for ``--seconds`` and reports the
end-to-end metrics (medians over invocations):

  setup_s       a fresh interpreter's ``import survscreen`` (on sim_hsic
                also the first ``censoring_scale`` call); two fresh
                interpreters are timed before each timed invocation;
  wall_s        wall time of one CLI invocation, interpreter start included;
  reps_per_s    datasets screened per second of invocation wall time
                (replications / wall for simulate, 1 / wall for screen);
  cpu_s         user + system CPU time of the invocation;
  peak_rss_mb   the invocation's ru_maxrss, in MiB;
  success_rate  1 - error_rate, where error_rate is failed / attempted
                invocations. A failure is a nonzero exit, a traceback on
                stderr, or output that disagrees with the reference.

``--trace 1`` makes one plain invocation, then runs ``child.py trace`` in
fresh interpreters for ``--seconds`` (at least once) and derives the per-layer metrics of
``spans.LAYER_METRICS`` from the spans it records; a layer that the
workload's CLI path does not call reports 0.

Outputs are checked against ``reference.py``: the ranking exactly and the
utilities normwise within 1e-12; every output must be byte-identical to the
first invocation's. ``generate`` itself is checked against digests pinned in
``generator_digests.json``. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the environment block and
each metric with its unit are printed above it and stored, with the spans,
under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference
import spans
from child import THREAD_VARS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = str(BENCH_DIR / "child.py")
#: ``dataset_digest`` of ``generate(SimScenario(seed, **scenario), rep)`` for
#: each workload's scenario at one pinned seed, as the package gave them
#: when the benchmark was written.
GENERATOR_DIGESTS = BENCH_DIR / "generator_digests.json"

#: End-to-end metrics with their units, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

#: Set-up samples taken before each timed invocation, so that they are spread
#: over the whole run like the invocations and a short slow spell of the
#: host moves few of them.
SETUPS_PER_INVOCATION = 2

#: Seconds after start by which every child must have ended; a run must
#: exit within 180 s, and the reference check comes after the children.
DEADLINE_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "screen"
    scenario: dict = field(default_factory=dict)
    method: str = "hsic"
    replications: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_hsic", "simulate",
            dict(model="cox", n=200, p=2000, censoring="random", target_cr=0.2),
            replications=4,
        ),
        Workload(
            "screen_wide_dc", "screen",
            dict(model="nonlinear", n=200, p=10000, censoring="informative", target_cr=0.4),
            method="dc",
        ),
    )
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)


class Children:
    """Runs one child at a time with the benchmark's environment and deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self._count = 0

    def run(self, args: list[str]) -> Invocation:
        self._count += 1
        out_path = self.workdir / f"child{self._count}.out"
        err_path = self.workdir / f"child{self._count}.err"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.workdir, env=self.env, stdout=out, stderr=err
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )
        if inv.code != 0:
            inv.problems.append(f"exit code {inv.code}")
        if "Traceback (most recent call last)" in inv.stderr:
            inv.problems.append("traceback on stderr")
        return inv

    def json(self, args: list[str]) -> dict:
        inv = self.run(args)
        if inv.problems:
            raise RuntimeError(f"child {args} failed: {inv.problems}\n{inv.stderr}")
        return json.loads(inv.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dataset_digest(data) -> str:
    """sha256 of a dataset's times, status and covariates, in a fixed layout."""
    digest = hashlib.sha256()
    for array, dtype in ((data.times, "<f8"), (data.status, "<i8"), (data.covariates, "<f8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def generator_problems(workload: Workload) -> list[str]:
    """``generate`` at the pinned seed against the digests in GENERATOR_DIGESTS.

    The reference check rebuilds the data with the package's own
    ``generate``, so this is what catches a change to its output.
    """
    pinned = json.loads(GENERATOR_DIGESTS.read_text())
    want = pinned["digests"].get(workload.name)
    if want is None:
        return [f"generator: no pinned digest for {workload.name}"]
    from survscreen import SimScenario, generate

    sc = SimScenario(seed=pinned["seed"], **workload.scenario)
    got = [dataset_digest(generate(sc, r).dataset) for r in range(len(want))]
    return [] if got == want else [
        f"generator: generate() at seed {pinned['seed']} no longer gives the pinned data"
    ]


class Case:
    """One workload at one seed: its input file, CLI arguments and checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from survscreen import SimScenario, dataio, generate

        self.workload = workload
        self.workdir = workdir
        self.scenario = SimScenario(seed=seed, **workload.scenario)
        if workload.command == "simulate":
            self.input = workdir / "scenario.cfg"
            dataio.write_scenario(
                self.input, dataio.ScenarioConfig(self.scenario, workload.replications)
            )
            self.data = None
        else:
            self.input = workdir / "data.csv"
            self.data = generate(self.scenario, 0).dataset
            dataio.write_dataset(self.input, self.data)
        self.input_info = {
            "file": self.input.name,
            "bytes": self.input.stat().st_size,
            "sha256": sha256(self.input),
            "generated_sha256": [dataset_digest(self.data)] if self.data is not None else [
                dataset_digest(generate(self.scenario, r).dataset)
                for r in range(workload.replications)
            ],
        }

    def out_dir(self, kind: str) -> Path:
        """Output directory of one kind of run: "cli", "cold", "untraced" or "traced"."""
        return self.workdir / kind

    def clear(self, *kinds: str) -> None:
        """Empties the output directories, so a run that writes nothing shows."""
        for kind in kinds:
            shutil.rmtree(self.out_dir(kind), ignore_errors=True)
            self.out_dir(kind).mkdir()

    def output(self, kind: str = "cli") -> Path:
        name = "records.csv" if self.workload.command == "simulate" else "ranking.csv"
        return self.out_dir(kind) / name

    def manifest(self, kind: str = "cli") -> Path:
        if self.workload.command == "simulate":
            return self.out_dir(kind) / "manifest.json"
        return self.out_dir(kind) / "ranking.csv.manifest.json"

    def cli_args(self, kind: str = "cli") -> list[str]:
        """Arguments of ``survscreen`` with the outputs in ``out_dir(kind)``."""
        if self.workload.command == "simulate":
            return ["simulate", "--scenario", str(self.input), "--out-dir", str(self.out_dir(kind))]
        return ["screen", "--input", str(self.input), "--out", str(self.output(kind)),
                "--method", self.workload.method]

    def check_invocation(self, inv: Invocation, expected: bytes | None) -> bytes | None:
        """Adds the output's problems to ``inv``; returns the output bytes."""
        got = read_bytes(self.output())
        if got is None:
            inv.problems.append("no output file")
        elif expected is not None and got != expected:
            inv.problems.append("output bytes differ from the first invocation's")
        manifest = read_bytes(self.manifest())
        if manifest is None:
            inv.problems.append("no manifest")
        else:
            inv.problems += checks.check_manifest(
                manifest.decode(errors="replace"), self.workload.command,
                self.input.name, self.input_info["sha256"],
            )
        return got

    def reference_problems(self, output: bytes | None, seed: int) -> list[str]:
        """The output against the benchmark's reference scorer."""
        if output is None:
            return ["no output to check"]
        text = output.decode(errors="replace")
        sc = self.scenario
        if self.workload.command == "screen":
            d = self.data
            ref = (reference.hsic_utilities if self.workload.method == "hsic"
                   else reference.dcor_utilities)(d.covariates, d.times, d.status)
            d_n = min(max(1, math.floor(d.n / math.log(d.n))), d.p)
            return checks.check_ranking(text, ref, d_n)
        from survscreen import generate

        rep = seed % self.workload.replications
        d = generate(sc, rep).dataset
        ref = reference.hsic_utilities(d.covariates, d.times, d.status)
        expected = {rep: (checks.active_ranks(ref, sc.active_set), float(np.mean(d.status == 0)))}
        return checks.check_records(
            text, scenario_id=sc.default_id, n=sc.n, p=sc.p, active_set=sc.active_set,
            replications=self.workload.replications, expected=expected,
        )


def tail_note(samples: list[float]) -> str:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    note = f"median of {n}"
    if n >= 11:
        q = math.floor(100 * (n - 10) / n)
        value = sorted(samples)[max(0, math.ceil(q / 100 * n) - 1)]
        note += f", p{q} {value:.6g}"
    else:
        note += "; no percentile has 10 samples beyond it"
    return note


def invoke(case: Case, children: Children, expected: bytes | None) -> tuple[Invocation, bytes | None]:
    """One ``survscreen`` invocation into an emptied output directory, checked."""
    case.clear("cli")
    inv = children.run(["-m", "survscreen", *case.cli_args()])
    return inv, case.check_invocation(inv, expected)


def timed_invocations(
    case: Case, children: Children, seconds: float, between=lambda: None
) -> tuple[list[Invocation], bytes | None]:
    """Invocations one after another for ``seconds`` (at least one); each
    output must equal the first, which is returned for the reference check.

    ``between()`` runs before each invocation; the time it takes is added
    to the run, so it takes nothing from the invocations' ``seconds``."""
    samples: list[Invocation] = []
    first = None
    stop = time.perf_counter() + seconds
    while not samples or (time.perf_counter() < stop and time.perf_counter() < children.deadline):
        pause = time.perf_counter()
        between()
        stop += time.perf_counter() - pause
        inv, output = invoke(case, children, first)
        first = output if not samples else first
        samples.append(inv)
    return samples, first


def measure(case: Case, children: Children, seconds: float):
    setup_arg = [json.dumps(dict(case.workload.scenario, seed=case.scenario.seed))]
    setup_args = setup_arg if case.workload.command == "simulate" else []
    setups: list[float] = []

    def sample_setup():
        for _ in range(SETUPS_PER_INVOCATION):
            setups.append(children.json([CHILD, "setup", *setup_args])["setup_s"])

    samples, output = timed_invocations(case, children, seconds, between=sample_setup)
    walls = [s.wall_s for s in samples]
    reps = case.workload.replications if case.workload.command == "simulate" else 1
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "reps_per_s": statistics.median(reps / w for w in walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mib for s in samples),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": tail_note(walls),
        "reps_per_s": f"median of {len(samples)}, {reps} per invocation",
        "cpu_s": f"median of {len(samples)}",
        "peak_rss_mb": f"median of {len(samples)}",
    }
    detail = {"setup_s": setups, "invocations": [
        {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mib": s.rss_mib, "code": s.code}
        for s in samples
    ]}
    return samples, values, notes, detail, output


def trace(case: Case, children: Children, seconds: float, tag: str, spans_path: Path):
    """One plain invocation, whose output is returned for the reference check,
    then traced children for ``seconds``; every output of theirs must equal it."""
    cli, output = invoke(case, children, None)
    runs: list[Invocation] = [cli]
    all_spans: list[dict] = []
    stop = time.perf_counter() + seconds
    kinds = ("cold", "untraced", "traced")
    while len(runs) < 2 or (time.perf_counter() < stop and time.perf_counter() < children.deadline):
        child_spans = children.workdir / f"spans{len(runs)}.jsonl"
        case.clear(*kinds)
        passes = [case.cli_args(kind) for kind in kinds]
        inv = children.run([CHILD, "trace", f"{tag}-c{len(runs)}", str(child_spans),
                            json.dumps(passes)])
        for kind in kinds:
            outputs = [case.output(kind)]
            if case.workload.command == "simulate" and kind != "cold":
                outputs.append(case.out_dir(kind) / "records_jobs1.csv")
            for path in outputs:
                got = read_bytes(path)
                if got is None:
                    inv.problems.append(f"{kind}: no {path.name}")
                elif got != output:
                    inv.problems.append(f"{kind} {path.name} differs from the CLI's output")
        if not child_spans.is_file():
            inv.problems.append("no spans file")
        if not inv.problems:
            all_spans += spans.read_spans(child_spans)
        runs.append(inv)
    if not all_spans:
        raise RuntimeError("no traced run succeeded: " + "; ".join(runs[-1].problems)
                           + "\n" + runs[-1].stderr)
    spans.write_spans(spans_path, all_spans)
    values = spans.layer_metrics(all_spans)
    traced = sum(1 for inv in runs[1:] if not inv.problems)
    notes = {name: f"median of {traced} traced children" for name in values}
    return runs, values, notes, {"traced_children": len(runs) - 1}, output


def tally(invocations: list[Invocation], ref_problems: list[str]) -> tuple[int, int]:
    """(attempted, failed); every invocation's output equals the one checked
    against the reference, so its problems count against each of them."""
    for inv in invocations:
        inv.problems += ref_problems
    return len(invocations), sum(1 for inv in invocations if inv.problems)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "survscreen" / "__init__.py").is_file():
        print(f"bench: no survscreen package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= opts.seed < 2**63:
        print(f"bench: seed must be a nonnegative 63-bit integer, got {opts.seed}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import survscreen

    if Path(survscreen.__file__).resolve().parent != (SRC / "survscreen").resolve():
        print(f"bench: survscreen imported from {survscreen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[opts.workload]
    stem = f"{workload.name}-seed{opts.seed}-trace{opts.trace}"
    work = ROOT / ".bench_work"
    results = work / "results"
    scratch = work / f"tmp-{stem}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        children = Children(scratch, start + DEADLINE_S)
        env_info = children.json([CHILD, "env"])
        case = Case(workload, opts.seed, scratch)

        warm = children.run(["-m", "survscreen", "--version"])
        if opts.trace:
            runs, values, notes, detail, output = trace(
                case, children, opts.seconds, stem, results / f"{stem}.spans.jsonl"
            )
            units = spans.LAYER_METRICS
        else:
            runs, values, notes, detail, output = measure(case, children, opts.seconds)
            units = END_TO_END
        ref_problems = case.reference_problems(output, opts.seed) + generator_problems(workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    invocations = [warm, *runs]
    attempted, failed = tally(invocations, ref_problems)
    if not opts.trace:
        values["success_rate"] = 1.0 - failed / attempted
        notes["success_rate"] = f"error_rate {failed / attempted:.6g} = {failed}/{attempted}"
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    problems = sorted({p for inv in invocations for p in inv.problems})

    print(f"# survscreen benchmark: workload {workload.name}, seed {opts.seed}, "
          f"trace {opts.trace}, {opts.seconds:g} s, closed loop with 1 client")
    print("# environment")
    for key, value in env_info.items():
        print(f"  {key}: {json.dumps(value)}")
    print(f"# input: {json.dumps(case.input_info)}")
    print(f"# {'per-layer' if opts.trace else 'end-to-end'} metrics")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}  ({notes[name]})")
    print(f"# {attempted} attempted (1 discarded warm-up), {failed} failed")
    for problem in problems:
        print(f"  problem: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=workload.name, seed=opts.seed, trace=opts.trace,
                  seconds=opts.seconds, environment=env_info, input=case.input_info,
                  problems=problems, detail=detail)
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
