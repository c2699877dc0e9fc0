"""Command line front end.

Three subcommands:

  screen     rank the covariates of a dataset CSV by dependence with the
             censored response, write the ranking and a manifest.
  simulate   run a replicated screening experiment from a scenario file,
             write per-replication records (and optionally the datasets).
  evaluate   aggregate a records CSV into the summary metrics at a
             chosen cutoff, without re-simulating.

Exit codes: 0 success, 2 parse or validation failure, a file that
cannot be read or written, a worker process that died, or memory that
ran out, 3 degenerate data, 4 bad flags, 5 censoring calibration failure,
130 interrupted (SIGINT, as Ctrl-C sends it).
Every input (--input, --scenario, --records) must be a regular file:
a pipe, FIFO or directory exits 2 naming the flag, before it is read,
and one that changes while the command runs exits 2 before any write.
``screen`` and ``evaluate`` check that their output paths can be
written, and name neither the input nor each other (exit 4), before they
read anything. ``simulate`` refuses a --scenario that lies
where it would write (exit 4) before any work, and creates --out-dir
only once its run has succeeded, so a failed run leaves no partial
output.

``simulate --jobs`` sets the number of forked worker processes that run
replications, at most one per replication; where the platform cannot
fork they run serially. The default is ``workers.default_jobs()``: the
SURVSCREEN_JOBS environment variable when set, otherwise the number of
CPUs the process may run on (its affinity mask, as ``taskset`` sets it),
and never more than those CPUs. Replication streams are fixed by (seed,
replication index), so --jobs never changes output bytes. ``screen`` uses
that default too: a dataset file of at least 2 MiB is read in
``dataio.RANGE_BYTES`` ranges, and a screen of at least
``screening.SPLIT_ENTRIES`` scored, by that many forked workers, with the
bytes of one process. Both commands refuse a SURVSCREEN_JOBS that is not
a positive integer (exit 4) before any work.

The ``survscreen`` command and ``python -m survscreen`` both run
``survscreen.__main__.main``, which loads numpy with one BLAS thread
unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set,
in which case the user's value holds. Importing this module sets no
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import stat
import sys

import numpy as np

from . import __version__
from .dataio import (
    build_manifest,
    read_dataset,
    read_records,
    read_scenario,
    sha256_file,
    write_dataset,
    write_manifest,
    write_ranking,
    write_records,
    write_summary,
)
from .evaluate import QUANTILE_CONVENTION, run_experiment, summarize_records
from .exceptions import (
    CalibrationError,
    DegenerateDataError,
    ParseError,
    ValidationError,
)
from .kernels import KERNEL_FAMILIES, KernelSpec
# dc_utility is not called here; the traced benchmark wraps every name it lists.
from .screening import METHODS, dc_utility, default_cutoff, screen
from .simulate import RNG_STREAM_ID, censoring_scale, generate
# bench/child.py records cli._default_jobs() in its environment block.
from .workers import JOBS_ENV_VAR, default_jobs as _default_jobs


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(4)


def _check_output(path) -> None:
    """Raise the OSError that writing ``path`` would raise, so a run fails before it writes."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    _check_name_length(path, os.path.dirname(path))


def _check_name_length(path, parent) -> None:
    """Raise the ENAMETOOLONG that creating ``path`` in ``parent`` would raise (-1: no limit)."""
    if -1 < os.pathconf(parent or ".", "PC_NAME_MAX") < len(os.fsencode(os.path.basename(path))):
        raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), path)


def _check_input(flag: str, path) -> os.stat_result:
    """The stat of ``path``; ValidationError naming ``flag`` unless it is a regular file.

    Each input is opened twice, to read it and to hash it for the manifest,
    which a pipe cannot serve; opening a FIFO would also wait for a writer.
    A path that cannot be stat'ed raises the OSError that opening it would."""
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        raise ValidationError(f"{flag} {path} is not a regular file")
    return st


def _input_digest(flag: str, path, before: os.stat_result) -> str:
    """The sha256 of input ``path`` for the manifest, taken before any write;
    ValidationError naming ``flag`` if its size, mtime or inode has moved
    since ``_check_input`` stat'ed it as ``before``."""
    digest = sha256_file(path)
    after = os.stat(path)
    if any(getattr(after, f) != getattr(before, f) for f in ("st_size", "st_mtime_ns", "st_ino")):
        raise ValidationError(f"{flag} {path} changed while the command ran")
    return digest


def _check_distinct(parser: _Parser, *named_paths) -> None:
    """Exit 4, naming both flags, if two ``(flag, path)`` pairs resolve to one
    file, so no output overwrites the input or another output."""
    seen: dict[str, str] = {}
    for flag, path in named_paths:
        real = os.path.realpath(path)
        if real in seen:
            parser.error(f"{seen[real]} and {flag} name the same file {path}")
        seen[real] = flag


def _write_manifest(path, command: str, source, digest: str, params: dict, **extra) -> None:
    """Build and write ``command``'s manifest through the dataio names bound in
    this module, which the traced benchmark replaces with span recorders."""
    manifest = build_manifest(
        command=command,
        version=__version__,
        inputs={os.path.basename(source): digest},
        params=params,
        **extra,
    )
    write_manifest(path, manifest)


def _check_out_dir(path) -> None:
    """Raise the error ``os.makedirs(path, exist_ok=True)`` would raise on a file in the
    way or a name too long, so a run that could not save its output does no work."""
    head, missing = path, []
    while head and not os.path.exists(head):
        head, missing = os.path.dirname(head), [head, *missing]
    if not missing and not os.path.isdir(path):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
    if head and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing[0])
    for name in missing:
        _check_name_length(name, head)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="survscreen",
        description="Kernel dependence screening for censored survival data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser(
        "screen",
        help="rank covariates of a dataset CSV",
        description="Rank the covariates of a dataset CSV and write "
        "(covariate, utility, rank, selected) sorted by rank.",
    )
    p_screen.add_argument("--input", required=True, help="dataset CSV to read")
    p_screen.add_argument("--out", required=True, help="ranking CSV to write")
    p_screen.add_argument(
        "--dn", type=int, default=None, help="cutoff; default floor(n / ln n)"
    )
    p_screen.add_argument(
        "--kernel", choices=KERNEL_FAMILIES, default="gaussian",
        help="kernel family for both covariates and response",
    )
    p_screen.add_argument(
        "--gamma", type=float, default=2.0, help="kernel bandwidth (default 2)"
    )
    p_screen.add_argument(
        "--method", choices=METHODS, default="hsic", help="screening utility"
    )
    p_screen.add_argument(
        "--standardize-covariates", action="store_true",
        help="standardize each covariate column before screening",
    )
    p_screen.add_argument(
        "--manifest", default=None, help="manifest path (default <out>.manifest.json)"
    )
    p_screen.set_defaults(func=cmd_screen)

    p_sim = sub.add_parser(
        "simulate",
        help="run a replicated screening experiment",
        description="Generate replications of a scenario, screen each one, "
        "and write a records CSV into --out-dir.",
    )
    p_sim.add_argument("--scenario", required=True, help="scenario config file")
    p_sim.add_argument("--out-dir", required=True, help="output directory")
    p_sim.add_argument(
        "--replications", type=int, default=None,
        help="override the scenario file's replication count",
    )
    p_sim.add_argument(
        "--jobs", type=int, default=None,
        help="forked worker processes that run replications, at most one per "
        f"replication (default ${JOBS_ENV_VAR} or the CPUs this process may use, "
        "whichever is fewer)",
    )
    p_sim.add_argument(
        "--method", choices=METHODS, default="hsic", help="screening utility"
    )
    p_sim.add_argument(
        "--write-datasets", action="store_true",
        help="also write each replication's dataset CSV under <out-dir>/datasets/",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser(
        "evaluate",
        help="summarize a records CSV",
        description="Aggregate replication records into median/IQR of S and "
        "the selection proportions at a cutoff.",
    )
    p_eval.add_argument("--records", required=True, help="records CSV to read")
    p_eval.add_argument("--out", required=True, help="summary CSV to write")
    p_eval.add_argument(
        "--dn", type=int, default=None,
        help="cutoff; default floor(n / ln n) from each scenario's n",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def cmd_screen(parser: _Parser, args) -> int:
    if args.dn is not None and args.dn < 1:
        parser.error(f"--dn must be positive, got {args.dn}")
    try:
        spec = KernelSpec(family=args.kernel, gamma=args.gamma)
    except ValueError as exc:
        parser.error(f"--{exc}")

    try:
        _default_jobs()
    except ValueError as exc:
        parser.error(str(exc))

    manifest_path = args.manifest or args.out + ".manifest.json"
    _check_distinct(
        parser,
        ("--input", args.input),
        ("--out", args.out),
        ("--manifest" if args.manifest else "--out", manifest_path),
    )
    _check_output(args.out)
    _check_output(manifest_path)
    before = _check_input("--input", args.input)
    data = read_dataset(args.input)
    if args.dn is not None and args.dn > data.p:
        parser.error(f"--dn must be at most p = {data.p}, got {args.dn}")
    # spec_y by keyword: the traced benchmark reads it from the call.
    result = screen(
        data,
        spec_z=spec,
        spec_y=spec,
        d_n=args.dn,
        method=args.method,
        standardize_covariates=args.standardize_covariates,
    )
    digest = _input_digest("--input", args.input, before)
    write_ranking(args.out, result)

    params = {
        "method": args.method,
        "kernel": {"family": args.kernel, "gamma": args.gamma},
        "d_n": result.d_n,
        "n": data.n,
        "p": data.p,
        "standardize_covariates": bool(args.standardize_covariates),
    }
    _write_manifest(manifest_path, "screen", args.input, digest, params)
    return 0


def cmd_simulate(parser: _Parser, args) -> int:
    try:
        jobs = _default_jobs() if args.jobs is None else args.jobs
    except ValueError as exc:
        parser.error(str(exc))
    if jobs < 1:
        parser.error(f"--jobs must be a positive integer, got {jobs}")
    if args.replications is not None and args.replications < 1:
        parser.error(f"--replications must be positive, got {args.replications}")

    before = _check_input("--scenario", args.scenario)
    config = read_scenario(args.scenario)
    scenario = config.scenario
    replications = (
        config.replications if args.replications is None else args.replications
    )
    records_path = os.path.join(args.out_dir, "records.csv")
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    ds_dir = os.path.join(args.out_dir, "datasets")
    dataset_paths = [os.path.join(ds_dir, f"rep{r:05d}.csv") for r in range(replications)]
    outputs = [records_path, manifest_path] + (dataset_paths if args.write_datasets else [])
    _check_distinct(
        parser, ("--scenario", args.scenario), *[("--out-dir", path) for path in outputs]
    )
    _check_out_dir(args.out_dir)

    scale = censoring_scale(scenario)
    records, summary = run_experiment(
        scenario, method=args.method, replications=replications, parallelism=jobs
    )
    digest = _input_digest("--scenario", args.scenario, before)
    os.makedirs(args.out_dir, exist_ok=True)
    write_records(records_path, records, scenario.active_set)

    if args.write_datasets:
        os.makedirs(ds_dir, exist_ok=True)
        for r, path in enumerate(dataset_paths):
            write_dataset(path, generate(scenario, r).dataset)

    params = dict(
        dataclasses.asdict(scenario),
        scenario_id=scenario.default_id,
        replications=replications,
        method=args.method,
        censoring_scale=scale,
        realized_cr_mean=float(np.mean([r.realized_cr for r in records])),
        d_n=summary.d_n,
    )
    _write_manifest(
        manifest_path, "simulate", args.scenario, digest, params,
        rng_stream=RNG_STREAM_ID, quantile_convention=QUANTILE_CONVENTION,
    )
    return 0


def cmd_evaluate(parser: _Parser, args) -> int:
    if args.dn is not None and args.dn < 1:
        parser.error(f"--dn must be positive, got {args.dn}")

    manifest_path = args.out + ".manifest.json"
    _check_distinct(
        parser, ("--records", args.records), ("--out", args.out), ("--out", manifest_path)
    )
    _check_output(args.out)
    _check_output(manifest_path)
    before = _check_input("--records", args.records)
    records, active_set = read_records(args.records)
    if not records:
        raise ValidationError("records file has no data rows")

    groups: dict[str, list] = {}
    for r in records:
        groups.setdefault(r.scenario_id, []).append(r)
    summaries = []
    for sid, group in groups.items():
        d_n = default_cutoff(group[0].n) if args.dn is None else args.dn
        summaries.append(summarize_records(group, active_set, d_n))
    digest = _input_digest("--records", args.records, before)
    write_summary(args.out, summaries, active_set)

    params = {"dn": args.dn, "scenarios": {s.scenario_id: s.d_n for s in summaries}}
    _write_manifest(
        manifest_path, "evaluate", args.records, digest, params, quantile_convention=QUANTILE_CONVENTION
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"survscreen: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"survscreen: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (DegenerateDataError, OverflowError) as exc:
        print(f"survscreen: error: {exc}", file=sys.stderr)
        return 3
    except CalibrationError as exc:
        print(f"survscreen: error: {exc}", file=sys.stderr)
        return 5
    except KeyboardInterrupt:
        # The workers fork_map started have been killed and reaped by now.
        print("survscreen: error: interrupted", file=sys.stderr)
        return 130
