import importlib.util
import inspect
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from survscreen import cli, dataio, evaluate, exceptions, screening
from survscreen.dataio import read_dataset, read_records, write_dataset
from survscreen.evaluate import run_experiment
from survscreen.exceptions import DegenerateStatusError, InfeasibleTargetError, ParseError
from survscreen.kernels import DEFAULT_MAX_SAMPLES, KERNEL_FAMILIES
from survscreen.screening import SurvivalDataset
from survscreen.simulate import SimScenario, generate

BENCH = Path(__file__).resolve().parents[1] / "bench"
EXCEPTION_CLASSES = [
    cls
    for _, cls in inspect.getmembers(exceptions, inspect.isclass)
    if cls.__module__ == exceptions.__name__
]


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "survscreen", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_capped_dataset(path):
    """A 1-covariate dataset one subject above the sample cap."""
    n = DEFAULT_MAX_SAMPLES + 1
    rng = np.random.default_rng(0)
    write_dataset(
        path, SurvivalDataset(rng.random(n), np.arange(n) % 2, rng.standard_normal((n, 1)))
    )
    return path


def write_cox_dataset(path, n=60, p=15, seed=0):
    gen = generate(SimScenario("cox", n, p, seed=seed), 0)
    write_dataset(path, gen.dataset)
    return gen


def write_scenario_file(path, **overrides):
    fields = {
        "model": "cox",
        "n": 50,
        "p": 15,
        "censoring": "random",
        "target_cr": 0.2,
        "seed": 7,
        "replications": 6,
    }
    fields.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return fields


class TestScreenCommand:
    def test_ranking_file_and_manifest(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path, n=240, p=30)
        out = tmp_path / "ranking.csv"
        proc = run_cli("screen", "--input", data_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "covariate,utility,rank,selected"
        assert len(lines) == 31
        manifest = json.loads((tmp_path / "ranking.csv.manifest.json").read_text())
        # n=240 and no --dn: the default cutoff must land at 43, capped at p
        assert manifest["params"]["d_n"] == 30
        assert manifest["params"]["n"] == 240

    def test_default_cutoff_recorded_for_n240(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path, n=240, p=100)
        out = tmp_path / "ranking.csv"
        proc = run_cli("screen", "--input", data_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "ranking.csv.manifest.json").read_text())
        assert manifest["params"]["d_n"] == 43
        selected = sum(
            line.endswith(",1") for line in out.read_text().splitlines()[1:]
        )
        assert selected == 43

    def test_reruns_byte_identical_except_manifest_timestamp(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("screen", "--input", data_path, "--out", out_a).returncode == 0
        assert run_cli("screen", "--input", data_path, "--out", out_b).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        ma.pop("timestamp")
        mb.pop("timestamp")
        assert ma == mb

    def test_dc_method(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path)
        out = tmp_path / "r.csv"
        proc = run_cli("screen", "--input", data_path, "--out", out, "--method", "dc")
        assert proc.returncode == 0, proc.stderr
        utilities = [
            float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]
        ]
        assert all(0.0 <= u <= 1.0 for u in utilities)

    @pytest.mark.parametrize("method", ["hsic", "dc"])
    def test_duplicated_covariate_ties_rank_by_ascending_index(self, tmp_path, method):
        data = generate(SimScenario("cox", 60, 6, seed=3), 0).dataset
        Z = data.covariates.copy()
        Z[:, 4] = Z[:, 1]  # exact duplicate -> exactly tied utilities
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, SurvivalDataset(data.times, data.status, Z))
        out = tmp_path / "r.csv"
        proc = run_cli("screen", "--input", data_path, "--out", out, "--method", method)
        assert proc.returncode == 0, proc.stderr
        rows = {
            line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]
        }
        assert rows["z2"][1] == rows["z5"][1]
        assert int(rows["z5"][2]) == int(rows["z2"][2]) + 1

    @pytest.mark.parametrize("method", ["hsic", "dc"])
    def test_dn_above_p_exits_4_and_writes_nothing(self, tmp_path, method):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path, p=5)
        out = tmp_path / "r.csv"
        manifest_path = tmp_path / "r.csv.manifest.json"
        args = ("screen", "--input", data_path, "--out", out, "--method", method)
        proc = run_cli(*args, "--dn", 9)
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("survscreen: error: --dn")
        assert not out.exists() and not manifest_path.exists()

        proc = run_cli(*args, "--dn", 5)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(manifest_path.read_text())["params"]["d_n"] == 5
        assert sum(line.endswith(",1") for line in out.read_text().splitlines()[1:]) == 5

    @pytest.mark.parametrize("method", ["hsic", "dc"])
    def test_ranking_bytes_do_not_depend_on_blas_threads(self, tmp_path, method):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path, n=200, p=12)
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.csv"
            proc = run_cli(
                "screen", "--input", data_path, "--out", out, "--method", method,
                env_extra={"OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]

        # nor on the worker count, on a dataset whose reading and scoring split
        n, p = 200, 1000
        wide_path = tmp_path / "wide.csv"
        write_cox_dataset(wide_path, n=n, p=p)
        assert wide_path.stat().st_size >= dataio.SPLIT_BYTES
        assert n * n * p / 2 >= screening.SPLIT_ENTRIES
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"w{jobs}.csv"
            proc = run_cli(
                "screen", "--input", wide_path, "--out", out, "--method", method,
                env_extra={"SURVSCREEN_JOBS": jobs},
            )
            assert proc.returncode == 0, proc.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("kernel", KERNEL_FAMILIES)
    def test_split_reading_and_scoring_write_the_serial_bytes(self, tmp_path, monkeypatch, kernel):
        # Both cuts at 0, so two workers read and score even this small file.
        write_cox_dataset(tmp_path / "d.csv", n=40, p=600)
        monkeypatch.setattr(dataio, "SPLIT_BYTES", 0)
        monkeypatch.setattr(screening, "SPLIT_ENTRIES", 0)
        runs = {
            "hsic": ["--gamma", "1.5"],
            "hsic_std": ["--standardize-covariates"],
            "dc_std": ["--method", "dc", "--standardize-covariates"],
        }
        written = {}
        for jobs in ("1", "2"):
            monkeypatch.setenv("SURVSCREEN_JOBS", jobs)
            for name, flags in runs.items():
                out = tmp_path / f"{name}{jobs}.csv"
                argv = ["screen", "--input", str(tmp_path / "d.csv"), "--out", str(out)]
                assert cli.main(argv + ["--kernel", kernel, *flags]) == 0
                manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
                manifest.pop("timestamp")
                written[name, jobs] = out.read_bytes(), manifest
        for name in runs:
            assert written[name, "1"] == written[name, "2"]

    def test_hsic_above_sample_cap_exits_2_with_gram_size(self, tmp_path):
        n = DEFAULT_MAX_SAMPLES + 1
        data_path = write_capped_dataset(tmp_path / "d.csv")
        out = tmp_path / "r.csv"
        proc = run_cli("screen", "--input", data_path, "--out", out)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("survscreen: error:")
        assert f"{n * n * 8 / 2**20:.0f} MiB" in errors[0]
        assert not out.exists()

    def test_dc_above_sample_cap_exits_2_with_the_hsic_message(self, tmp_path):
        data_path = write_capped_dataset(tmp_path / "d.csv")
        stderr = {}
        for method in ("dc", "hsic"):
            out = tmp_path / f"{method}.csv"
            proc = run_cli("screen", "--input", data_path, "--out", out, "--method", method)
            assert proc.returncode == 2
            assert not out.exists() and not Path(f"{out}.manifest.json").exists()
            stderr[method] = proc.stderr
        assert stderr["dc"] == stderr["hsic"]
        assert len(stderr["dc"].splitlines()) == 1 and "sample cap" in stderr["dc"]

    def test_missing_input_exits_2(self, tmp_path):
        proc = run_cli("screen", "--input", tmp_path / "gone.csv", "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,dataset\n1,2,3\n")
        proc = run_cli("screen", "--input", bad, "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_all_censored_exits_3(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,z1\n1.0,0,0.1\n2.0,0,0.2\n3.0,0,0.3\n4.0,0,0.4\n"
        )
        proc = run_cli("screen", "--input", path, "--out", tmp_path / "o")
        assert proc.returncode == 3
        assert "censored" in proc.stderr

    def test_bad_flags_exit_4(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path)
        assert (
            run_cli("screen", "--input", data_path, "--out", tmp_path / "o", "--dn", 0).returncode
            == 4
        )
        assert (
            run_cli(
                "screen", "--input", data_path, "--out", tmp_path / "o", "--gamma", -1
            ).returncode
            == 4
        )
        assert (
            run_cli("screen", "--input", data_path, "--wat").returncode == 4
        )

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exits_4(self, tmp_path, gamma):
        data_path = tmp_path / "d.csv"
        write_cox_dataset(data_path)
        # linear ignores gamma, but a non-finite one would reach the manifest
        for kernel in ("gaussian", "linear"):
            out = tmp_path / f"{kernel}.csv"
            proc = run_cli(
                "screen", "--input", data_path, "--out", out, "--kernel", kernel, "--gamma", gamma
            )
            assert proc.returncode == 4
            assert "Traceback" not in proc.stderr
            errors = [line for line in proc.stderr.splitlines() if "error" in line]
            assert len(errors) == 1 and errors[0].startswith("survscreen: error: --gamma")
            assert not out.exists()


class TestSimulateCommand:
    def test_single_replication_single_row(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_scenario_file(cfg)
        out_dir = tmp_path / "run"
        proc = run_cli(
            "simulate", "--scenario", cfg, "--out-dir", out_dir,
            "--replications", 1, "--jobs", 1,
        )
        assert proc.returncode == 0, proc.stderr
        records, active = read_records(out_dir / "records.csv")
        assert len(records) == 1
        assert active == (0, 1, 2, 3, 4)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_scenario_file(cfg)
        run_a, run_b = tmp_path / "j1", tmp_path / "j8"
        assert run_cli(
            "simulate", "--scenario", cfg, "--out-dir", run_a, "--jobs", 1
        ).returncode == 0
        assert run_cli(
            "simulate", "--scenario", cfg, "--out-dir", run_b, "--jobs", 8
        ).returncode == 0
        assert (run_a / "records.csv").read_bytes() == (run_b / "records.csv").read_bytes()

    def test_manifest_realized_rate_tracks_target(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_scenario_file(cfg, n=200, p=20, target_cr=0.4, replications=50)
        out_dir = tmp_path / "run"
        proc = run_cli("simulate", "--scenario", cfg, "--out-dir", out_dir, "--jobs", 1)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["params"]["realized_cr_mean"] == pytest.approx(0.4, abs=0.02)
        assert manifest["params"]["censoring_scale"] > 0
        assert "rng_stream" in manifest

    def test_write_datasets_match_generator(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        fields = write_scenario_file(cfg, replications=2)
        out_dir = tmp_path / "run"
        proc = run_cli(
            "simulate", "--scenario", cfg, "--out-dir", out_dir, "--jobs", 1,
            "--write-datasets",
        )
        assert proc.returncode == 0, proc.stderr
        sc = SimScenario(
            model=fields["model"], n=fields["n"], p=fields["p"],
            censoring=fields["censoring"], target_cr=fields["target_cr"],
            seed=fields["seed"],
        )
        for rep in range(2):
            on_disk = read_dataset(out_dir / "datasets" / f"rep{rep:05d}.csv")
            regenerated = generate(sc, rep).dataset
            assert np.array_equal(on_disk.times, regenerated.times)
            assert np.array_equal(on_disk.covariates, regenerated.covariates)

    def test_records_match_library_run(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        fields = write_scenario_file(cfg, replications=3)
        out_dir = tmp_path / "run"
        assert run_cli(
            "simulate", "--scenario", cfg, "--out-dir", out_dir, "--jobs", 2
        ).returncode == 0
        records, _ = read_records(out_dir / "records.csv")
        sc = SimScenario(
            model=fields["model"], n=fields["n"], p=fields["p"],
            censoring=fields["censoring"], target_cr=fields["target_cr"],
            seed=fields["seed"],
        )
        expected, _ = run_experiment(sc, replications=3)
        assert records == expected

    def test_config_error_exits_2(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("model = cox\nn = 50\n")
        assert run_cli("simulate", "--scenario", cfg, "--out-dir", tmp_path / "o").returncode == 2

    def test_bad_jobs_exit_4(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_scenario_file(cfg)
        proc = run_cli("simulate", "--scenario", cfg, "--out-dir", tmp_path / "o", "--jobs", 0)
        assert proc.returncode == 4

    def test_jobs_env_var_default(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_scenario_file(cfg, replications=2)
        out_dir = tmp_path / "run"
        proc = run_cli(
            "simulate", "--scenario", cfg, "--out-dir", out_dir,
            env_extra={"SURVSCREEN_JOBS": "2"},
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "simulate", "--scenario", cfg, "--out-dir", tmp_path / "o2",
            env_extra={"SURVSCREEN_JOBS": "zero"},
        )
        assert proc.returncode == 4
        assert "SURVSCREEN_JOBS must be a positive integer, got 'zero'" in proc.stderr
        assert "--jobs" not in proc.stderr.splitlines()[-1]


class TestEvaluateCommand:
    def make_records(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_scenario_file(cfg, replications=8)
        out_dir = tmp_path / "run"
        assert run_cli(
            "simulate", "--scenario", cfg, "--out-dir", out_dir, "--jobs", 1
        ).returncode == 0
        return out_dir / "records.csv"

    def test_summary_layout(self, tmp_path):
        records_path = self.make_records(tmp_path)
        out = tmp_path / "summary.csv"
        proc = run_cli("evaluate", "--records", records_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "scenario_id,replications,d_n,s_median,s_iqr,"
            "pe_z1,pe_z2,pe_z3,pe_z4,pe_z5,p_a"
        )
        fields = lines[1].split(",")
        assert fields[1] == "8"
        assert fields[2] == "12"  # floor(50 / ln 50)
        assert 0.0 <= float(fields[-1]) <= 1.0

    def test_pa_monotone_in_dn(self, tmp_path):
        records_path = self.make_records(tmp_path)
        p_a = []
        for dn in (1, 5, 15):
            out = tmp_path / f"summary{dn}.csv"
            assert run_cli(
                "evaluate", "--records", records_path, "--out", out, "--dn", dn
            ).returncode == 0
            p_a.append(float(out.read_text().splitlines()[1].split(",")[-1]))
        assert p_a == sorted(p_a)

    def test_malformed_records_exit_2(self, tmp_path):
        bad = tmp_path / "r.csv"
        bad.write_text("who,knows\n1,2\n")
        assert run_cli("evaluate", "--records", bad, "--out", tmp_path / "o").returncode == 2

    def test_bad_dn_exits_4(self, tmp_path):
        records_path = self.make_records(tmp_path)
        assert run_cli(
            "evaluate", "--records", records_path, "--out", tmp_path / "o", "--dn", -3
        ).returncode == 4


class TestTopLevel:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "survscreen" in proc.stdout

    def test_no_subcommand_exits_4(self):
        assert run_cli().returncode == 4

    def test_binds_every_name_the_traced_benchmark_wraps(self, monkeypatch):
        # bench/child.py replaces these attributes of survscreen.cli with
        # span recorders; a name the CLI stops importing breaks traced runs.
        monkeypatch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        assert [name for name in child.CLI_CALLS if not callable(getattr(cli, name, None))] == []

    def test_runtime_imports_only_the_stdlib_and_numpy(self):
        # Compared with the modules loaded before the import, because a site
        # hook (a .pth file) may load third-party modules at interpreter start.
        code = (
            "import sys\n"
            "before = {name.split('.')[0] for name in sys.modules}\n"
            "import survscreen.cli\n"
            "new = {name.split('.')[0] for name in sys.modules} - before\n"
            "print(*sorted(new - set(sys.stdlib_module_names)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) <= {"numpy", "survscreen"}

    def test_import_loads_no_process_pool(self):
        # The pool's modules load only when a run asks for workers, so the
        # start-up of every invocation does not pay for them.
        code = (
            "import sys\n"
            "import survscreen.cli\n"
            "print(*sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "screen" in proc.stdout and "simulate" in proc.stdout


def _error_fixtures(tmp_path):
    """The input files the CLI error table refers to, written into ``tmp_path``."""
    write_cox_dataset(tmp_path / "d.csv", p=5)
    write_capped_dataset(tmp_path / "capped.csv")
    write_scenario_file(tmp_path / "s.cfg")
    (tmp_path / "censored.csv").write_text(
        "time,status,z1\n1.0,0,0.1\n2.0,0,0.2\n3.0,0,0.3\n4.0,0,0.4\n"
    )
    (tmp_path / "huge.csv").write_text(
        "time,status,z1\n1e200,1,0.1\n2e200,0,0.2\n3e200,1,0.3\n4e200,0,0.4\n"
    )
    (tmp_path / "tiny.csv").write_text(
        "time,status,z1\n1e-320,1,0.1\n2e-320,0,0.2\n3e-320,1,0.3\n4e-320,0,0.4\n"
    )
    # z2's linear-kernel products are finite (about 1e308) but overflow once weighted,
    # and its variance (so its sd and its dVar) overflows
    (tmp_path / "overflow.csv").write_text(
        "time,status,z1,z2\n1.0,1,0.1,1e154\n2.0,0,0.2,-1e154\n3.0,1,0.3,1e154\n"
        "4.0,0,0.4,-1e154\n5.0,1,0.5,1e154\n"
    )
    (tmp_path / "malformed.csv").write_text("not,a,dataset\n1,2,3\n")
    (tmp_path / "ff.csv").write_bytes(b"time,status,z1\n1.0,1,0.5\xff\n2.0,0,0.1\n3.0,1,0.2\n")
    (tmp_path / "bad.cfg").write_text("model = cox\nn = 50\n")
    (tmp_path / "ff.cfg").write_bytes(b"model = cox\nn = 50\np = 15\n# \xff\n")
    header = "scenario_id,rep,n,p,s,realized_cr,rank_z1\n"
    (tmp_path / "rec.csv").write_text(header + "x,0,50,15,1,0.2,1\n")
    (tmp_path / "rec_n2.csv").write_text(header + "x,0,2,15,1,0.2,1\n")
    (tmp_path / "rec_rank_negative.csv").write_text(header + "x,0,50,15,1,0.2,-5\n")
    (tmp_path / "rec_s_not_largest.csv").write_text(
        "scenario_id,rep,n,p,s,realized_cr,rank_z1,rank_z2\nx,0,50,15,1,0.2,1,6\n"
    )
    (tmp_path / "norows.csv").write_text(header)
    (tmp_path / "badrec.csv").write_text("who,knows\n1,2\n")
    (tmp_path / "ff_rec.csv").write_bytes(header.encode() + b"x,0,50,15,1,0.2,1\xff\n")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    (tmp_path / "prev" / "datasets").mkdir(parents=True)
    write_scenario_file(tmp_path / "prev" / "records.csv")
    write_scenario_file(tmp_path / "prev" / "datasets" / "rep00002.csv")


def _snapshot(root):
    """Every path under ``root`` with its bytes, so a created or rewritten file shows."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


# (argv, extra environment, exit code, file or flags the message must name);
# {t} is the test's tmp_path. Outputs go to o.csv, o.csv.manifest.json or the run/
# directory unless the case is about where they go.
CLI_ERRORS = {
    "screen_missing_input": ("screen --input {t}/gone.csv --out {t}/o.csv", {}, 2, "gone.csv"),
    "screen_input_is_directory": ("screen --input {t}/adir --out {t}/o.csv", {}, 2, "adir"),
    "screen_input_not_utf8": ("screen --input {t}/ff.csv --out {t}/o.csv", {}, 2, "ff.csv"),
    "screen_malformed_input": ("screen --input {t}/malformed.csv --out {t}/o.csv", {}, 2, None),
    "screen_hsic_above_sample_cap": ("screen --input {t}/capped.csv --out {t}/o.csv", {}, 2, None),
    "screen_dc_above_sample_cap": (
        "screen --input {t}/capped.csv --out {t}/o.csv --method dc", {}, 2, None
    ),
    "screen_out_is_directory": ("screen --input {t}/d.csv --out {t}/adir", {}, 2, "adir"),
    "screen_out_in_missing_directory": (
        "screen --input {t}/d.csv --out {t}/nodir/o.csv", {}, 2, "nodir/o.csv"
    ),
    "screen_manifest_in_missing_directory": (
        "screen --input {t}/d.csv --out {t}/o.csv --manifest {t}/nodir/m.json", {}, 2, "nodir/m.json"
    ),
    "screen_all_censored": ("screen --input {t}/censored.csv --out {t}/o.csv", {}, 3, None),
    "screen_times_variance_overflows": ("screen --input {t}/huge.csv --out {t}/o.csv", {}, 3, None),
    "screen_times_variance_underflows": (
        "screen --input {t}/tiny.csv --out {t}/o.csv", {}, 3, "underflows"
    ),
    "screen_linear_kernel_overflows": (
        "screen --input {t}/overflow.csv --out {t}/o.csv --kernel linear", {}, 3, "covariate z2"
    ),
    "screen_dc_overflows": (
        "screen --input {t}/overflow.csv --out {t}/o.csv --method dc", {}, 3,
        "DC utility of covariate z2",
    ),
    "screen_standardized_overflows": (
        "screen --input {t}/overflow.csv --out {t}/o.csv --standardize-covariates", {}, 3,
        "HSIC utility of covariate z2",
    ),
    "screen_dc_standardized_overflows": (
        "screen --input {t}/overflow.csv --out {t}/o.csv --method dc --standardize-covariates",
        {}, 3, "DC utility of covariate z2",
    ),
    "screen_dn_zero": ("screen --input {t}/d.csv --out {t}/o.csv --dn 0", {}, 4, None),
    "screen_dn_above_p": ("screen --input {t}/d.csv --out {t}/o.csv --dn 6 --method dc", {}, 4, None),
    "screen_negative_gamma": ("screen --input {t}/d.csv --out {t}/o.csv --gamma -1", {}, 4, None),
    "screen_nan_gamma": ("screen --input {t}/d.csv --out {t}/o.csv --gamma nan", {}, 4, None),
    "screen_linear_inf_gamma": (
        "screen --input {t}/d.csv --out {t}/o.csv --kernel linear --gamma inf", {}, 4, None
    ),
    "screen_gamma_scale_underflows": (
        "screen --input {t}/d.csv --out {t}/o.csv --gamma 1e-170", {}, 4, "--gamma"
    ),
    "screen_gamma_scale_overflows": (
        "screen --input {t}/d.csv --out {t}/o.csv --gamma 1e-160", {}, 4, "--gamma"
    ),
    "screen_laplacian_gamma_scale_overflows": (
        "screen --input {t}/d.csv --out {t}/o.csv --kernel laplacian --gamma 1e-310", {}, 4,
        "--gamma",
    ),
    "screen_manifest_is_out": (
        "screen --input {t}/d.csv --out {t}/o.csv --manifest {t}/o.csv", {}, 4, "--out and --manifest"
    ),
    "screen_out_is_input": ("screen --input {t}/d.csv --out {t}/d.csv", {}, 4, "--input and --out"),
    "screen_unknown_flag": ("screen --input {t}/d.csv --out {t}/o.csv --wat", {}, 4, None),
    "simulate_incomplete_scenario": ("simulate --scenario {t}/bad.cfg --out-dir {t}/run", {}, 2, None),
    "simulate_scenario_is_directory": ("simulate --scenario {t}/adir --out-dir {t}/run", {}, 2, "adir"),
    "simulate_scenario_not_utf8": ("simulate --scenario {t}/ff.cfg --out-dir {t}/run", {}, 2, "ff.cfg"),
    "simulate_out_dir_is_a_file": (
        "simulate --scenario {t}/s.cfg --out-dir {t}/afile --jobs 1 --replications 1", {}, 2, "afile"
    ),
    "simulate_jobs_zero": ("simulate --scenario {t}/s.cfg --out-dir {t}/run --jobs 0", {}, 4, None),
    "simulate_bad_jobs_env": (
        "simulate --scenario {t}/s.cfg --out-dir {t}/run", {"SURVSCREEN_JOBS": "zero"}, 4, None
    ),
    "screen_bad_jobs_env": (
        "screen --input {t}/d.csv --out {t}/o.csv", {"SURVSCREEN_JOBS": "zero"}, 4,
        "SURVSCREEN_JOBS must be a positive integer, got 'zero'",
    ),
    "simulate_replications_zero": (
        "simulate --scenario {t}/s.cfg --out-dir {t}/run --replications 0", {}, 4, None
    ),
    "simulate_scenario_is_records": (
        "simulate --scenario {t}/prev/records.csv --out-dir {t}/prev", {}, 4,
        "--scenario and --out-dir",
    ),
    "simulate_scenario_is_a_dataset": (
        "simulate --scenario {t}/prev/datasets/rep00002.csv --out-dir {t}/prev --write-datasets",
        {}, 4, "--scenario and --out-dir",
    ),
    "evaluate_malformed_records": ("evaluate --records {t}/badrec.csv --out {t}/o.csv", {}, 2, None),
    "evaluate_records_without_rows": ("evaluate --records {t}/norows.csv --out {t}/o.csv", {}, 2, None),
    "evaluate_records_is_directory": ("evaluate --records {t}/adir --out {t}/o.csv", {}, 2, "adir"),
    "evaluate_records_not_utf8": (
        "evaluate --records {t}/ff_rec.csv --out {t}/o.csv", {}, 2, "ff_rec.csv"
    ),
    "evaluate_records_n_below_3": (
        "evaluate --records {t}/rec_n2.csv --out {t}/o.csv", {}, 2, "line 2, column 3"
    ),
    "evaluate_records_rank_out_of_range": (
        "evaluate --records {t}/rec_rank_negative.csv --out {t}/o.csv", {}, 2, "line 2, column 7"
    ),
    "evaluate_records_s_not_largest_rank": (
        "evaluate --records {t}/rec_s_not_largest.csv --out {t}/o.csv", {}, 2, "line 2, column 5"
    ),
    "evaluate_out_is_records": (
        "evaluate --records {t}/rec.csv --out {t}/rec.csv", {}, 4, "--records and --out"
    ),
    "evaluate_out_is_directory": ("evaluate --records {t}/rec.csv --out {t}/adir", {}, 2, "adir"),
    "evaluate_out_in_missing_directory": (
        "evaluate --records {t}/rec.csv --out {t}/nodir/o.csv", {}, 2, "nodir/o.csv"
    ),
    "evaluate_negative_dn": ("evaluate --records {t}/rec.csv --out {t}/o.csv --dn -3", {}, 4, None),
    "no_subcommand": ("", {}, 4, None),
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_error_path_exits_cleanly_and_writes_nothing(tmp_path, monkeypatch, capsys, case):
    argv, env, code, named = CLI_ERRORS[case]
    _error_fixtures(tmp_path)
    before = _snapshot(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        returned = cli.main(argv.format(t=tmp_path).split())
    except SystemExit as exc:
        returned = exc.code
    stderr = capsys.readouterr().err
    assert returned == code, stderr
    assert "Traceback" not in stderr
    errors = [line for line in stderr.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("survscreen: error: "), stderr
    assert named is None or named in errors[0]
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 14.9 GiB for an array", "Unable to allocate 14.9 GiB for an array"),
        ("", "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_memory_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys, message, line):
    def exhausted(path):
        raise MemoryError(message)

    write_cox_dataset(tmp_path / "d.csv", p=5)
    monkeypatch.setattr(cli, "read_dataset", exhausted)
    argv = ["screen", "--input", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"survscreen: error: {line}"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("out_dir", ["afile", "afile/run", "afile/run/deeper"])
def test_out_dir_blocked_by_a_file_fails_before_any_work(tmp_path, monkeypatch, capsys, out_dir):
    def no_work(scenario):
        raise AssertionError("calibrated although the output cannot be saved")

    write_scenario_file(tmp_path / "s.cfg")
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr(cli, "censoring_scale", no_work)
    argv = ["simulate", "--scenario", str(tmp_path / "s.cfg"), "--out-dir"]
    assert cli.main(argv + [str(tmp_path / out_dir)]) == 2
    error = capsys.readouterr().err
    assert error.startswith("survscreen: error: ") and "afile" in error


def test_failed_calibration_exits_5_and_leaves_no_out_dir(tmp_path, monkeypatch, capsys):
    def infeasible(scenario):
        raise InfeasibleTargetError("no scale this large reaches censoring rate 0.2")

    write_scenario_file(tmp_path / "s.cfg")
    monkeypatch.setattr(cli, "censoring_scale", infeasible)
    argv = ["simulate", "--scenario", str(tmp_path / "s.cfg"), "--out-dir"]
    assert cli.main(argv + [str(tmp_path / "run"), "--jobs", "1"]) == 5
    assert capsys.readouterr().err.startswith("survscreen: error: no scale")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cls", EXCEPTION_CLASSES, ids=lambda cls: cls.__name__)
def test_exception_round_trips_through_pickle(cls):
    # An error raised in a worker process reaches the CLI by pickle.
    exc = cls(1, 2, "m") if cls is ParseError else cls("m")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)


def test_replication_failing_in_a_worker_exits_3_and_leaves_no_process(
    tmp_path, monkeypatch, capsys
):
    message = "status has zero variance (all subjects censored)"

    def all_censored(scenario, replication):
        raise DegenerateStatusError(message)

    write_scenario_file(tmp_path / "s.cfg")
    monkeypatch.setattr(evaluate, "generate", all_censored)
    argv = ["simulate", "--scenario", str(tmp_path / "s.cfg"), "--out-dir"]
    assert cli.main(argv + [str(tmp_path / "run"), "--jobs", "2"]) == 3
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.splitlines() == [f"survscreen: error: {message}"]
    assert not (tmp_path / "run").exists()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_killed_mid_run_exits_2_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    # A worker that dies without raising (a signal, the OOM killer) breaks
    # the pool; the run must still end with a documented code, not a traceback.
    parent = os.getpid()

    def killed(scenario, replication):
        if os.getpid() != parent:
            os._exit(9)
        raise AssertionError("generate ran in the calling process")

    write_scenario_file(tmp_path / "s.cfg")
    monkeypatch.setattr(evaluate, "generate", killed)
    argv = ["simulate", "--scenario", str(tmp_path / "s.cfg"), "--out-dir"]
    assert cli.main(argv + [str(tmp_path / "run"), "--jobs", "2"]) == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.splitlines() == [
        "survscreen: error: a worker process ended abruptly (killed by a signal or out of memory)"
    ]
    assert not (tmp_path / "run").exists()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="no /proc/<pid>/task/<tid>/children",
)
def test_interrupt_of_the_process_group_exits_130_and_leaves_no_process(tmp_path):
    # Ctrl-C in a terminal sends SIGINT to the whole foreground process
    # group: here the command and both of its workers. 200 replications at
    # p = 2000 take several seconds, far longer than the wait below.
    write_scenario_file(tmp_path / "s.cfg", n=200, p=2000, replications=200)
    argv = ["simulate", "--scenario", tmp_path / "s.cfg", "--out-dir", tmp_path / "run"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "survscreen", *map(str, argv), "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        workers = []
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                workers = [int(pid) for pid in fh.read().split()]
        assert len(workers) == 2, "the workers never started"
        time.sleep(0.2)  # past each worker's first bytecodes after the fork
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert stderr.splitlines() == ["survscreen: error: interrupted"]
    assert not (tmp_path / "run").exists()
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
