import argparse
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import obsfem
from obsfem import analysis, cli
from obsfem.mesh import read_mesh_text
from obsfem.solver import SingularSystemError

HEADER = ("domain,h,n,i,sigma,seed_count,l2_mean,l2_std,h1_mean,h1_std,"
          "lam_l2_mean,rate_l2_endpoint,rate_h1_endpoint")


def run_convergence(tmp_path, *extra):
    out = tmp_path / "table.csv"
    code = cli.main(["convergence", "--domain", "square", "--out", str(out),
                     *extra])
    return code, out


class TestConvergenceOutput:
    def test_header_rows_and_rate_placement(self, tmp_path):
        code, out = run_convergence(
            tmp_path, "--h", "0.25,0.125", "--i", "2", "--noise", "none",
            "--trials", "2")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 3
        first, last = lines[1].split(","), lines[2].split(",")
        assert first[0] == "square"
        assert float(first[1]) == 0.25
        assert int(first[2]) == 16 and int(last[2]) == 64
        assert first[3] == "2" and first[4] == "0" and first[5] == "2"
        assert first[11] == "" and first[12] == ""
        # zero noise converges; coarse pair so only the sign is robust
        assert float(last[11]) < -1.0
        assert float(last[12]) < -0.5

    def test_explicit_count_blank_exponent(self, tmp_path):
        code, out = run_convergence(
            tmp_path, "--h", "0.25,0.125", "--n", "60", "--noise", "none")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(r[2] == "60" and r[3] == "" for r in rows)

    def test_mixture_sigma_column(self, tmp_path):
        code, out = run_convergence(
            tmp_path, "--h", "0.25,0.125", "--i", "2", "--noise", "mixture",
            "--sigma1", "1", "--sigma2", "10", "--p", "0.5")
        assert code == 0
        sigma = float(out.read_text().splitlines()[1].split(",")[4])
        assert sigma == pytest.approx(math.sqrt(50.5), rel=1e-12)

    def test_negative_zero_sigma_writes_zero(self, tmp_path):
        code, out = run_convergence(tmp_path, "--h", "0.25", "--i", "2", "--sigma=-0.0")
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "0"

    def test_stdout_when_no_out_flag(self, capsys):
        code = cli.main(["convergence", "--domain", "square", "--h", "0.25",
                         "--i", "2", "--noise", "none"])
        assert code == 0
        got = capsys.readouterr().out.splitlines()
        assert got[0] == HEADER
        assert len(got) == 2

    def test_no_noise_bytes_reproduce(self, tmp_path):
        _, out1 = run_convergence(
            tmp_path, "--h", "0.2,0.1", "--i", "2", "--noise", "none",
            "--trials", "3")
        data1 = out1.read_bytes()
        _, out2 = run_convergence(
            tmp_path, "--h", "0.2,0.1", "--i", "2", "--noise", "none",
            "--trials", "3")
        assert out2.read_bytes() == data1

    def test_seeded_noise_bytes_reproduce(self, tmp_path):
        args = ("--h", "0.2,0.1", "--i", "2", "--trials", "2", "--seed", "11")
        _, out1 = run_convergence(tmp_path, *args)
        data1 = out1.read_bytes()
        _, out2 = run_convergence(tmp_path, *args)
        assert out2.read_bytes() == data1

    def test_worker_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        args = ("--h", "0.25,0.125", "--i", "2", "--trials", "2", "--seed", "3")
        tail = ["tail", "--domain", "square", "--h", "0.125", "--i", "2",
                "--trials", "101", "--seed", "3", "--out"]
        _, serial = run_convergence(tmp_path, *args)
        serial_bytes = serial.read_bytes()
        assert cli.main([*tail, str(tmp_path / "tail1.csv")]) == 0
        monkeypatch.setenv("OBSFEM_THREADS", "2")
        _, pooled = run_convergence(tmp_path, *args)
        assert pooled.read_bytes() == serial_bytes
        assert cli.main([*tail, str(tmp_path / "tail2.csv")]) == 0
        tail_bytes = (tmp_path / "tail1.csv").read_bytes()
        assert len(tail_bytes.splitlines()) > 1
        assert (tmp_path / "tail2.csv").read_bytes() == tail_bytes


class TestPublishedRateWindows:
    def test_dense_sampling_recovers_quadratic_rate(self, tmp_path):
        # n = h^-4 keeps the noise contribution below the deterministic
        # error down to the finest mesh; this is the long benchmark run
        code, out = run_convergence(
            tmp_path, "--h", "0.1,0.05,0.025,0.0125", "--i", "4",
            "--sigma", "2", "--trials", "10", "--seed", "7")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        rate = float(lines[-1].split(",")[11])
        assert -2.2 <= rate <= -1.7

    def test_sparse_sampling_saturates_at_first_order(self, tmp_path):
        code, out = run_convergence(
            tmp_path, "--h", "0.1,0.05,0.025,0.0125", "--i", "2",
            "--sigma", "2", "--trials", "10", "--seed", "7")
        assert code == 0
        rate = float(out.read_text().splitlines()[-1].split(",")[11])
        assert -1.3 <= rate <= -0.7


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _bad_value(name: str):
    """Text for --name that the CLI must reject: a non-number, a
    non-finite or negative value, or (p, h) one outside its range."""
    numbers = [st.sampled_from(["nan", "inf", "-inf", "1e999", "-Infinity"]),
               st.floats(max_value=0.0, exclude_max=name != "h").map(repr)]
    if name == "p":
        numbers.append(st.floats(min_value=1.0, exclude_min=True).map(repr))
    if name == "h":
        numbers.append(st.floats(min_value=0.5, exclude_min=True).map(repr))
    text = st.text(st.characters(codec="ascii", exclude_categories=("Cc",)), max_size=6)
    return st.one_of(*numbers, text.filter(lambda s: not _is_float(s)))


class TestConfigErrors:
    def test_unknown_domain(self, capsys):
        assert cli.main(["convergence", "--domain", "triangle", "--h", "0.1",
                         "--i", "2"]) == 2

    def test_h_not_a_number(self, tmp_path, capsys):
        code, _ = run_convergence(tmp_path, "--h", "abc", "--i", "2")
        assert code == 2
        assert capsys.readouterr().err == "error: --h: 'abc' is not a number\n"

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.sampled_from(["sigma", "sigma1", "sigma2", "p", "h"]).flatmap(
        lambda name: st.tuples(st.just(name), _bad_value(name))))
    def test_bad_numeric_parameter_is_one_error_line(self, capsys, bad):
        name, value = bad
        argv = {"sigma": ["--noise", "gaussian"], "h": []}.get(name, ["--noise", "mixture"])
        argv = ["convergence", "--domain", "square", "--i", "2", "--trials", "1", *argv]
        if name != "h":
            argv += ["--h", "0.25"]
        code = cli.main([*argv, f"--{name}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert re.search(rf"(?<![\w-])(--)?{name}\b", err), err

    @pytest.mark.parametrize("h", ["1e-320", "1e-6"])
    def test_tiny_h_refused_before_any_mesh(self, tmp_path, capsys, monkeypatch, h):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        code, out = run_convergence(tmp_path, "--h", h, "--i", "2")
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: --h: ")
        assert "physical memory" in err

    @pytest.mark.parametrize("args", [("--seed", "-1"), ("--seed", str(2**64 - 1), "--trials", "2")])
    def test_seed_beyond_64_bits_refused_before_any_mesh(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        code, out = run_convergence(tmp_path, "--h", "0.1", "--i", "2", *args)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: seeds [")

    @pytest.mark.parametrize("n", [2 ** 52 + 1, 10 ** 20])
    def test_site_count_above_2_to_the_52_refused_before_any_mesh(self, tmp_path, capsys, monkeypatch, n):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        code, out = run_convergence(tmp_path, "--h", "0.5", "--n", str(n), "--trials", "1")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: n must be at most 2^52, got {n}\n"

    def test_memory_estimate_counts_the_workers(self, tmp_path, capsys, monkeypatch):
        # h=0.1, i=4: at least 16 B x 121 vertices + 24 B x 10^4 sites = 242 kB per level
        pages = {"SC_PHYS_PAGES": 80, "SC_PAGE_SIZE": 4096}  # 328 kB
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        args = ("--h", "0.1", "--i", "4", "--trials", "2")
        assert run_convergence(tmp_path, *args)[0] == 0
        monkeypatch.setenv("OBSFEM_THREADS", "2")
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        assert run_convergence(tmp_path, *args)[0] == 2
        assert "2 worker(s)" in capsys.readouterr().err

    def test_k160_i4_fits_the_estimate(self, tmp_path, monkeypatch):
        # 655 M sites, but a level holds three windows of 2^16 of them, so at
        # least 16 B x 161^2 vertices + 24 B x 2^15 = 1.2 MB per worker
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        pages = {"SC_PHYS_PAGES": 768, "SC_PAGE_SIZE": 4096}  # 3.1 MB
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(analysis, "build_mesh", built)
        with pytest.raises(Built):
            run_convergence(tmp_path, "--h", "0.00625", "--i", "4")
        args = argparse.Namespace(h="0.00625", i=4, n=None)
        assert cli._mesh_sizes(args, 2) == [160]
        with pytest.raises(ValueError, match=r"^--h: h=0.00625 needs at least 0.0036 GB .*3 worker\(s\)"):
            cli._mesh_sizes(args, 3)

    def test_estimate_is_at_most_what_a_large_level_holds(self):
        # square k=40, i=4: 2.56 M sites in windows of 2^16.  The level's
        # growth of the resident set is read while it lives (its peak can
        # lie below the peak of the imports).
        program = ("import resource\nimport obsfem\nfrom obsfem import cli\n"
                   "def resident():\n"
                   "    return int(open('/proc/self/statm').read().split()[1]) * resource.getpagesize()\n"
                   "base = resident()\n"
                   "level = obsfem.Level('square', 40, i=4)\n"
                   "w, work = next(level.placement.windows())\n"
                   "pass_buffers = w.t.nbytes + w.alpha.nbytes + work.nbytes\n"
                   "del w, work\n"
                   "level.trials(obsfem.NoiseModel.mixture(1.0, 10.0, 0.3), range(2))\n"
                   "held = level.mesh.vertices.nbytes + pass_buffers\n"
                   "print(cli._level_bytes(41 * 41, 40.0 ** 4), held, resident() - base)\n")
        src = os.path.dirname(os.path.dirname(obsfem.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", program], capture_output=True, check=True,
                             env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        estimate, held, grown = map(float, run.stdout.split())
        assert estimate <= min(held, grown), (estimate, held, grown)

    def test_h_out_of_range(self, tmp_path, capsys):
        code, _ = run_convergence(tmp_path, "--h", "0.6", "--i", "2")
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_duplicate_h(self, tmp_path, capsys):
        code, _ = run_convergence(tmp_path, "--h", "0.1,0.1", "--i", "2")
        assert code == 2

    def test_negative_sigma(self, tmp_path, capsys):
        code, _ = run_convergence(tmp_path, "--h", "0.25", "--i", "2",
                                  "--sigma", "-1")
        assert code == 2

    @pytest.mark.parametrize("flags, name", [
        (("--sigma", "nan"), "sigma"),
        (("--noise", "mixture", "--sigma2", "inf"), "sigma2"),
        (("--noise", "mixture", "--sigma1", "-1"), "sigma1"),
    ])
    def test_bad_noise_parameter(self, tmp_path, capsys, flags, name):
        code, _ = run_convergence(tmp_path, "--h", "0.25", "--i", "2", *flags)
        assert code == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err

    def test_zero_trials(self, tmp_path, capsys):
        code, _ = run_convergence(tmp_path, "--h", "0.25", "--i", "2",
                                  "--trials", "0")
        assert code == 2
        assert "error: trials must be positive\n" in capsys.readouterr().err

    def test_missing_observation_count(self, tmp_path, capsys):
        code, _ = run_convergence(tmp_path, "--h", "0.25")
        assert code == 2

    def test_tail_needs_single_h(self, tmp_path, capsys):
        code = cli.main(["tail", "--domain", "square", "--h", "0.1,0.05",
                         "--i", "2", "--trials", "100",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_tail_trial_floor(self, tmp_path, capsys):
        code = cli.main(["tail", "--domain", "square", "--h", "0.1", "--i", "2",
                         "--trials", "99", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "at least 100" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    @pytest.mark.parametrize("command", ["convergence", "tail"])
    def test_bad_worker_count(self, tmp_path, capsys, monkeypatch, command, value):
        monkeypatch.setenv("OBSFEM_THREADS", value)
        code = cli.main([command, "--domain", "square", "--h", "0.25", "--i", "2",
                         "--trials", "100", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "OBSFEM_THREADS must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_mesh_k_floor(self, tmp_path, capsys):
        code = cli.main(["mesh", "--domain", "square", "--k", "1",
                         "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert capsys.readouterr().err == "error: --k: mesh size parameter k=1 must be at least 2\n"

    @pytest.mark.parametrize("domain", ["square", "disk"])
    def test_huge_k_refused_before_any_mesh(self, tmp_path, capsys, monkeypatch, domain):
        monkeypatch.setattr(cli, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        out = tmp_path / "m.txt"
        code = cli.main(["mesh", "--domain", domain, "--k", "1000000000000", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: --k: k=1000000000000 needs at least ")
        assert "(1e+24 vertices); physical memory" in err


class TestTailCommand:
    def test_fit_columns(self, tmp_path, capsys):
        out = tmp_path / "tail.csv"
        code = cli.main(["tail", "--domain", "square", "--h", "0.05", "--i", "2",
                         "--sigma", "2", "--trials", "200", "--seed", "0",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,survival,log_survival,fit_a,fit_b,r2"
        assert len(lines) > 10
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1.0, rel=1e-12)
        assert float(first[4]) > 0  # fit_b
        assert float(first[5]) >= 0.9  # r2
        assert "median=" in capsys.readouterr().err

    def test_degenerate_header_only(self, tmp_path, capsys):
        out = tmp_path / "tail.csv"
        code = cli.main(["tail", "--domain", "square", "--h", "0.1", "--i", "2",
                         "--noise", "none", "--trials", "100",
                         "--out", str(out)])
        assert code == 0
        assert out.read_text() == "z,survival,log_survival,fit_a,fit_b,r2\n"
        assert "degenerate" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        args = ["tail", "--domain", "square", "--h", "0.1", "--i", "2",
                "--trials", "100", "--seed", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pooled_run_prints_serial_bytes(self):
        # the level's nudge warning is printed once, not once per worker
        argv = [sys.executable, "-m", "obsfem.cli", "tail", "--domain", "square", "--h", "0.1",
                "--i", "2", "--sigma", "2", "--trials", "100"]
        src = os.path.dirname(os.path.dirname(obsfem.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [subprocess.run(argv, capture_output=True, check=True,
                               env={**os.environ, "PYTHONPATH": path, "OBSFEM_THREADS": threads})
                for threads in ("1", "2")]
        assert runs[0].stdout.count(b"\n") > 1
        assert runs[0].stderr.count(b"nudged 20 observation sites") == 1
        assert (runs[1].stdout, runs[1].stderr) == (runs[0].stdout, runs[0].stderr)


class TestMeshCommand:
    def test_square_counts_header(self, tmp_path, capsys):
        out = tmp_path / "square.txt"
        code = cli.main(["mesh", "--domain", "square", "--k", "2",
                         "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "9 8 8"
        stdout = capsys.readouterr().out
        assert "vertices=9" in stdout and "max_aspect=" in stdout

    def test_disk_boundary_all_arcs(self, tmp_path):
        out = tmp_path / "disk.txt"
        code = cli.main(["mesh", "--domain", "disk", "--k", "10",
                         "--out", str(out)])
        assert code == 0
        mesh = read_mesh_text(str(out))
        assert mesh.boundary.curved.all()

    def test_repeat_write_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["mesh", "--domain", "disk", "--k", "4", "--out", str(a)])
        cli.main(["mesh", "--domain", "disk", "--k", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("domain", ["square", "disk"])
    def test_builds_through_the_domain_map(self, tmp_path, monkeypatch, domain):
        # the studies and the mesh command name their domains in one place
        calls, build = [], cli.build_mesh
        monkeypatch.setattr(cli, "build_mesh", lambda *a: calls.append(a) or build(*a))
        assert cli.main(["mesh", "--domain", domain, "--k", "3", "--out", str(tmp_path / "m.txt")]) == 0
        assert calls == [(domain, 3)]
        assert read_mesh_text(str(tmp_path / "m.txt")).boundary.curved.all() == (domain == "disk")


class TestSolverFailureExit:
    def test_nudge_warning_printed_before_the_failure(self):
        # square h=0.1 with n=100 nudges 20 sites; the level's warning is
        # held while it is built and must still be printed when a trial fails
        program = ("import sys; from obsfem import analysis, cli; from obsfem.solver import SingularSystemError\n"
                   "def stall(system, G=None):\n    raise SingularSystemError('stalled')\n"
                   "analysis.solve_saddle = stall\n"
                   "sys.exit(cli.main(sys.argv[1:]))\n")
        argv = [sys.executable, "-c", program, "convergence", "--domain", "square", "--h", "0.1",
                "--i", "2", "--trials", "4"]
        src = os.path.dirname(os.path.dirname(obsfem.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [subprocess.run(argv, capture_output=True,
                               env={**os.environ, "PYTHONPATH": path, "OBSFEM_THREADS": threads})
                for threads in ("1", "2")]
        assert [r.returncode for r in runs] == [3, 3]
        lines = runs[0].stderr.decode().splitlines()
        assert lines[0] == "nudged 20 observation sites off element endpoints"
        assert lines[1].startswith("solver failure: h=0.1 n=100: stalled")
        assert runs[1].stderr == runs[0].stderr


    def test_exit_code_three(self, tmp_path, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise SingularSystemError("h=0.25 n=16: iterative solve stalled")

        monkeypatch.setattr(cli, "run_study", stall)
        code, _ = run_convergence(tmp_path, "--h", "0.25", "--i", "2")
        assert code == 3
        err = capsys.readouterr().err
        assert "solver failure" in err and "h=0.25 n=16" in err
