"""Command-line interface: output documents, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qfdiv.cli import CSV_COLUMNS, build_parser, main
from qfdiv.hermitian import MAX_DIM, matrix_to_json


@pytest.fixture
def files(tmp_path):
    """Example matrices and distributions written as CLI input files."""

    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "qa": put("qa.json", matrix_to_json(np.diag([0.75, 0.25]).astype(complex))),
        "pa": put("pa.json", matrix_to_json(np.diag([0.5, 0.5]).astype(complex))),
        "qb": put("qb.json", matrix_to_json(
            np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))),
        "pb": put("pb.json", matrix_to_json(np.diag([0.7, 0.3]).astype(complex))),
        "q3": put("q3.json", matrix_to_json(np.eye(3, dtype=complex) / 3.0)),
        "dq": put("dq.json", {"weights": [0.3, 0.7, 0.0]}),
        "dp": put("dp.json", {"weights": [0.5, 0.5, 0.0]}),
        "orth_q": put("oq.json", {"weights": [1.0, 0.0]}),
        "orth_p": put("op.json", {"weights": [0.0, 1.0]}),
        "bad": put("bad.json", {"weights": "nope"}),
        "dir": str(tmp_path),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCompute:
    def test_json_document(self, files, capsys):
        code, out = run(capsys, "compute", "--q", files["qa"], "--p", files["pa"],
                        "--generator", "kl-quantum")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert "manifest" in doc
        row = doc["results"][0]
        assert row["generator"] == "kl-quantum"
        assert row["value"] == pytest.approx(0.1308120, abs=1e-7)
        assert row["closed_form"] == pytest.approx(row["value"], abs=1e-12)
        assert abs(row["gap"]) <= 1e-12

    def test_full_catalog_default(self, files, capsys):
        code, out = run(capsys, "compute", "--q", files["qb"], "--p", files["pb"])
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert len(doc["results"]) == 12

    def test_csv_header_and_manifest_line(self, files, capsys):
        code, out = run(capsys, "compute", "--q", files["qa"], "--p", files["pa"],
                        "--format", "csv", "--generator", "chi2")
        assert code == 0
        body = out[out.index("# manifest:"):]
        lines = body.splitlines()
        assert lines[0].startswith("# manifest: {")
        reader = csv.reader(io.StringIO("\n".join(lines[1:])))
        header = next(reader)
        assert tuple(header) == CSV_COLUMNS
        row = dict(zip(header, next(reader)))
        assert float(row["value"]) == pytest.approx(0.25, abs=1e-12)
        # compute rows leave the bound columns blank.
        assert row["bound_thm3"] == ""

    def test_unknown_generator_exits_2(self, files, capsys):
        code, _ = run(capsys, "compute", "--q", files["qa"], "--p", files["pa"],
                      "--generator", "does-not-exist")
        assert code == 2

    def test_dimension_mismatch_exits_3(self, files, capsys):
        code, _ = run(capsys, "compute", "--q", files["q3"], "--p", files["pa"])
        assert code == 3

    def test_malformed_file_exits_2(self, files, capsys):
        code, _ = run(capsys, "compute", "--q", files["bad"], "--p", files["pa"])
        assert code == 2

    def test_missing_file_exits_2(self, files, capsys):
        code, _ = run(capsys, "compute", "--q", files["dir"] + "/absent.json",
                      "--p", files["pa"])
        assert code == 2

    def test_hellinger_closed_form_honours_eps_invert(self, files, capsys, tmp_path):
        p_near = tmp_path / "p_near.json"
        p_near.write_text(json.dumps(matrix_to_json(
            np.diag([0.6, 0.4 - 5e-13, 5e-13]).astype(complex))))
        code, out = run(capsys, "compute", "--q", files["q3"], "--p", str(p_near),
                        "--eps-invert", "1e-15", "--generator", "hellinger")
        assert code == 0
        row = json.loads(out[out.index("{"):])["results"][0]
        assert np.isfinite(row["closed_form"])


class TestCertify:
    def test_all_chains_pass_on_commuting_pair(self, files, capsys):
        code, out = run(capsys, "certify", "--q", files["qa"], "--p", files["pa"])
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert doc["status"] == "pass"
        assert doc["violations"] == []

    def test_chi2_window_product_equality_flag(self, files, capsys):
        code, out = run(capsys, "certify", "--q", files["qa"], "--p", files["pa"],
                        "--generator", "chi2")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        thm4 = next(r for r in doc["reports"] if r["check"] == "thm4")
        sub = next(s for s in thm4["subchains"] if s["check"] == "thm4:chi2")
        assert "equality:value=window-product" in sub["flags"]

    def test_csv_bound_columns(self, files, capsys):
        code, out = run(capsys, "certify", "--q", files["qb"], "--p", files["pb"],
                        "--format", "csv", "--generator", "kl-quantum")
        assert code == 0
        lines = out[out.index("# manifest:"):].splitlines()
        reader = csv.reader(io.StringIO("\n".join(lines[1:])))
        row = dict(zip(next(reader), next(reader)))
        value = float(row["value"])
        for col in ("bound_thm2", "bound_thm3", "bound_thm4", "bound_thm5"):
            assert float(row[col]) >= value - 1e-12
        assert "thm3=pass" in row["verdicts"]

    def test_catalog_shares_one_pair_context(self, files, capsys, monkeypatch):
        # chi for thm2 and the swapped chi-square for neg-log, once per pair.
        import qfdiv.harness

        calls = []
        real = qfdiv.harness.chi_squares
        monkeypatch.setattr(qfdiv.harness, "chi_squares",
                            lambda *a: calls.append(a) or real(*a))
        code, _ = run(capsys, "certify", "--q", files["qb"], "--p", files["pb"])
        assert code == 0
        assert len(calls) == 2

    def test_selftest_hook_forces_exit_1(self, files, capsys, monkeypatch):
        monkeypatch.setenv("QFDIV_SELFTEST_CORRUPT", "1")
        code, out = run(capsys, "certify", "--q", files["qa"], "--p", files["pa"],
                        "--generator", "chi2")
        assert code == 1
        doc = json.loads(out[out.index("{"):])
        assert doc["status"] == "fail"


    def test_maximally_mixed_pair_passes(self, tmp_path, capsys):
        # Q = P = I/5 has r = R = 1.  thm2 once compared tv's D = -2 times a
        # chi of about 1.5e-8, made from a 2e-16 residue, against -0.0.
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(5, dtype=complex) / 5.0)))
        code, out = run(capsys, "certify", "--q", str(path), "--p", str(path))
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        thm2 = [r for r in doc["reports"] if r["check"] == "thm2"]
        assert len(thm2) == 12
        assert all(r["status"] == "skipped" and "degenerate window" in r["note"] for r in thm2)


def _lose_stochasticity(*args, **kwargs):
    raise ArithmeticError("overlap matrix lost double stochasticity: row defect 1e-06")


def _lose_stochasticity_in_block(qds, pds, eps):
    # joint_spectra reports a rejected pair by returning its exception.
    return [ArithmeticError("overlap matrix lost double stochasticity: row defect 1e-06")
            for _ in qds]


class TestNumericalFailure:
    def test_certify_exits_4(self, files, capsys, monkeypatch):
        monkeypatch.setattr("qfdiv.cli.joint_spectrum", _lose_stochasticity)
        code = main(["certify", "--q", files["qa"], "--p", files["pa"]])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_fuzz_records_the_trial_as_skipped(self, files, capsys, monkeypatch):
        monkeypatch.setattr("qfdiv.harness.joint_spectra", _lose_stochasticity_in_block)
        code, out = run(capsys, "fuzz", "--dim", "2", "--trials", "3", "--seed", "0")
        assert code == 0
        skipped = json.loads(out)["summary"]["skipped_trials"]
        assert [s["trial"] for s in skipped] == [0, 1, 2]
        assert "double stochasticity" in skipped[0]["reason"]


class TestFuzzCommand:
    def test_small_run_passes(self, files, capsys):
        code, out = run(capsys, "fuzz", "--dim", "2", "--trials", "5", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["summary"]["violations"] == 0

    def test_stdout_is_deterministic(self, files, capsys):
        _, a = run(capsys, "fuzz", "--dim", "2", "--trials", "5", "--seed", "3")
        _, b = run(capsys, "fuzz", "--dim", "2", "--trials", "5", "--seed", "3")
        assert a == b

    def test_jobs_flag_does_not_change_stdout(self, files, capsys):
        _, a = run(capsys, "fuzz", "--dim", "2", "--trials", "6", "--seed", "7",
                   "--jobs", "1")
        _, b = run(capsys, "fuzz", "--dim", "2", "--trials", "6", "--seed", "7",
                   "--jobs", "3")
        assert a == b

    def test_seed_env_fallback(self, files, capsys, monkeypatch):
        monkeypatch.setenv("QFDIV_SEED", "11")
        _, a = run(capsys, "fuzz", "--dim", "2", "--trials", "4")
        monkeypatch.delenv("QFDIV_SEED")
        _, b = run(capsys, "fuzz", "--dim", "2", "--trials", "4", "--seed", "11")
        assert json.loads(a) == json.loads(b)

    def test_allow_singular_drops_unbounded_generators(self, files, capsys):
        code, out = run(capsys, "fuzz", "--dim", "2", "--trials", "4", "--seed", "1",
                        "--allow-singular")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["config"]["floor"] == 0.0
        names = doc["summary"]["config"]["generators"]
        # only generators finite at ratio zero survive the filter.
        assert "neg-log" not in names and "inv-minus-one" not in names
        assert "kl-quantum" in names and "tv" in names

    def test_zero_trials_exits_2(self, files, capsys):
        code, _ = run(capsys, "fuzz", "--trials", "0")
        assert code == 2

    def test_zero_dim_exits_2(self, files, capsys):
        # Refused before the default floor 1e-6/dim is computed.
        code = main(["fuzz", "--dim", "0", "--trials", "1"])
        assert code == 2
        assert "dimension must be >= 1" in capsys.readouterr().err

    def test_oversized_dim_exits_2(self, files, capsys):
        # Refused before any (dim, dim) array is allocated.
        code = main(["fuzz", "--dim", "100000", "--trials", "1"])
        assert code == 2
        assert f"at most {MAX_DIM}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--dim", "3", "--trials", "20", "--seed", "2", "--eps-invert", "0.01"),
        ("--dim", "3", "--trials", "10", "--seed", "1", "--tol", "1e-300"),
        ("--dim", "4", "--trials", "9", "--seed", "5", "--sampler", "mixture"),
        ("--dim", "2", "--trials", "9", "--seed", "6", "--sampler", "commuting",
         "--allow-singular"),
    ], ids=["skipped", "violations", "mixture", "commuting-singular"])
    def test_block_size_does_not_change_stdout(self, capsys, monkeypatch, argv):
        import qfdiv.harness

        outputs = set()
        for size in (1, 7, 16):
            monkeypatch.setattr(qfdiv.harness, "FUZZ_BLOCK", size)
            outputs.add(run(capsys, "fuzz", *argv))
        assert len(outputs) == 1


class TestToleranceValidation:
    """--tol must be positive and finite: a negative or NaN tol would fail
    every link and an infinite one pass every link."""

    BAD = ["-1", "0", "nan", "inf"]

    @pytest.mark.parametrize("tol", BAD)
    def test_certify_exits_2(self, files, capsys, tol):
        code = main(["certify", "--q", files["qb"], "--p", files["pb"], "--tol", tol])
        assert code == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", BAD)
    def test_fuzz_exits_2(self, capsys, tol):
        code = main(["fuzz", "--dim", "2", "--trials", "1", "--tol", tol])
        assert code == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err


class TestEpsInvertFloor:
    """A diagonal thermal P with N = 32 (smallest eigenvalue 2.18e-14) is
    clamped to 0 by ZERO_EIGENVALUE_TOL * ||P||_F = 6.8e-14, so no
    --eps-invert makes it invertible; the help text says so."""

    def test_help_names_the_clamp(self, capsys):
        from qfdiv.cli import build_parser
        from qfdiv.hermitian import ZERO_EIGENVALUE_TOL

        for command in ("compute", "certify", "fuzz", "spectrum"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert (f"within {ZERO_EIGENVALUE_TOL:g} * ||P||_F of 0 are clamped to 0, "
                    "so a smaller one has no effect") in help_text

    def test_tiny_threshold_cannot_invert_clamped_p(self, files, capsys, tmp_path):
        weights = np.exp(-np.arange(32.0))
        p_path = tmp_path / "thermal.json"
        p_path.write_text(json.dumps(matrix_to_json(np.diag(weights / weights.sum()))))
        q_weights = np.exp(-2.0 * np.arange(32.0))
        q_path = tmp_path / "thermal2.json"
        q_path.write_text(json.dumps(matrix_to_json(np.diag(q_weights / q_weights.sum()))))
        code = main(["compute", "--q", str(q_path), "--p", str(p_path),
                     "--generator", "kl-quantum", "--eps-invert", "1e-300"])
        assert code == 3
        assert "singular at tolerance 1e-300: min eigenvalue 0.000e+00" in capsys.readouterr().err


class TestSpectrum:
    def test_example_b_overlap(self, files, capsys):
        code, out = run(capsys, "spectrum", "--q", files["qb"], "--p", files["pb"])
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert doc["eigenvalues_q"] == pytest.approx([0.75, 0.25], abs=1e-14)
        assert doc["eigenvalues_p"] == pytest.approx([0.7, 0.3], abs=1e-14)
        w = np.asarray(doc["overlap"])
        assert w == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)
        assert doc["r"] == pytest.approx(5.0 / 14.0, abs=1e-14)
        assert doc["R"] == pytest.approx(2.5, abs=1e-14)

    def test_prints_the_overlap_defect(self, files, capsys):
        code, out = run(capsys, "spectrum", "--q", files["qb"], "--p", files["pb"])
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        w = np.asarray(doc["overlap"])
        assert doc["overlap_defect"] == {"rows": np.abs(w.sum(axis=1) - 1.0).max(),
                                         "columns": np.abs(w.sum(axis=0) - 1.0).max()}

    def test_oversized_dim_in_input_exits_2(self, files, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 100_000, "re": [[1.0]]}))
        code = main(["spectrum", "--q", str(path), "--p", files["pa"]])
        assert code == 2
        assert f"at most {MAX_DIM}" in capsys.readouterr().err


class TestClassical:
    def test_values_and_bounds(self, files, capsys):
        code, out = run(capsys, "classical", "--q", files["dq"], "--p", files["dp"],
                        "--generator", "kl-quantum")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        row = doc["results"][0]
        expected = 0.3 * np.log(0.6) + 0.7 * np.log(1.4)
        assert row["value"] == pytest.approx(expected, abs=1e-14)
        assert row["range_ok"] and row["refinement_ok"]
        assert row["variation"] == pytest.approx(0.4, abs=1e-14)

    def test_orthogonal_upper_equality_flag(self, files, capsys):
        code, out = run(capsys, "classical", "--q", files["orth_q"],
                        "--p", files["orth_p"], "--generator", "hellinger")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert "upper-equality" in doc["results"][0]["flags"]


class TestOutputFiles:
    def test_out_file_contains_manifest(self, files, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run(capsys, "compute", "--q", files["qa"], "--p", files["pa"],
                      "--generator", "chi2", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        man = doc["manifest"]
        assert man["command"][:2] == ["qfdiv", "compute"]
        assert set(man["inputs"]) == {"q", "p"}
        # input digests are hex sha256 strings.
        assert all(len(h) == 64 for h in man["inputs"].values())
        assert man["version"]

    def test_manifest_records_numpy_version(self, files, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run(capsys, "compute", "--q", files["qa"], "--p", files["pa"],
            "--generator", "chi2", "--out", str(out_path))
        assert json.loads(out_path.read_text())["manifest"]["numpy"] == np.__version__

    def test_manifest_records_blas_and_simd(self, files, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run(capsys, "compute", "--q", files["qa"], "--p", files["pa"],
            "--generator", "chi2", "--out", str(out_path))
        man = json.loads(out_path.read_text())["manifest"]
        config = np.show_config(mode="dicts")
        assert man["blas"]["name"] == config["Build Dependencies"]["blas"]["name"]
        assert man["simd"]["found"] == config["SIMD Extensions"]["found"]

    def test_timestamp_override_gives_byte_identical_files(self, files, capsys,
                                                           tmp_path, monkeypatch):
        monkeypatch.setenv("QFDIV_TIMESTAMP", "2026-01-01T00:00:00Z")
        target = tmp_path / "report.json"
        run(capsys, "certify", "--q", files["qb"], "--p", files["pb"],
            "--generator", "kl-quantum", "--out", str(target))
        first = target.read_bytes()
        run(capsys, "certify", "--q", files["qb"], "--p", files["pb"],
            "--generator", "kl-quantum", "--out", str(target))
        assert target.read_bytes() == first

    def test_fuzz_out_file_has_manifest_stdout_does_not(self, files, capsys, tmp_path):
        out_path = tmp_path / "fuzz.json"
        _, out = run(capsys, "fuzz", "--dim", "2", "--trials", "3", "--seed", "0",
                     "--out", str(out_path))
        assert "manifest" not in json.loads(out)
        assert "manifest" in json.loads(out_path.read_text())


class TestParser:
    def test_version_exits_0(self, capsys):
        code, out = run(capsys, "--version")
        assert code == 0
        assert out.startswith("qfdiv ")

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["fuzz", "--frobnicate"]) == 2

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        argv = ("fuzz", "--dim", "2", "--trials", "2", "--seed", "3", "--generator", "tv")
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        assert json.loads(first[1])["summary"]["config"]["generators"] == ["tv"]
        _, out = run(capsys, "fuzz", "--dim", "2", "--trials", "2", "--seed", "3")
        assert len(json.loads(out)["summary"]["config"]["generators"]) == 12


class TestImports:
    def test_fuzz_and_certify_leave_numpy_ma_unimported(self, files):
        # numpy.ma is imported lazily (by np.unique, among others) and costs
        # about 1 MiB of resident memory.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import contextlib, io, sys\n"
            "from qfdiv.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['fuzz', '--dim', '4', '--trials', '20', '--seed', '1']),\n"
            f"             main(['certify', '--q', {files['qb']!r}, '--p', {files['pb']!r}])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["[0,", "0]", "False"]
