"""Command-line interface: output documents, exit codes, determinism."""

import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdiv import harness
from qfdiv.cli import CSV_COLUMNS, _dump_json, _manifest, _numpy_build, build_parser, main, report_to_json
from qfdiv.generators import default_catalog
from qfdiv.harness import FuzzConfig, certify, fuzz, sample_pair
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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
STAMP = "2026-01-01T00:00:00Z"


def _process(argv, env=(), args=("-m", "qfdiv")) -> tuple:
    """The exit code, stdout and stderr of `python -m qfdiv argv` (or of
    python with other args) run from ./src, with QFDIV_TIMESTAMP pinned."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "QFDIV_TIMESTAMP": STAMP, **dict(env)}
    done = subprocess.run([sys.executable, *args, *argv], env=env, capture_output=True, text=True,
                          check=False)
    return done.returncode, done.stdout, done.stderr


def _in_process(capsys, monkeypatch, argv, env=()) -> tuple:
    """_process's triple for main(argv) in this process."""
    for key, value in {"QFDIV_TIMESTAMP": STAMP, **dict(env)}.items():
        monkeypatch.setenv(key, value)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # chi for thm2 and the swapped chi-square for neg-log, in one stacked
        # chi_squares call per pair.
        import qfdiv.harness

        calls = []
        real = qfdiv.harness.chi_squares
        monkeypatch.setattr(qfdiv.harness, "chi_squares",
                            lambda *a: calls.append(a) or real(*a))
        code, _ = run(capsys, "certify", "--q", files["qb"], "--p", files["pb"])
        assert code == 0
        assert len(calls) == 1

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


def _lose_stochasticity_in_block(q_dec, p_dec, eps):
    # joint_spectra reports a rejected pair by returning its exception.
    from qfdiv.quantum import joint_spectra

    fields, errors = joint_spectra(q_dec, p_dec, eps)
    return fields, [ArithmeticError("overlap matrix lost double stochasticity: row defect 1e-06")
                    for _ in errors]


class TestNumericalFailure:
    def test_certify_exits_4(self, files, capsys, monkeypatch):
        monkeypatch.setattr("qfdiv.cli.joint_spectrum", _lose_stochasticity)
        code = main(["certify", "--q", files["qa"], "--p", files["pa"]])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_arithmetic_error_subclass_exits_4(self, files, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow encountered")

        monkeypatch.setattr("qfdiv.cli.joint_spectrum", overflow)
        code = main(["spectrum", "--q", files["qa"], "--p", files["pa"]])
        assert code == 4
        assert capsys.readouterr().err == "error: numerical failure: overflow encountered\n"

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

    def test_non_integer_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QFDIV_SEED", "abc")
        code = main(["fuzz", "--dim", "2", "--trials", "1"])
        assert code == 2
        assert "QFDIV_SEED must be an integer" in capsys.readouterr().err

    def test_allow_singular_with_only_unbounded_generators_exits_2(self, capsys):
        code = main(["fuzz", "--trials", "1", "--allow-singular", "--generator", "neg-log"])
        assert code == 2
        assert "--allow-singular left no generators" in capsys.readouterr().err

    @pytest.mark.parametrize("floor", ["1e-3", "0"])
    def test_allow_singular_with_floor_exits_2(self, capsys, floor):
        # --allow-singular sets the floor to 0; an explicit --floor is refused,
        # not overwritten.
        code = main(["fuzz", "--trials", "1", "--allow-singular", "--floor", floor])
        captured = capsys.readouterr()
        assert code == 2
        assert "--allow-singular" in captured.err and "--floor" in captured.err
        assert captured.out == ""

    def test_repeated_generator_parameter_exits_2(self, capsys):
        code = main(["fuzz", "--trials", "1", "--generator", "tsallis:q=0.5,q=0.3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "repeated parameter 'q'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("alpha", ["0.0009", "1e-300"])
    @pytest.mark.parametrize("cmd", ["certify", "fuzz"])
    def test_arimoto_alpha_below_overflow_exits_2(self, files, capsys, cmd, alpha):
        # 2 ** (1/alpha - 1) overflowed while the spec was parsed, and exited 4.
        args = ("--q", files["qa"], "--p", files["pa"]) if cmd == "certify" else ("--trials", "1")
        code = main([cmd, *args, "--generator", f"arimoto:alpha={alpha}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: arimoto needs alpha") and captured.out == ""

    def test_nan_chain_sides_are_strings(self, capsys):
        # puri-vincze at alpha = 2000 overflows to NaN chain terms; every
        # violation side is then "nan", so stdout is strict JSON.
        code, out = run(capsys, "fuzz", "--dim", "3", "--trials", "2", "--generator",
                        "puri-vincze:alpha=2000")
        assert code == 1

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        sides = [v[side] for v in json.loads(out, parse_constant=refuse)["violations"]
                 for side in ("left", "right")]
        assert "nan" in sides

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
        ("--dim", "1", "--trials", "9", "--seed", "14"),
        ("--dim", "3", "--trials", "9", "--seed", "15", "--generator", "tv", "--generator", "matsushita:alpha=1",
         "--generator", "arimoto:alpha=inf", "--generator", "chi-alpha:alpha=1"),
        ("--dim", "4", "--trials", "9", "--seed", "20", "--generator", "tsallis:q=0.2", "--generator", "kl",
         "--generator", "tsallis:q=0.8"),
    ], ids=["skipped", "violations", "mixture", "commuting-singular", "degenerate-windows", "kinks-only",
            "two-tsallis"])
    def test_block_size_does_not_change_stdout(self, capsys, monkeypatch, argv):
        import qfdiv.harness

        outputs, blocks, real = set(), [], qfdiv.harness._Block
        monkeypatch.setattr(qfdiv.harness, "_Block", lambda *args: blocks.append(real(*args)) or blocks[-1])
        for size in (1, 7, 16):
            monkeypatch.setattr(qfdiv.harness, "FUZZ_BLOCK", size)
            outputs.add(run(capsys, "fuzz", *argv))
            if "--eps-invert" in argv:
                # Blocks that mix rows whose Q is invertible at eps with rows
                # whose Q is not: chi_pass's swapped pairs are some rows.
                assert size == 1 or any(0 < b.q_invertible.sum() < len(b.q_invertible) for b in blocks)
            blocks.clear()
        assert len(outputs) == 1

    @pytest.mark.parametrize("argv", [
        ("--dim", "4", "--trials", "17", "--seed", "3", "--floor", "1e-3"),
        ("--dim", "3", "--trials", "10", "--seed", "1", "--tol", "1e-300"),
        ("--dim", "2", "--trials", "9", "--seed", "6", "--sampler", "commuting", "--allow-singular"),
    ], ids=["default", "violations", "commuting-singular"])
    def test_term_chunks_do_not_change_stdout(self, capsys, monkeypatch, argv):
        # One generator per chunk of the term pass, and every generator in one.
        import qfdiv.quantum

        outputs = {run(capsys, "fuzz", *argv)}
        for points in (1, 2**20):
            monkeypatch.setattr(qfdiv.quantum, "STACK_POINTS", points)
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


class TestNonFiniteGeneratorParameter:
    """A NaN or infinite family parameter is malformed input (exit 2), not a
    generator whose NaN values fail every chain."""

    SPECS = ["dichotomy:alpha=nan", "dichotomy:alpha=inf", "dichotomy:alpha=-inf",
             "chi-alpha:alpha=inf", "puri-vincze:alpha=inf"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_certify_exits_2(self, files, capsys, spec):
        code = main(["certify", "--q", files["qb"], "--p", files["pb"], "--generator", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "finite alpha" in captured.err

    @pytest.mark.parametrize("spec", SPECS)
    def test_fuzz_exits_2(self, capsys, spec):
        code = main(["fuzz", "--dim", "2", "--trials", "2", "--generator", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "finite alpha" in captured.err


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


class TestEpsInvertValidation:
    """--eps-invert must be positive and finite; NaN used to pass the check,
    skip the invertibility test and write NaN into the manifest, and inf
    made every fuzz trial skipped."""

    @pytest.mark.parametrize("eps", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("command", ["compute", "certify", "spectrum"])
    @pytest.mark.parametrize("p", ["pa", "singular"])
    def test_pair_commands_exit_2(self, files, capsys, tmp_path, command, p, eps):
        singular = tmp_path / "singular.json"
        singular.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.0]))))
        p_path = str(singular) if p == "singular" else files[p]
        code = main([command, "--q", files["qa"], "--p", p_path, "--eps-invert", eps])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "invertibility threshold must be positive" in captured.err

    @pytest.mark.parametrize("eps", ["nan", "0", "-1", "inf"])
    def test_fuzz_exits_2(self, capsys, eps):
        code = main(["fuzz", "--dim", "2", "--trials", "1", "--eps-invert", eps])
        assert code == 2
        assert "invertibility threshold must be positive" in capsys.readouterr().err


class TestBadImaginaryPart:
    @pytest.mark.parametrize("im", [[["a", 0], [0, 0]], "x", [[0, 0], [0]], [["0", "0"], ["0", "0"]],
                                    [[True, 0], [0, False]]],
                             ids=["non-numeric", "string", "ragged", "numeric-string", "boolean"])
    @pytest.mark.parametrize("command", ["compute", "certify", "spectrum"])
    def test_exits_2(self, files, capsys, tmp_path, command, im):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": im}))
        code = main([command, "--q", str(path), "--p", files["pa"]])
        assert code == 2
        assert "bad matrix JSON" in capsys.readouterr().err


class TestMatrixDim:
    @pytest.mark.parametrize("dim", ["1e400", "2.5", "-Infinity", "NaN", '"two"', "null", "true", '"2"'])
    def test_dim_not_a_whole_number_exits_2(self, files, capsys, tmp_path, dim):
        # 1e400 parses to inf, whose int() overflow once exited 4; 2.5 once
        # ran as a 2x2 matrix.
        path = tmp_path / "q.json"
        path.write_text('{"dim": %s, "re": [[0.5, 0.0], [0.0, 0.5]]}' % dim)
        code = main(["spectrum", "--q", str(path), "--p", files["pa"]])
        assert code == 2
        assert "bad matrix JSON: dim must be a whole number" in capsys.readouterr().err

    def test_whole_float_dim_is_accepted(self, files, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"dim": 2.0, "re": [[0.5, 0.0], [0.0, 0.5]]}')
        outs = [run(capsys, "spectrum", "--q", q, "--p", files["pa"]) for q in (str(path), files["pa"])]
        assert [code for code, _ in outs] == [0, 0]
        # The same matrix as the dim 2 file, up to the manifest naming the inputs.
        assert len({out[:out.index("{")] for _, out in outs}) == 1


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

    def test_out_file_and_human_lines(self, files, capsys, tmp_path):
        target = tmp_path / "spectrum.json"
        code, out = run(capsys, "spectrum", "--q", files["qb"], "--p", files["pb"],
                        "--out", str(target))
        assert code == 0
        assert out.splitlines()[0].startswith("eigenvalues-q: ")
        assert out.endswith(f"wrote {target}\n")
        assert json.loads(target.read_text())["R"] == pytest.approx(2.5, abs=1e-14)

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

    @pytest.mark.parametrize("weights", [[True, 0.0], [0.5, "0.5"]], ids=["boolean", "numeric-string"])
    def test_weights_must_be_numbers(self, files, capsys, tmp_path, weights):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": weights}))
        code = main(["classical", "--q", str(path), "--p", files["orth_p"]])
        assert code == 2
        assert "bad weights" in capsys.readouterr().err

    def test_a_subnormal_weight_prints_no_warning(self, capsys, monkeypatch, tmp_path):
        # q/p = 2e-320, where inv-minus-one's 1/t overflows to +inf.
        q, p = tmp_path / "q.json", tmp_path / "p.json"
        q.write_text(json.dumps({"weights": [1e-320, 1.0]}))
        p.write_text(json.dumps({"weights": [0.5, 0.5]}))
        argv = ["classical", "--q", str(q), "--p", str(p)]
        done = _process(argv)
        assert done == _in_process(capsys, monkeypatch, argv)
        assert done[0] == 0 and done[2] == ""
        row = next(r for r in json.loads(done[1])["results"] if r["generator"] == "inv-minus-one")
        assert row["value"] == "inf"


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

    def test_numpy_without_config_dicts_records_no_blas_or_simd(self, monkeypatch):
        # numpy before 1.25 has no show_config(mode=...), only the printout.
        def show_config():
            raise AssertionError("printed the configuration")

        monkeypatch.setattr(np, "show_config", show_config)
        assert _numpy_build() == {"blas": {"name": None, "version": None},
                                  "simd": {"baseline": [], "found": []}}

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


class TestInputDigests:
    def test_digests_are_of_the_file_bytes(self, files, capsys):
        _, out = run(capsys, "classical", "--q", files["dq"], "--p", files["dp"],
                     "--generator", "tv")
        inputs = json.loads(out)["manifest"]["inputs"]
        for which, path in (("q", files["dq"]), ("p", files["dp"])):
            with open(path, "rb") as fh:
                assert inputs[which] == hashlib.sha256(fh.read()).hexdigest()

    def test_a_pipe_is_digested_as_read(self, files):
        # A pipe can be read only once: the digest is of the bytes parsed.
        with open(files["qa"], "rb") as fh:
            data = fh.read()
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-m", "qfdiv", "compute", "--q", "/dev/stdin",
                               "--p", files["pa"], "--generator", "chi2"],
                              input=data, env=env, capture_output=True, check=True)
        assert json.loads(done.stdout)["manifest"]["inputs"]["q"] == hashlib.sha256(data).hexdigest()


class TestNonUtf8Input:
    @pytest.mark.parametrize("encode", [
        lambda text: text.encode("utf-16"),
        lambda text: b"\xff" + text.encode(),
        # Decoded as UTF-8, a byte-order mark is a character JSON does not allow.
        lambda text: b"\xef\xbb\xbf" + text.encode(),
    ], ids=["utf-16", "0xff", "utf-8-bom"])
    @pytest.mark.parametrize("command, good", [("compute", "pa"), ("classical", "dp")])
    def test_exits_2_as_malformed_json(self, files, capsys, tmp_path, encode, command, good):
        path = tmp_path / "q.json"
        with open(files[good], encoding="utf-8") as fh:
            path.write_bytes(encode(fh.read()))
        code = main([command, "--q", str(path), "--p", files[good]])
        assert code == 2
        assert f"malformed JSON in {path}" in capsys.readouterr().err


class TestDeeplyNestedInput:
    @pytest.mark.parametrize("command", ["compute", "classical"])
    def test_exits_2_as_malformed_json(self, capsys, tmp_path, command):
        # json.loads raises RecursionError on nesting this deep.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code = main([command, "--q", str(path), "--p", str(path)])
        assert code == 2
        assert f"malformed JSON in {path}" in capsys.readouterr().err


class TestUnwritableOut:
    COMMANDS = {
        "compute": ("compute", "--q", "qa", "--p", "pa", "--generator", "chi2"),
        "certify": ("certify", "--q", "qa", "--p", "pa", "--generator", "chi2"),
        "spectrum": ("spectrum", "--q", "qa", "--p", "pa"),
        "classical": ("classical", "--q", "dq", "--p", "dp", "--generator", "tv"),
        "fuzz": ("fuzz", "--dim", "2", "--trials", "2", "--generator", "chi2"),
    }

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exits_2(self, files, capsys, tmp_path, command, where):
        target = str(tmp_path / "missing" / "out.json") if where == "missing-dir" else str(tmp_path)
        argv = [files.get(a, a) for a in self.COMMANDS[command]]
        code = main([*argv, "--out", target])
        captured = capsys.readouterr()
        assert code == 2
        assert f"cannot write {target}" in captured.err
        # fuzz prints its summary before it writes the file; the others print nothing.
        expected = run(capsys, *argv)[1] if command == "fuzz" else ""
        assert captured.out == expected


class TestParser:
    def test_version_exits_0(self, capsys):
        code, out = run(capsys, "--version")
        assert code == 0
        assert out.startswith("qfdiv ")

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["fuzz", "--frobnicate"]) == 2

    def test_argv_defaults_to_the_command_line(self, capsys, monkeypatch):
        argv = ("fuzz", "--dim", "2", "--trials", "2", "--seed", "3", "--generator", "tv")
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["qfdiv", *argv])
        assert (main(), capsys.readouterr().out) == expected

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        argv = ("fuzz", "--dim", "2", "--trials", "2", "--seed", "3", "--generator", "tv")
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        assert json.loads(first[1])["summary"]["config"]["generators"] == ["tv"]
        _, out = run(capsys, "fuzz", "--dim", "2", "--trials", "2", "--seed", "3")
        assert len(json.loads(out)["summary"]["config"]["generators"]) == 12


class TestSharedGenerators:
    """Generators, and what is worked out from a generator set, are shared
    by every call in a process; a call's bytes must not depend on the calls
    before it."""

    def test_fuzz_and_certify_bytes_survive_another_generator_set(self, capsys, files, monkeypatch):
        monkeypatch.setenv("QFDIV_TIMESTAMP", "2026-01-01T00:00:00Z")
        a = ("--generator", "tsallis:q=0.2", "--generator", "kl", "--generator", "tv")
        b = ("--generator", "chi2", "--generator", "tsallis:q=0.8", "--generator", "kl-quantum",
             "--generator", "neg-log")

        def both(generators):
            return [run(capsys, "fuzz", "--dim", "3", "--trials", "17", "--seed", "5", *generators),
                    run(capsys, "certify", "--q", files["qb"], "--p", files["pb"], *generators)]

        first = both(a)
        assert both(b) != first
        assert both(a) == first

    def test_explicit_specs_share_one_column_entry(self, capsys):
        # Each call parses its specs into new generators; the per-set term
        # plan is keyed by what it reads, so the later calls hit the cache.
        harness._plan.cache_clear()
        argv = ("fuzz", "--dim", "2", "--trials", "2", "--generator", "kl", "--generator", "chi2")
        outs = [run(capsys, *argv) for _ in range(3)]
        assert outs[1:] == outs[:2]
        info = harness._plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]),
    st.floats().map(np.float64),
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x1f)),
)
_DOCUMENTS = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(), children, max_size=4)), max_leaves=40)
# Empty containers at every depth, nested five deep.
_DEEP = {"a": [{}, [], (), {"b": [[], {"c": [{}, ({"d": []},), "\u00e9\u0001"]}]}], "e": {"f": {"g": {}}}}


def _run_documents() -> tuple:
    """The documents certify writes for a full-catalog run on a d = 8 pair
    (70 KB), and fuzz writes for a run with violations."""
    q, p = sample_pair("ginibre", 8, 1e-3, np.random.Generator(np.random.Philox(key=8)))
    reports = [report_to_json(rep) for _, reps in certify(q, p, default_catalog()) for rep in reps]
    manifest = _manifest(["certify"], {"q": "0" * 64, "p": "f" * 64}, None, {"tol": 1e-9, "eps_invert": 1e-12})
    result = fuzz(FuzzConfig(dim=3, trials=10, seed=1, tol=1e-300))
    assert result.violations
    return ({"manifest": manifest, "status": "pass", "reports": reports, "violations": []},
            {"summary": result.summary, "violations": [v.to_json() for v in result.violations]})


_CERTIFY_DOC, _FUZZ_DOC = _run_documents()


class TestJsonWriter:
    """Every JSON document is written by _dump_json, which must give
    json.dumps(indent=2)'s bytes."""

    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS)
    @example(_DEEP)
    # Documents as certify and fuzz write them.
    @example(_CERTIFY_DOC)
    @example(_FUZZ_DOC)
    @example({"x": [math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(1 / 3), True, None, 2**70]})
    # Containers of flat dicts, which are written by one C call and split.
    @example([{"},\n  {": "},\n    {", "a": "{\u0001}"}, {"b": "\n", "c": "}, {"}, {"d": "\u0001"}])
    @example([{}, {"a": 1}, {}, {"b": 2.5, "c": None}, {}])
    @example({"x": {"a": 1, "b": "}"}, "y": {}, "w": {"e": True, "f": "\n  }"}})
    @example([{"a": 1}, (1, {"b": 2}), {"c": 3}, [], {"d": {}}])
    @example({"a": [{1: "x", None: 2, 2.5: False}, {"y": 1}], "b": {"c": {True: -0.0}}})
    # Containers of flat lists, written by one C call and split; scalars
    # beside containers, written by one C call and split.
    @example([["],\n  [", "]"], [], (1, "],\n    ["), ["\n  ]"]])
    @example({"chain": [["a", 1.0], []], "s": "],\n  [", "f": [1, 2], "d": {}, "n": None, "e": []})
    @example([1, [[2]], "x", {"a": [3]}, True, np.float64(0.5), np.float64(1.5)])
    def test_matches_json_dumps_indent_2(self, doc):
        assert _dump_json(doc) == json.dumps(doc, indent=2) + "\n"

    def test_certify_stdout_is_json_dumps_indent_2(self, tmp_path, capsys):
        # The full-catalog certify document of a d = 8 pair, as the CLI writes it.
        q, p = sample_pair("ginibre", 8, 1e-3, np.random.Generator(np.random.Philox(key=8)))
        for name, state in (("q", q), ("p", p)):
            (tmp_path / f"{name}.json").write_text(json.dumps(matrix_to_json(state.matrix)))
        code, out = run(capsys, "certify", "--q", str(tmp_path / "q.json"), "--p", str(tmp_path / "p.json"))
        doc = json.loads(out)
        assert code == 0 and len(doc["reports"]) == 6 * len(default_catalog())
        assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {"a": [1, object()]},
        {"a": {"b": [1, {1, 2}]}},
        [{"a": np.int64(3)}],
        np.float32(1.0),
    ])
    def test_unserializable_value_raises_type_error(self, doc):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump_json(doc)

    @pytest.mark.parametrize("doc", [{1: [2]}, {"a": {"b": {2: {}}}}, [{"a": {None: [1]}}], {1: {"a": 1}}])
    def test_non_str_key_of_container_of_containers_raises_type_error(self, doc):
        with pytest.raises(TypeError, match="keys must be str"):
            _dump_json(doc)


class TestProcessExit:
    """`python -m qfdiv` ends through qfdiv.__main__.run, which freezes the
    heap once main has returned: the process prints what main prints and
    exits with its code."""

    @pytest.mark.parametrize("argv, env, code, err", [
        (("certify", "--q", "qb", "--p", "pb"), (), 0, ""),
        (("certify", "--q", "qb", "--p", "pb", "--format", "csv"), (), 0, ""),
        (("fuzz", "--dim", "3", "--trials", "5", "--seed", "1"), (), 0, ""),
        (("certify", "--q", "qa", "--p", "pa", "--generator", "chi2"),
         (("QFDIV_SELFTEST_CORRUPT", "1"),), 1, ""),
        (("classical", "--q", "bad", "--p", "dp"), (), 2, "error: bad weights"),
        (("certify", "--q", "qa", "--p", "singular"), (), 3, "error: reference state is singular"),
    ], ids=["certify-json", "certify-csv", "fuzz", "exit-1", "exit-2", "exit-3"])
    def test_same_bytes_and_code_as_main(self, files, capsys, monkeypatch, tmp_path, argv, env, code, err):
        singular = tmp_path / "singular.json"
        singular.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.0]))))
        argv = [str(singular) if a == "singular" else files.get(a, a) for a in argv]
        done = _process(argv, env)
        assert done == _in_process(capsys, monkeypatch, argv, env)
        assert done[0] == code and (done[2].startswith(err) if err else done[2] == "")

    def test_out_file_is_complete(self, files, capsys, monkeypatch, tmp_path):
        out = tmp_path / "out.json"
        argv = ["certify", "--q", files["qb"], "--p", files["pb"], "--out", str(out)]
        texts = []
        for call in (lambda: _process(argv), lambda: _in_process(capsys, monkeypatch, argv)):
            assert call()[0] == 0
            texts.append(out.read_text(encoding="utf-8"))
        assert texts[0] == texts[1] and json.loads(texts[0])["status"] == "pass"

    def test_atexit_handlers_run_after_the_freeze(self, files, capsys, monkeypatch):
        argv = ["certify", "--q", files["qb"], "--p", files["pb"], "--generator", "chi2"]
        script = ("import atexit, gc, sys\n"
                  "atexit.register(lambda: print('atexit ran, frozen', gc.get_freeze_count() > 0))\n"
                  f"sys.argv = ['qfdiv', *{argv!r}]\n"
                  "from qfdiv.__main__ import run\n"
                  "run()\n")
        code, out, err = _process([], args=("-c", script))
        assert (code, err) == (0, "")
        assert out == _in_process(capsys, monkeypatch, argv)[1] + "atexit ran, frozen True\n"

    def test_main_leaves_the_heap_unfrozen(self, files, capsys):
        # Callers run main many times in one process; a freeze would keep
        # each call's garbage alive until exit.
        before = gc.get_freeze_count()
        assert run(capsys, "certify", "--q", files["qb"], "--p", files["pb"])[0] == 0
        assert gc.get_freeze_count() == before


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
