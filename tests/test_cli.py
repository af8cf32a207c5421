import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from qleak import cli, ensemble_to_config, encode_index, leakage
from qleak.cli import main
from qleak.ensemble_io import canonical_json


def dimension_one_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"dimension": 1, "symbols": [
        {"label": "a", "state": {"kind": "basis_index", "index": 0}},
        {"label": "b", "state": {"kind": "pure_vector", "amplitudes": [[0, 1]]}}]}))
    return str(path)


def read_result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


def stripped(result):
    result = json.loads(json.dumps(result))
    result["manifest"].pop("timings")
    return result


class TestCompute:
    def test_index2_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["compute", "--ensemble", "builtin:index2",
                     "--restarts", "4", "--out", str(out)])
        assert code == 0
        result = read_result(out)
        assert result["leakage_bits"] == pytest.approx(1.0, abs=1e-3)
        assert result["ceiling_bits"] == pytest.approx(1.0)
        assert len(result["restart_leakages"]) == 4
        assert len(result["converged"]) == 4
        assert len(result["optimal_povm"]) == 4  # dim^2 elements
        assert result["manifest"]["command"] == "compute"
        assert result["manifest"]["config"]["povm_size"] == 4
        assert "leakage_bits=" in capsys.readouterr().out
        traces = sorted(out.glob("trace_restart_*.csv"))
        assert len(traces) == 4

    def test_manifest_records_environment(self, tmp_path):
        out = tmp_path / "run"
        assert main(["compute", "--ensemble", "builtin:index2",
                     "--restarts", "1", "--out", str(out)]) == 0
        env = read_result(out)["manifest"]["environment"]
        assert env["numpy"] == np.__version__
        assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
        assert set(env["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["cpu_count"] == os.cpu_count()

    def test_povm_size_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--ensemble", "builtin:index2", "--povm-size", "4",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2

    def test_trace_csv_monotone_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["compute", "--ensemble", "builtin:index2",
                     "--restarts", "2", "--out", str(out)]) == 0
        for path in out.glob("trace_restart_*.csv"):
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# manifest: ")
            assert lines[1] == "iteration,objective,leakage_bits,step_size"
            objectives = [float(line.split(",")[1]) for line in lines[2:]]
            assert min(np.diff(objectives)) >= -1e-12

    def test_deterministic_output(self, tmp_path):
        args = ["compute", "--ensemble", "builtin:index2",
                "--restarts", "3", "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert stripped(read_result(out_a)) == stripped(read_result(out_b))
        for name in ("trace_restart_00.csv", "trace_restart_01.csv"):
            body_a = (out_a / name).read_text().splitlines()[1:]
            body_b = (out_b / name).read_text().splitlines()[1:]
            assert body_a == body_b

    def test_malformed_json_exits_2_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        out = tmp_path / "never"
        code = main(["compute", "--ensemble", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_validation_error_names_symbol(self, tmp_path, capsys):
        cfg = {"dimension": 2,
               "symbols": [{"label": "oops",
                            "state": {"kind": "basis_index", "index": 5}}]}
        path = tmp_path / "e.json"
        path.write_text(json.dumps(cfg))
        code = main(["compute", "--ensemble", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "oops" in capsys.readouterr().err

    def test_unknown_builtin(self, tmp_path):
        assert main(["compute", "--ensemble", "builtin:missing",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1e-9"])
    def test_eps_must_be_finite_and_positive(self, tmp_path, capsys, eps):
        out = tmp_path / "o"
        assert main(["compute", "--ensemble", "builtin:index2",
                     f"--eps={eps}", "--out", str(out)]) == 2
        assert "termination threshold" in capsys.readouterr().err
        assert not out.exists()


class TestNoiseSweep:
    def test_index8_formula_column(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["noise-sweep", "--ensemble", "builtin:index8",
                     "--channel", "global", "--p-steps", "3",
                     "--restarts", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "noise_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "p,direct_leakage_bits,formula_bits,ratio"
        rows = [line.split(",") for line in lines[2:]]
        ps = [float(r[0]) for r in rows]
        formula = [float(r[2]) for r in rows]
        ratio = [float(r[3]) for r in rows]
        assert ps == [0.0, 0.5, 1.0]
        assert formula[0] == pytest.approx(3.0, abs=1e-3)
        assert formula[1] == pytest.approx(math.log2(4.5), abs=1e-3)
        assert formula[2] == pytest.approx(0.0, abs=1e-9)
        assert ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_direct_tracks_formula(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["noise-sweep", "--ensemble", "builtin:index2",
                     "--channel", "global", "--p-steps", "5",
                     "--restarts", "3", "--out", str(out)]) == 0
        lines = (out / "noise_sweep.csv").read_text().splitlines()[2:]
        for line in lines:
            _, direct, formula, _ = (float(v) for v in line.split(","))
            assert direct == pytest.approx(formula, abs=2e-3)

    def test_invalid_grid(self, tmp_path):
        assert main(["noise-sweep", "--ensemble", "builtin:index2",
                     "--channel", "global", "--p-start", "0.8",
                     "--p-end", "0.2", "--out", str(tmp_path / "o")]) == 2
        assert main(["noise-sweep", "--ensemble", "builtin:index2",
                     "--channel", "global", "--p-steps", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_dimension_one_global(self, tmp_path):
        out = tmp_path / "o"
        assert main(["noise-sweep", "--ensemble", dimension_one_file(tmp_path),
                     "--channel", "global", "--p-steps", "3", "--restarts", "2",
                     "--out", str(out)]) == 0
        rows = (out / "noise_sweep.csv").read_text().splitlines()[2:]
        assert [[float(v) for v in row.split(",")] for row in rows] == [
            [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]

    def test_dimension_one_local_exits_4_before_solving(self, tmp_path, monkeypatch,
                                                        capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the dimension")

        monkeypatch.setattr(cli, "compute_leakage", no_solve)
        assert main(["noise-sweep", "--ensemble", dimension_one_file(tmp_path),
                     "--channel", "local", "--out", str(tmp_path / "o")]) == 4
        assert "k >= 1" in capsys.readouterr().err

    def test_local_requires_power_of_two(self, tmp_path):
        path = tmp_path / "d3.json"
        path.write_text(canonical_json(ensemble_to_config(encode_index(3))))
        assert main(["noise-sweep", "--ensemble", str(path),
                     "--channel", "local", "--restarts", "2",
                     "--out", str(tmp_path / "o")]) == 4


class TestVerify:
    def test_builtin_passes(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["verify", "--ensemble", "builtin:index2",
                     "--restarts", "3", "--max-iters", "3000",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "all checks passed" in printed
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "nonnegativity", "ceiling", "independence_iff_zero",
            "povm_dominance", "data_processing", "global_noise_exactness",
            "local_noise_bound"}
        assert report["manifest"]["command"] == "verify"

    def test_channel_file(self, tmp_path):
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps({"kind": "global", "p": 0.3}))
        assert main(["verify", "--ensemble", "builtin:index2",
                     "--channel-file", str(chan),
                     "--restarts", "3", "--max-iters", "3000"]) == 0

    @pytest.mark.parametrize("spec", [
        {"kind": "global", "p": 0.3},
        # sum E^dag E - I = 0.9e-9 I, within CHANNEL_ATOL = 1e-9.
        {"kind": "kraus", "kraus_ops": [[[[math.sqrt(1 + 0.9e-9), 0], [0, 0]],
                                         [[0, 0], [math.sqrt(1 + 0.9e-9), 0]]]]},
    ])
    def test_channel_file_is_parsed_and_hashed_once(self, tmp_path, spec):
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps(spec))
        out = tmp_path / "report"
        assert main(["verify", "--ensemble", "builtin:index2",
                     "--channel-file", str(chan), "--restarts", "3",
                     "--max-iters", "3000", "--out", str(out)]) == 0
        manifest = json.loads((out / "verify_report.json").read_text())["manifest"]
        assert manifest["config"]["channel_sha256"] == \
            hashlib.sha256(chan.read_bytes()).hexdigest()

    @pytest.mark.parametrize("name, check, replacement", [
        # I(X;Y) of 2 bits exceeds the 1-bit objective of any index2 POVM.
        ("mutual_information", "povm_dominance", lambda e, f: 2.0),
        # 5 bits exceed index2's 1-bit ceiling; only the check compares them.
        ("_bits", "ceiling", lambda objective: 5.0),
    ], ids=["povm_dominance", "ceiling"])
    def test_failed_check_exits_5(self, monkeypatch, capsys, name, check, replacement):
        monkeypatch.setattr(leakage, name, replacement)
        code = main(["verify", "--ensemble", "builtin:index2",
                     "--restarts", "2", "--max-iters", "1000"])
        assert code == 5
        printed = capsys.readouterr().out
        assert any(line.startswith(check) and "FAIL" in line
                   for line in printed.splitlines())
        assert "FAILURES detected" in printed

    @pytest.mark.parametrize("inputs, spec, named", [
        (["--ensemble", "{}"],
         {"dimension": 2, "symbols": [{"label": "big", "state": {
             "kind": "density_matrix", "rows": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}}]},
         "entries overflow"),
        (["--ensemble", "builtin:index2", "--channel-file", "{}"],
         {"kind": "kraus", "kraus_ops": [[[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]]},
         "sum of E_j^dag E_j overflows"),
    ], ids=["density_matrix", "kraus"])
    def test_overflowing_entries_exit_2_without_warnings(self, tmp_path, capsys,
                                                         inputs, spec, named):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--restarts", "1"]
                        + [arg.format(path) for arg in inputs]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Warning" not in err

    def test_dimension_one_passes_with_local_skip(self, tmp_path, capsys):
        assert main(["verify", "--ensemble", dimension_one_file(tmp_path),
                     "--restarts", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "all checks passed"
        (local,) = [line for line in lines if line.startswith("local_noise_bound")]
        assert "SKIP" in local

    def test_invalid_input_exits_2(self, tmp_path):
        assert main(["verify", "--ensemble", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("dimension, index, prior", [
        ("true", "0", "0.5"),
        ("2", "true", "0.5"),
        ("2", "0", "true"),
        ("2", "0", "NaN"),
        ("2", "0", "0.6"),     # priors sum to 1.1
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, dimension, index, prior):
        path = tmp_path / "e.json"
        path.write_text(
            f'{{"dimension": {dimension}, "symbols": ['
            f'{{"label": "a", "prior": {prior}, '
            f'"state": {{"kind": "basis_index", "index": {index}}}}}, '
            f'{{"label": "b", "prior": 0.5, '
            f'"state": {{"kind": "basis_index", "index": 1}}}}]}}')
        assert main(["verify", "--ensemble", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "np." not in err
