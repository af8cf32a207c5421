import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from qleak import (Povm, certify, cli, ensemble_to_config, encode_amplitude_3bit,
                   encode_index, leakage)
from qleak.cli import main
from qleak.ensemble_io import canonical_json, pairs_to_array


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
        # One solve, whatever --restarts says: one trace and one element per symbol.
        assert result["converged"] == [True]
        assert len(result["optimal_povm_factors"]) == 2
        assert result["povm_symbols"] == ["1", "2"]
        assert result["manifest"]["command"] == "compute"
        assert result["manifest"]["config"]["povm_size"] == 2
        assert "leakage_bits=" in capsys.readouterr().out
        traces = sorted(out.glob("trace_restart_*.csv"))
        assert [path.name for path in traces] == ["trace_restart_00.csv"]

    def test_stop_reasons_and_backtracks(self, tmp_path):
        out = tmp_path / "run"
        assert main(["compute", "--ensemble", "builtin:index4", "--restarts", "3",
                     "--mu", "10", "--out", str(out)]) == 0
        result = read_result(out)
        report = leakage.compute_leakage(
            encode_index(4), leakage.AscentConfig(mu=10.0, restarts=3))
        assert result["stop_reasons"] == [t.stop_reason for t in report.traces] == ["gap"]
        # The interior-point solver halves no step, so no backtracks are written.
        assert "backtracks" not in result
        header = (out / "trace_restart_00.csv").read_text().splitlines()[1]
        assert header == "iteration,objective,leakage_bits,step_size"

    def test_certified_interval(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["compute", "--ensemble", "builtin:index4", "--restarts", "2",
                     "--out", str(out)]) == 0
        result = read_result(out)
        report = leakage.compute_leakage(encode_index(4), leakage.AscentConfig(restarts=2))
        assert result["upper_bound_bits"] == report.upper_bound_bits
        assert result["gap_bits"] == report.gap_bits < 1e-6
        assert result["leakage_bits"] <= 2.0 <= result["upper_bound_bits"] + 1e-12
        assert f"{result['upper_bound_bits']:.9f}]" in capsys.readouterr().out

    def test_result_rechecks_with_certify(self, tmp_path):
        # The written POVM factors and dual point reproduce both ends of the
        # interval, and the factors are the solver's, bit for bit.
        out = tmp_path / "run"
        assert main(["compute", "--ensemble", "builtin:amplitude3", "--restarts", "2",
                     "--out", str(out)]) == 0
        result = read_result(out)
        povm = Povm.from_factors(
            pairs_to_array(result["optimal_povm_factors"], 3, "optimal_povm_factors"))
        report = leakage.compute_leakage(encode_amplitude_3bit(),
                                         leakage.AscentConfig(restarts=2))
        assert povm.factors.shape == report.optimal_povm.factors.shape == (8, 8, 8)
        assert result["povm_symbols"] == list(encode_amplitude_3bit().symbols)
        assert np.array_equal(povm.factors, report.optimal_povm.factors)
        dual = pairs_to_array(result["dual"], 2, "dual")
        states = encode_amplitude_3bit().state_stack()
        lower, upper, _ = certify(states, povm.factors, dual)
        assert math.log2(lower) == pytest.approx(result["leakage_bits"], abs=1e-12)
        assert math.log2(upper) == pytest.approx(result["upper_bound_bits"], abs=1e-12)

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

    def test_calls_in_one_process_share_no_state(self, tmp_path):
        # The parser is built once per process; a run's flags, or a failed
        # parse, must not leak into the next run's defaults.
        args = ["compute", "--ensemble", "builtin:index2", "--max-iters", "50"]
        assert main(args + ["--restarts", "3", "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(args + ["--restarts", "three", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert main(args + ["--out", str(tmp_path / "c")]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert read_result(tmp_path / "a")["manifest"]["config"]["restarts"] == 3
        assert not (tmp_path / "b").exists()
        config = read_result(tmp_path / "c")["manifest"]["config"]
        assert config["restarts"] == 10
        # One solve writes one trace, whatever the restart count.
        assert len(list((tmp_path / "c").glob("trace_restart_*.csv"))) == 1

    def test_result_keys_are_pinned(self, tmp_path):
        # One solve: no restart-indexed keys such as best_restart.
        out = tmp_path / "run"
        assert main(["compute", "--ensemble", "builtin:index2", "--out", str(out)]) == 0
        assert sorted(read_result(out)) == [
            "ceiling_bits", "converged", "dual", "gap_bits", "leakage_bits", "manifest",
            "objective", "optimal_povm_factors", "povm_symbols", "stop_reasons",
            "upper_bound_bits"]

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 8.00 TiB for an array with shape "
                     "(1099511627776,) and data type float64"), "Unable to allocate 8.00 TiB"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_4_without_output(self, tmp_path, monkeypatch, capsys,
                                                  error, message):
        # An input too large to hold, such as a 2^40-dimensional ensemble file,
        # fails while it is resolved; no test allocates that much for real.
        def too_large(spec):
            raise error

        monkeypatch.setattr(cli, "resolve_ensemble", too_large)
        assert main(["compute", "--ensemble", "huge.json", "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

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
        body_a = (out_a / "trace_restart_00.csv").read_text().splitlines()[1:]
        body_b = (out_b / "trace_restart_00.csv").read_text().splitlines()[1:]
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

    @pytest.mark.parametrize("flag, message", [
        ("--seed=-1", "seed must be an integer >= 0, got -1"),
        ("--max-iters=0", "max_iters must be an integer >= 1, got 0"),
    ], ids=["seed", "max_iters"])
    def test_bad_integer_flag_exits_2_without_output(self, tmp_path, capsys, flag, message):
        out = tmp_path / "o"
        assert main(["compute", "--ensemble", "builtin:index2", flag,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
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

    @pytest.fixture
    def solves(self, monkeypatch):
        """Counts compute_leakage calls from the CLI and from noise_curve."""
        calls = []
        original = leakage.compute_leakage

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_leakage", counted)
        monkeypatch.setattr(leakage, "compute_leakage", counted)
        return calls

    @pytest.mark.parametrize("channel", ["global", "local"])
    def test_index4_solves_once(self, tmp_path, solves, channel):
        out = tmp_path / "sweep"
        assert main(["noise-sweep", "--ensemble", "builtin:index4", "--channel", channel,
                     "--p-steps", "11", "--restarts", "2", "--out", str(out)]) == 0
        assert len(solves) == 1
        lines = (out / "noise_sweep.csv").read_text().splitlines()
        config = json.loads(lines[0][len("# manifest: "):])["config"]
        assert config["solved_p"] == []
        assert config["noiseless_upper_bound_bits"] >= 2.0 - 1e-12
        assert lines[1] == "p,direct_leakage_bits,formula_bits,ratio"
        for line in lines[2:]:
            p, direct, _, _ = (float(v) for v in line.split(","))
            exact = (math.log2(p + 4.0 * (1.0 - p)) if channel == "global"
                     else 2.0 + 2.0 * math.log2(1.0 - p / 2.0))
            assert direct == pytest.approx(exact, abs=1e-6)

    def test_amplitude3_local_solves_its_wide_points(self, tmp_path, solves):
        out = tmp_path / "sweep"
        assert main(["noise-sweep", "--ensemble", "builtin:amplitude3", "--channel",
                     "local", "--p-steps", "3", "--restarts", "2", "--out", str(out)]) == 0
        lines = (out / "noise_sweep.csv").read_text().splitlines()
        config = json.loads(lines[0][len("# manifest: "):])["config"]
        # p = 0 reports the noiseless solve. The carried interval at p = 0.5
        # is wider than TRANSFER_GAP_BITS, so p = 0.5 is solved; at p = 1
        # every state is I/8 and the interval closes.
        assert config["solved_p"] == [0.5]
        assert len(solves) == 2
        assert [line.split(",")[0] for line in lines[2:]] == ["0.0", "0.5", "1.0"]

    def test_invalid_grid(self, tmp_path):
        assert main(["noise-sweep", "--ensemble", "builtin:index2",
                     "--channel", "global", "--p-start", "0.8",
                     "--p-end", "0.2", "--out", str(tmp_path / "o")]) == 2
        assert main(["noise-sweep", "--ensemble", "builtin:index2",
                     "--channel", "global", "--p-steps", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_dimension_one_global(self, tmp_path):
        out = tmp_path / "o"
        assert main(["noise-sweep", "--ensemble", dimension_one_file(tmp_path),
                     "--channel", "global", "--p-steps", "3", "--restarts", "2",
                     "--out", str(out)]) == 0
        rows = (out / "noise_sweep.csv").read_text().splitlines()[2:]
        # 0 bits up to the roundoff of factoring the POVM (one ulp of the
        # objective, 3.2e-16 bits).
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert values == pytest.approx(np.array([
            [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]), abs=1e-15)

    def test_dimension_one_local_exits_4_before_solving(self, tmp_path, monkeypatch,
                                                        capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the dimension")

        monkeypatch.setattr(cli, "compute_leakage", no_solve)
        assert main(["noise-sweep", "--ensemble", dimension_one_file(tmp_path),
                     "--channel", "local", "--out", str(tmp_path / "o")]) == 4
        assert "k >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_local_requires_power_of_two(self, tmp_path):
        path = tmp_path / "d3.json"
        path.write_text(canonical_json(ensemble_to_config(encode_index(3))))
        assert main(["noise-sweep", "--ensemble", str(path),
                     "--channel", "local", "--restarts", "2",
                     "--out", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()


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
        # sum E^dag E - I = 0.9e-9 I, within linalg.ATOL = 1e-9.
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

    def test_rectangular_channel_file(self, tmp_path):
        # A 2 -> 3 isometry: the mapped ensemble lives in a larger space than
        # the baseline's POVM, and data_processing proves its bound anyway.
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps({"kind": "kraus", "kraus_ops": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]]}))
        out = tmp_path / "report"
        assert main(["verify", "--ensemble", "builtin:index2",
                     "--channel-file", str(chan), "--out", str(out)]) == 0
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        (check,) = [c for c in checks if c["name"] == "data_processing"]
        assert check["passed"]

    def test_channel_at_tolerance_on_state_at_tolerance(self, tmp_path, capsys):
        # Trace 1 + 0.9e-9 and completeness defect 0.9e-9 are each accepted;
        # their composition is mapped to unit trace.
        amp = math.sqrt(1 + 0.9e-9)
        ens, chan = tmp_path / "e.json", tmp_path / "c.json"
        ens.write_text(json.dumps({"dimension": 2, "symbols": [
            {"label": "a", "state": {"kind": "density_matrix",
                                     "rows": [[[1 + 0.9e-9, 0], [0, 0]], [[0, 0], [0, 0]]]}},
            {"label": "b", "state": {"kind": "basis_index", "index": 1}}]}))
        chan.write_text(json.dumps({"kind": "kraus", "kraus_ops": [
            [[[amp, 0], [0, 0]], [[0, 0], [amp, 0]]]]}))
        assert main(["verify", "--ensemble", str(ens), "--channel-file", str(chan),
                     "--restarts", "3", "--max-iters", "3000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(" PASS " in line for line in lines) == 8

    @pytest.mark.parametrize("name, check, replacement", [
        # I(X;Y) of 2 bits exceeds the 1-bit objective of any index2 POVM.
        ("_mutual_information", "povm_dominance",
         lambda priors, probs: np.full(len(probs), 2.0)),
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
         "symbol 'big': invalid state (density operator has an entry that is NaN, Inf "
         "or above 2^256 in magnitude)"),
        (["--ensemble", "builtin:index2", "--channel-file", "{}"],
         {"kind": "kraus", "kraus_ops": [[[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]]},
         "invalid kraus channel: Kraus operator 0 has an entry that is NaN, Inf "
         "or above 2^256 in magnitude"),
        (["--ensemble", "{}"],
         {"dimension": 2, "symbols": [{"label": "big", "state": {
             "kind": "pure_vector", "amplitudes": [[2.0 ** 200, 0], [1, 0]],
             "normalize": False}}]},
         "symbol 'big': invalid state (state vector squared norm"),
    ], ids=["density_matrix", "kraus", "pure_vector"])
    def test_overflowing_entries_exit_2_without_warnings(self, tmp_path, capsys,
                                                         inputs, spec, named):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "report"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--restarts", "1", "--out", str(out)]
                        + [arg.format(path) for arg in inputs]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Warning" not in err
        assert not out.exists()

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


class TestOutputDirectory:
    @pytest.mark.parametrize("command, output", [
        (["compute"], "result.json"),
        (["noise-sweep", "--channel", "global"], "noise_sweep.csv"),
        (["verify"], "verify_report.json"),
    ], ids=["compute", "noise-sweep", "verify"])
    @pytest.mark.parametrize("blocked", ["file", "under_file", "output_file"])
    def test_uncreatable_out_exits_2_before_solving(self, tmp_path, monkeypatch,
                                                    capsys, command, output, blocked):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the output files")

        for name in ("compute_leakage", "noise_curve", "verify_properties"):
            monkeypatch.setattr(cli, name, no_solve)
        taken = tmp_path / "taken"
        if blocked == "output_file":  # the directory exists, one file in it cannot be opened
            out = taken
            (out / output).mkdir(parents=True)
            expected = f"cannot write output file {str(out / output)!r}"
        else:
            taken.write_text("kept")
            out = taken / "sub" if blocked == "under_file" else taken
            expected = f"cannot create output directory {str(out)!r}"
        assert main(command + ["--ensemble", "builtin:index2", "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        if blocked == "output_file":
            assert (out / output).is_dir()
        else:
            assert taken.read_text() == "kept"
