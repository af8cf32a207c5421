import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qleak import (
    AscentConfig,
    KrausChannel,
    Ensemble,
    compute_leakage,
    ensemble_to_config,
    parse_channel_config,
    parse_ensemble_config,
    resolve_ensemble,
)
from qleak.cli import EXIT_INPUT, EXIT_UNSUPPORTED, _exit_code
from qleak.ensemble_io import builtin_names, canonical_json
from qleak.exceptions import (
    EnsembleConfigError,
    InvalidProbabilityError,
    UnsupportedDimensionError,
)
from qleak.states import DensityOperator, apply_channel, depolarizing_global
from helpers import random_density


def pair_matrix(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


BASIC = {
    "dimension": 2,
    "symbols": [
        {"label": "zero", "state": {"kind": "basis_index", "index": 0}},
        {"label": "plus", "state": {"kind": "pure_vector",
                                    "amplitudes": [[1, 0], [1, 0]],
                                    "normalize": True}},
    ],
}


class TestEnsembleSchema:
    def test_basic_config(self):
        e = parse_ensemble_config(BASIC)
        assert e.symbols == ("zero", "plus")
        assert np.allclose(e.states[1].matrix, np.full((2, 2), 0.5))
        assert np.allclose(e.priors, [0.5, 0.5])

    def test_density_matrix_state(self):
        rng = np.random.default_rng(0)
        rho = random_density(3, rng)
        cfg = {"dimension": 3,
               "symbols": [{"label": "m", "prior": 1.0,
                            "state": {"kind": "density_matrix",
                                      "rows": pair_matrix(rho.matrix)}}]}
        e = parse_ensemble_config(cfg)
        assert np.allclose(e.states[0].matrix, rho.matrix)

    def test_explicit_priors(self):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][0]["prior"] = 0.25
        cfg["symbols"][1]["prior"] = 0.75
        e = parse_ensemble_config(cfg)
        assert np.allclose(e.priors, [0.25, 0.75])

    def test_partial_priors_name_the_symbol(self):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][0]["prior"] = 0.25
        with pytest.raises(EnsembleConfigError, match="plus"):
            parse_ensemble_config(cfg)

    def test_bad_index_names_symbol(self):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][0]["state"]["index"] = 7
        with pytest.raises(EnsembleConfigError, match="zero"):
            parse_ensemble_config(cfg)

    def test_unnormalized_vector_names_symbol(self):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][1]["state"]["normalize"] = False
        with pytest.raises(EnsembleConfigError, match="plus"):
            parse_ensemble_config(cfg)

    def test_invalid_density_names_symbol(self):
        cfg = {"dimension": 2,
               "symbols": [{"label": "bad",
                            "state": {"kind": "density_matrix",
                                      "rows": pair_matrix(np.diag([2.0, -1.0]))}}]}
        with pytest.raises(EnsembleConfigError, match="bad"):
            parse_ensemble_config(cfg)

    def test_duplicate_labels_rejected(self):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][1]["label"] = "zero"
        with pytest.raises(EnsembleConfigError, match="zero"):
            parse_ensemble_config(cfg)

    def test_unknown_kind(self):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][0]["state"] = {"kind": "bloch"}
        with pytest.raises(EnsembleConfigError, match="zero"):
            parse_ensemble_config(cfg)

    @pytest.mark.parametrize("path, message", [
        (("dimension",), "'dimension'"),
        (("symbols", 0, "state", "index"), "basis index True"),
        (("symbols", 1, "state", "amplitudes", 0, 0), "must be numbers"),
    ])
    def test_booleans_are_not_numbers(self, path, message):
        cfg = json.loads(json.dumps(BASIC))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        with pytest.raises(EnsembleConfigError, match=message):
            parse_ensemble_config(cfg)

    @pytest.mark.parametrize("path, value, message", [
        (("symbols", 1, "state", "normalize"), "no", "'normalize'"),
        (("symbols", 1, "state", "normalize"), 1, "'normalize'"),
        (("symbols", 0, "label"), ["x"], "'label'"),
        (("symbols", 0, "label"), 1, "'label'"),
        (("symbols", 1, "state", "amplitudes", 0, 0), "1", "must be numbers"),
    ])
    def test_wrong_json_type(self, path, value, message):
        cfg = json.loads(json.dumps(BASIC))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(EnsembleConfigError, match=message):
            parse_ensemble_config(cfg)

    @pytest.mark.parametrize("prior", [True, float("nan"), float("inf")])
    def test_prior_must_be_finite_number(self, prior):
        cfg = json.loads(json.dumps(BASIC))
        cfg["symbols"][0]["prior"] = prior
        cfg["symbols"][1]["prior"] = 0.5
        with pytest.raises(EnsembleConfigError, match="zero"):
            parse_ensemble_config(cfg)

    def test_ensemble_rejects_nan_prior(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(InvalidProbabilityError):
            Ensemble(["a", "b"], [rho, rho], [float("nan"), 0.5])

    def test_roundtrip_preserves_states(self):
        e = parse_ensemble_config(BASIC)
        back = parse_ensemble_config(ensemble_to_config(e))
        for a, b in zip(e.states, back.states):
            assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(e.priors, back.priors)


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["amplitude3", "index2", "index4", "index8"]

    @pytest.mark.parametrize("name", ["index2", "index4", "index8", "amplitude3"])
    def test_resolvable(self, name):
        ensemble, digest = resolve_ensemble(f"builtin:{name}")
        assert ensemble.size >= 2
        assert len(digest) == 64

    def test_unknown_builtin(self):
        with pytest.raises(EnsembleConfigError, match="unknown builtin"):
            resolve_ensemble("builtin:nope")

    def test_preset_roundtrip_identical_leakage(self, tmp_path):
        builtin, _ = resolve_ensemble("builtin:amplitude3")
        path = tmp_path / "amp.json"
        path.write_text(canonical_json(ensemble_to_config(builtin)))
        reloaded, _ = resolve_ensemble(str(path))
        cfg = AscentConfig(restarts=2, seed=0)
        assert compute_leakage(builtin, cfg).leakage_bits == \
            compute_leakage(reloaded, cfg).leakage_bits

    @pytest.mark.parametrize("name", ["index2", "index4", "index8", "amplitude3"])
    def test_digest_matches_canonical_export(self, tmp_path, name):
        builtin, digest = resolve_ensemble(f"builtin:{name}")
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(ensemble_to_config(builtin)))
        assert resolve_ensemble(str(path))[1] == digest

    def test_missing_file(self):
        with pytest.raises(EnsembleConfigError, match="cannot read"):
            resolve_ensemble("/no/such/file.json")

    def test_nesting_beyond_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(EnsembleConfigError, match="not valid JSON"):
            resolve_ensemble(str(path))


class TestChannelSchema:
    def test_global(self):
        chan = parse_channel_config({"kind": "global", "p": 0.5}, 2)
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        expected = apply_channel(depolarizing_global(0.5, 2), rho)
        assert np.allclose(apply_channel(chan, rho).matrix, expected.matrix)

    def test_local_requires_power_of_two(self):
        with pytest.raises(UnsupportedDimensionError):
            parse_channel_config({"kind": "local", "p": 0.1}, 3)

    def test_kraus(self):
        ops = [pair_matrix(np.eye(2))]
        chan = parse_channel_config({"kind": "kraus", "kraus_ops": ops}, 2)
        assert chan.dim_in == 2

    def test_kraus_wrong_dim(self):
        ops = [pair_matrix(np.eye(3))]
        with pytest.raises(EnsembleConfigError, match="dim"):
            parse_channel_config({"kind": "kraus", "kraus_ops": ops}, 2)

    def test_invalid_kraus_set(self):
        ops = [pair_matrix(0.5 * np.eye(2))]
        with pytest.raises(EnsembleConfigError, match="invalid kraus"):
            parse_channel_config({"kind": "kraus", "kraus_ops": ops}, 2)

    def test_missing_p(self):
        with pytest.raises(EnsembleConfigError, match="'p'"):
            parse_channel_config({"kind": "global"}, 2)

    def test_boolean_p(self):
        with pytest.raises(EnsembleConfigError, match="'p'"):
            parse_channel_config({"kind": "global", "p": True}, 2)

    def test_unknown_kind(self):
        with pytest.raises(EnsembleConfigError, match="unknown channel"):
            parse_channel_config({"kind": "amplitude_damping", "p": 0.1}, 2)


# Arbitrary JSON: null, booleans, small integers (they may become a
# dimension, so they stay small), any float including NaN and inf, strings,
# and nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

FUZZ_ENSEMBLE = {
    "dimension": 2,
    "symbols": [
        {"label": "zero", "prior": 0.25, "state": {"kind": "basis_index", "index": 0}},
        {"label": "plus", "prior": 0.25,
         "state": {"kind": "pure_vector", "amplitudes": [[1, 0], [1, 0]],
                   "normalize": True}},
        {"label": "mixed", "prior": 0.5,
         "state": {"kind": "density_matrix",
                   "rows": [[[0.5, 0], [0, 0.1]], [[0, -0.1], [0.5, 0]]]}},
    ],
}

FUZZ_CHANNELS = [
    {"kind": "global", "p": 0.3},
    {"kind": "local", "p": 0.3},
    {"kind": "kraus", "kraus_ops": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
]


def field_paths(node, prefix=()):
    """The path of every field, list entry and nested value of a config."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def replaced(cfg, path, value):
    out = copy.deepcopy(cfg)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


class TestSchemaFuzz:
    def test_unmodified_configs_parse(self):
        assert parse_ensemble_config(FUZZ_ENSEMBLE).size == 3
        for cfg in FUZZ_CHANNELS:
            assert parse_channel_config(cfg, 2).dim_in == 2

    def test_overflowing_entry_rejected(self):
        # 1e308 i on the diagonal must fail the Hermiticity test: an asymmetry
        # measure that overflowed to NaN would let it pass.
        cfg = replaced(FUZZ_ENSEMBLE, ("symbols", 2, "state", "rows", 0, 0, 1), 1e308)
        with pytest.raises(EnsembleConfigError, match="mixed"):
            parse_ensemble_config(cfg)

    @pytest.mark.parametrize("cfg, path, value, valid", [
        # Normalizing a finite vector with a 1e308 entry gives a valid state.
        (FUZZ_ENSEMBLE, ("symbols", 1, "state", "amplitudes", 0, 0), 1e308, True),
        (FUZZ_ENSEMBLE, ("symbols", 1, "state", "amplitudes", 0, 1), float("inf"), False),
        (FUZZ_ENSEMBLE, ("symbols", 2, "state", "rows", 0, 1, 1), float("inf"), False),
        (FUZZ_CHANNELS[2], ("kraus_ops", 0, 1, 0, 1), float("-inf"), False),
    ], ids=["amplitude_1e308", "amplitude_inf", "density_inf", "kraus_inf"])
    def test_extreme_entries_raise_no_warnings(self, cfg, path, value, valid):
        parse = parse_ensemble_config if cfg is FUZZ_ENSEMBLE else \
            (lambda c: parse_channel_config(c, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if valid:
                parse(replaced(cfg, path, value))
            else:
                with pytest.raises(EnsembleConfigError):
                    parse(replaced(cfg, path, value))

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(list(field_paths(FUZZ_ENSEMBLE))), value=JSON_VALUES)
    def test_ensemble_field_replaced_by_any_json(self, path, value):
        try:
            ensemble = parse_ensemble_config(replaced(FUZZ_ENSEMBLE, path, value))
        except EnsembleConfigError:
            return
        assert isinstance(ensemble, Ensemble)

    @settings(max_examples=200, deadline=None)
    @given(cfg_path=st.sampled_from([(cfg, path) for cfg in FUZZ_CHANNELS
                                     for path in field_paths(cfg)]),
           value=JSON_VALUES, dim=st.sampled_from([1, 2, 3, 4]))
    def test_channel_field_replaced_by_any_json(self, cfg_path, value, dim):
        cfg, path = cfg_path
        try:
            channel = parse_channel_config(replaced(cfg, path, value), dim)
        except Exception as exc:  # noqa: BLE001 - the exit-code contract decides
            assert _exit_code(exc) in (EXIT_INPUT, EXIT_UNSUPPORTED)
            return
        assert isinstance(channel, KrausChannel)
