"""JSON serialization of ensembles and channels, plus built-in presets.

Ensemble schema::

    { "dimension": int,
      "symbols": [ { "label": str,
                     "prior": number,          # optional, all-or-none
                     "state": one of
                       {"kind": "basis_index", "index": int}
                       {"kind": "pure_vector", "amplitudes": [[re, im], ...],
                        "normalize": bool}
                       {"kind": "density_matrix", "rows": [[[re, im], ...], ...]}
                   }, ... ] }

Channel schema::

    { "kind": "global" | "local" | "kraus",
      "p": number,                       # global / local
      "kraus_ops": [rows of [re, im]]    # kraus: list of matrices
    }

Validation failures raise EnsembleConfigError and always name the offending
symbol label when one is in scope.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .exceptions import EnsembleConfigError, QLeakError
from .states import (
    NOISE_KINDS,
    DensityOperator,
    Ensemble,
    KrausChannel,
    depolarizing,
    encode_amplitude_3bit,
    encode_index,
)

BUILTIN_PREFIX = "builtin:"


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python, not in the schema."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_numbers(entries, context: str):
    """Every entry of nested lists must be a JSON number: numpy would
    otherwise read true as 1 and the string "1" as 1.0."""
    for entry in entries if isinstance(entries, list) else ():
        if isinstance(entry, list):
            _require_numbers(entry, context)
        elif not _is_number(entry):
            raise EnsembleConfigError(f"{context}: entries must be numbers, got {entry!r}")


def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Complex matrix -> nested [re, im] pairs (JSON-safe)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def pairs_to_matrix(rows, context: str) -> np.ndarray:
    """Nested [re, im] pairs -> complex matrix, with shape validation; the
    pairs are reinterpreted, not multiplied, so Inf entries raise no warning."""
    _require_numbers(rows, context)
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise EnsembleConfigError(f"{context}: entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise EnsembleConfigError(f"{context}: expected a matrix of [re, im] pairs")
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def pairs_to_vector(entries, context: str) -> np.ndarray:
    _require_numbers(entries, context)
    try:
        arr = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise EnsembleConfigError(f"{context}: entries must be [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise EnsembleConfigError(f"{context}: expected a list of [re, im] pairs")
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def _parse_state(spec, dim: int, label: str) -> DensityOperator:
    context = f"symbol {label!r}"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise EnsembleConfigError(f"{context}: state must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "basis_index":
            index = spec.get("index")
            if not _is_int(index) or not 0 <= index < dim:
                raise EnsembleConfigError(
                    f"{context}: basis index {index!r} out of range for dimension {dim}"
                )
            return DensityOperator.basis_state(dim, index)
        if kind == "pure_vector":
            vec = pairs_to_vector(spec.get("amplitudes"), context)
            if vec.shape[0] != dim:
                raise EnsembleConfigError(
                    f"{context}: amplitude vector has length {vec.shape[0]}, expected {dim}"
                )
            normalize = spec.get("normalize", False)
            if not isinstance(normalize, bool):
                raise EnsembleConfigError(
                    f"{context}: 'normalize' must be true or false, got {normalize!r}"
                )
            return DensityOperator.from_pure(vec, normalize=normalize)
        if kind == "density_matrix":
            mat = pairs_to_matrix(spec.get("rows"), context)
            if mat.shape != (dim, dim):
                raise EnsembleConfigError(
                    f"{context}: matrix has shape {mat.shape}, expected ({dim}, {dim})"
                )
            return DensityOperator(mat)
    except EnsembleConfigError:
        raise
    except QLeakError as exc:
        raise EnsembleConfigError(f"{context}: invalid state ({exc})") from exc
    raise EnsembleConfigError(f"{context}: unknown state kind {kind!r}")


def parse_ensemble_config(cfg) -> Ensemble:
    """Validate a parsed JSON object and build the ensemble it describes."""
    if not isinstance(cfg, dict):
        raise EnsembleConfigError("top-level config must be an object")
    dim = cfg.get("dimension")
    if not _is_int(dim) or dim < 1:
        raise EnsembleConfigError(f"'dimension' must be a positive integer, got {dim!r}")
    symbols_cfg = cfg.get("symbols")
    if not isinstance(symbols_cfg, list) or not symbols_cfg:
        raise EnsembleConfigError("'symbols' must be a non-empty list")

    labels, states, priors = [], [], []
    for i, entry in enumerate(symbols_cfg):
        if not isinstance(entry, dict) or "label" not in entry:
            raise EnsembleConfigError(f"symbol #{i}: must be an object with a 'label'")
        label = entry["label"]
        if not isinstance(label, str):
            raise EnsembleConfigError(f"symbol #{i}: 'label' must be a string, got {label!r}")
        if label in labels:
            raise EnsembleConfigError(f"symbol {label!r}: duplicate label")
        labels.append(label)
        if "prior" in entry:
            prior = entry["prior"]
            if not _is_number(prior) or not math.isfinite(prior) or prior <= 0:
                raise EnsembleConfigError(
                    f"symbol {label!r}: prior must be a positive finite number, "
                    f"got {prior!r}"
                )
            priors.append(float(prior))
        else:
            priors.append(None)
        states.append(_parse_state(entry.get("state"), dim, label))

    given = [p for p in priors if p is not None]
    if given and len(given) != len(priors):
        missing = labels[priors.index(None)]
        raise EnsembleConfigError(
            f"symbol {missing!r}: prior missing while other symbols set one "
            "(priors are all-or-none)"
        )
    try:
        return Ensemble(labels, states, given if given else None)
    except QLeakError as exc:
        raise EnsembleConfigError(f"invalid ensemble: {exc}") from exc


def ensemble_to_config(ensemble: Ensemble) -> dict:
    """Serialize an ensemble to its JSON form (density_matrix states)."""
    return {
        "dimension": ensemble.dim,
        "symbols": [
            {
                "label": label,
                "prior": float(prior),
                "state": {"kind": "density_matrix",
                          "rows": matrix_to_pairs(state.matrix)},
            }
            for label, prior, state in zip(ensemble.symbols, ensemble.priors,
                                           ensemble.states)
        ],
    }


BUILTIN_FACTORIES = {
    "index2": lambda: encode_index(2),
    "index4": lambda: encode_index(4),
    "index8": lambda: encode_index(8),
    "amplitude3": encode_amplitude_3bit,
}


def builtin_names() -> list[str]:
    return sorted(BUILTIN_FACTORIES)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_json(path: str, what: str) -> tuple[object, str]:
    """Parse the JSON file of an ensemble or channel (``what``); returns the
    parsed value and the sha256 of the bytes it was parsed from."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise EnsembleConfigError(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except (json.JSONDecodeError, RecursionError) as exc:
        raise EnsembleConfigError(f"{path}: not valid JSON ({exc})") from exc


def resolve_ensemble(source: str) -> tuple[Ensemble, str]:
    """Load an ensemble from a file path or a ``builtin:NAME`` preset.

    Returns the ensemble together with the sha256 of its content: the raw
    file bytes, or for a preset the canonical JSON of its exported config,
    which is the digest of the file that export would write.
    """
    if source.startswith(BUILTIN_PREFIX):
        name = source[len(BUILTIN_PREFIX):]
        if name not in BUILTIN_FACTORIES:
            raise EnsembleConfigError(
                f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
            )
        ensemble = BUILTIN_FACTORIES[name]()
        config = canonical_json(ensemble_to_config(ensemble))
        return ensemble, hashlib.sha256(config.encode()).hexdigest()
    cfg, digest = _read_json(source, "ensemble")
    return parse_ensemble_config(cfg), digest


def parse_channel_config(cfg, dim: int) -> KrausChannel:
    """Build a channel from its JSON form, sized for a given input dim."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise EnsembleConfigError("channel config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind in NOISE_KINDS:
        return depolarizing(kind, _channel_p(cfg), dim)
    if kind == "kraus":
        ops_cfg = cfg.get("kraus_ops")
        if not isinstance(ops_cfg, list) or not ops_cfg:
            raise EnsembleConfigError("kraus channel needs a non-empty 'kraus_ops' list")
        ops = [pairs_to_matrix(op, f"kraus_ops[{j}]") for j, op in enumerate(ops_cfg)]
        try:
            channel = KrausChannel(ops)
        except QLeakError as exc:
            raise EnsembleConfigError(f"invalid kraus channel: {exc}") from exc
        if channel.dim_in != dim:
            raise EnsembleConfigError(
                f"kraus channel acts on dim {channel.dim_in}, ensemble has dim {dim}"
            )
        return channel
    raise EnsembleConfigError(f"unknown channel kind {kind!r}")


def _channel_p(cfg) -> float:
    p = cfg.get("p")
    if not _is_number(p):
        raise EnsembleConfigError(f"channel 'p' must be a number, got {p!r}")
    return float(p)


def load_channel(path: str, dim: int) -> tuple[KrausChannel, str]:
    """Load a channel file; returns the channel and the sha256 of the bytes
    it was parsed from."""
    cfg, digest = _read_json(path, "channel")
    return parse_channel_config(cfg, dim), digest
