"""Design files, certificates, and canonical JSON.

One JSON schema covers the three vector settings and difference sets.
Every writer goes through `canonical_dumps` (sorted keys, tight
separators, shortest exact float repr, trailing newline) so that write ->
read -> write is byte-stable; the finite-field payloads are pure integers
and therefore exact, while complex and quaternion payloads round-trip
through repr floats losslessly.

    {"format": 1, "setting": "finite" | "complex" | "quaternion",
     "d": ..., "n": ..., "vectors": [...],
     "weights": [...],            # complex only, when non-uniform
     "field": {"p", "k", "modulus"},   # finite only
     "metadata": {...}}           # construction provenance, optional

    {"format": 1, "setting": "difference-set",
     "modulus": ..., "elements": [...],
     "lambda": ...}               # written for readers; recomputed on load

Field elements inside metadata are encoded as {"element": [coefficients]}
and revived against the file's field context on load.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple, Union

import numpy as np

from . import __version__
from .cdesigns import CEnsemble
from .ffcore import FieldCtx, FieldElement, build_field
from .ffdesigns import DifferenceSet, FFEnsemble
from .qdesigns import QEnsemble

FORMAT_VERSION = 1

Ensemble = Union[FFEnsemble, CEnsemble, QEnsemble, DifferenceSet]


class IoError(Exception):
    pass


class SchemaError(IoError):
    """The file parsed as JSON but does not describe a valid design."""


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def save_json(path: str, doc: Any) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc))


def load_json(path: str) -> Any:
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metadata encoding
# ---------------------------------------------------------------------------


def _encode_value(v: Any) -> Any:
    if isinstance(v, FieldElement):
        return {"element": [int(c) for c in v.coeffs]}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, dict):
        return {str(k): _encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    raise SchemaError(f"metadata value of type {type(v).__name__} is not serializable")


def _decode_value(v: Any, ctx: FieldCtx) -> Any:
    if isinstance(v, dict):
        if set(v.keys()) == {"element"}:
            return ctx.element(v["element"])
        return {k: _decode_value(x, ctx) for k, x in v.items()}
    if isinstance(v, list):
        return [_decode_value(x, ctx) for x in v]
    return v


# ---------------------------------------------------------------------------
# ensembles <-> documents
# ---------------------------------------------------------------------------


def design_file_from_ensemble(ens: Ensemble) -> Dict[str, Any]:
    if isinstance(ens, FFEnsemble):
        doc = {
            "format": FORMAT_VERSION,
            "setting": "finite",
            "d": ens.d,
            "n": ens.n,
            "field": ens.ctx.serialize(),
            "vectors": ens.data.tolist(),
        }
        if ens.metadata:
            doc["metadata"] = _encode_value(ens.metadata)
        return doc
    if isinstance(ens, CEnsemble):
        doc = {
            "format": FORMAT_VERSION,
            "setting": "complex",
            "d": ens.d,
            "n": ens.n,
            "vectors": np.stack([ens.vectors.real, ens.vectors.imag], axis=-1).tolist(),
        }
        uniform = np.full(ens.n, 1.0 / ens.n) if ens.n else np.zeros(0)
        if not np.array_equal(ens.weights, uniform):
            doc["weights"] = [float(w) for w in ens.weights]
        return doc
    if isinstance(ens, QEnsemble):
        return {
            "format": FORMAT_VERSION,
            "setting": "quaternion",
            "d": ens.d,
            "n": ens.n,
            "vectors": ens.vectors.tolist(),
        }
    if isinstance(ens, DifferenceSet):
        return {
            "format": FORMAT_VERSION,
            "setting": "difference-set",
            "modulus": ens.modulus,
            "elements": list(ens.elements),
            "lambda": ens.lam,
        }
    raise TypeError(f"cannot serialize {type(ens).__name__}")


def _require(doc: dict, key: str) -> Any:
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    return doc[key]


def ensemble_from_design_file(doc: dict) -> Ensemble:
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    if _require(doc, "format") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format {doc['format']!r}")
    setting = _require(doc, "setting")
    if setting == "difference-set":
        return DifferenceSet.create(_require(doc, "modulus"), _require(doc, "elements"))
    d = _require(doc, "d")
    n = _require(doc, "n")
    vectors = np.asarray(_require(doc, "vectors"))
    if setting == "finite":
        fld = _require(doc, "field")
        ctx = build_field(int(fld["p"]), int(fld["k"]))
        if "modulus" in fld and list(ctx.modulus) != [int(c) for c in fld["modulus"]]:
            raise SchemaError("field modulus does not match the deterministic one")
        if vectors.shape != (n, d, ctx.deg):
            raise SchemaError(f"finite vectors must have shape ({n}, {d}, {ctx.deg})")
        if vectors.dtype.kind not in "iu" or np.any(vectors < 0) or np.any(vectors >= ctx.p):
            raise SchemaError("finite coefficients must be reduced integers in [0, p)")
        metadata = _decode_value(doc.get("metadata", {}), ctx)
        return FFEnsemble(ctx, vectors, metadata)
    if setting == "complex":
        if vectors.shape != (n, d, 2):
            raise SchemaError(f"complex vectors must have shape ({n}, {d}, 2)")
        cv = vectors[..., 0] + 1j * vectors[..., 1]
        weights = doc.get("weights")
        try:
            return CEnsemble(cv, None if weights is None else np.asarray(weights, dtype=float))
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if setting == "quaternion":
        if vectors.shape != (n, d, 4):
            raise SchemaError(f"quaternion vectors must have shape ({n}, {d}, 4)")
        try:
            return QEnsemble(vectors)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown setting {setting!r}")


def save_design(path: str, ens: Ensemble) -> Dict[str, Any]:
    doc = design_file_from_ensemble(ens)
    save_json(path, doc)
    return doc


def load_design(path: str) -> Tuple[Ensemble, Dict[str, Any]]:
    doc = load_json(path)
    return ensemble_from_design_file(doc), doc


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def make_certificate(input_path: str, claims: list, wall_clock: float) -> Dict[str, Any]:
    """Assemble the standard certificate envelope around verified claims.

    Each claim dict carries name, method, ok, values, residuals (or the
    exactness flag for integer arithmetic), and the tolerance in force.
    """
    return {
        "format": FORMAT_VERSION,
        "kind": "certificate",
        "input_sha256": sha256_of_file(input_path),
        "claims": claims,
        "toolchain": {"package": "designforge", "version": __version__},
        "wall_clock_seconds": round(wall_clock, 3),
    }
