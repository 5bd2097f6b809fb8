"""Design files, certificates, and canonical JSON.

One JSON schema covers the three vector settings and difference sets.
Every file is the text of `canonical_dumps` (sorted keys, tight
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
and revived against the file's field context on load; the coefficients
must be K ints (not bools) in [0, p), as the vectors' are.

`save_design` writes a finite ensemble's vectors without building them as
Python ints: the head is `canonical_dumps` of the document without
"vectors", left open, and the block follows in windows of whole vectors of
about 64 KiB.  Each window is a zero-filled (vectors, d*K, width) byte
matrix holding every number's separator (`_separators`, which the reader
checks against too) and its right-aligned ASCII digits; dropping the zero
bytes leaves the text.  The bytes are those of
`canonical_dumps(design_file_from_ensemble(ens))`, and the d = 73 file is
written in 0.2-0.3 s instead of 2.1 s.

`load_design` reads a canonical finite file without parsing its vectors as
JSON.  Sorted keys put "vectors" last, so such a file ends in
`,"vectors":[[[...]]]}\n`: only the ASCII head before that key goes
through `json.loads`, and the integer block is parsed by numpy digit
arithmetic into one preallocated uint16 (n, d, K) array, the dtype of
every ensemble's data, which the ensemble adopts without a copy.  Each
window's non-digit bytes must be exactly the `[[[c,c],[c,c]],[[...`
skeleton of the shape the head declares, with no sign, fraction,
exponent, whitespace, leading zero, number over 5 digits or number of
2^16 or more (no residue mod p < 2^16 is one, and uint16 would wrap it).
Any file that fails a check is read by `load_json` and
`ensemble_from_design_file` instead, so the reader changes no result and
no error message, only the time: the d = 73 file (19.5 MB) loads in
0.4-0.6 s instead of 1.9 s.

The file is mapped with `mmap` and parsed in windows of 64 KiB (about 18
vectors at d = 73), because the allocation pattern sets the peak RSS of a
whole `designforge verify` run on that file (365.5-365.8 MB with the json
path; 2-vCPU Xeon VM, numpy 2.4.6).
Parsing the block in one window took it to 617 MB.  Reading the file into
one bytes object gave 342.8 MB: freeing a 19.5 MB buffer raises glibc's
dynamic mmap threshold, and the verifier's later arrays then land on the
brk heap.  The mapped file with 16-256 KiB windows gave 336.3-336.7 MB.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from collections.abc import Mapping
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from . import __version__, kernels
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
    if isinstance(v, Mapping):
        return {str(k): _encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    raise SchemaError(f"metadata value of type {type(v).__name__} is not serializable")


def _decode_value(v: Any, ctx: FieldCtx) -> Any:
    if isinstance(v, dict):
        if set(v.keys()) == {"element"}:
            coeffs = v["element"]
            if (
                type(coeffs) is not list
                or len(coeffs) != ctx.deg
                or any(type(c) is not int or not 0 <= c < ctx.p for c in coeffs)
            ):
                raise SchemaError(f"a field element needs {ctx.deg} int coefficients in [0, p)")
            return ctx.element(coeffs)
        return {k: _decode_value(x, ctx) for k, x in v.items()}
    if isinstance(v, list):
        return [_decode_value(x, ctx) for x in v]
    return v


# ---------------------------------------------------------------------------
# ensembles <-> documents
# ---------------------------------------------------------------------------


def _finite_head(ens: FFEnsemble) -> Dict[str, Any]:
    """The document of a finite ensemble without its "vectors"."""
    doc = {
        "format": FORMAT_VERSION,
        "setting": "finite",
        "d": ens.d,
        "n": ens.n,
        "field": ens.ctx.serialize(),
    }
    if ens.metadata:
        doc["metadata"] = _encode_value(ens.metadata)
    return doc


def design_file_from_ensemble(ens: Ensemble) -> Dict[str, Any]:
    if isinstance(ens, FFEnsemble):
        return {**_finite_head(ens), "vectors": ens.data.tolist()}
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
        modulus, elements = _require(doc, "modulus"), _require(doc, "elements")
        if type(elements) is not list or any(type(v) is not int for v in [modulus, *elements]):
            raise SchemaError("a difference set needs an int modulus and a list of int elements")
        if modulus < 1:
            raise SchemaError(f"difference-set modulus must be positive, got {modulus}")
        return DifferenceSet.create(modulus, elements)
    d = _require(doc, "d")
    n = _require(doc, "n")
    vectors = np.asarray(_require(doc, "vectors"))
    if setting == "finite":
        return _finite_ensemble(doc, vectors)
    if setting == "complex":
        if vectors.shape != (n, d, 2):
            raise SchemaError(f"complex vectors must have shape ({n}, {d}, 2)")
        cv = np.empty((n, d), dtype=np.complex128)  # part by part: x + 1j*y drops a -0.0
        cv.real, cv.imag = vectors[..., 0], vectors[..., 1]
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


def _finite_ensemble(doc: dict, vectors: np.ndarray, parsed: bool = False) -> FFEnsemble:
    """The finite ensemble of doc with the given vectors.

    A caller's array is copied.  With parsed=True, vectors is the reader's own
    fresh array of non-negative digits: it is adopted, and its minimum is not read.
    The range checks are reductions, so they allocate nothing the size of vectors.
    """
    d, n = doc["d"], doc["n"]
    fld = _require(doc, "field")
    if type(fld) is not dict or not all(type(fld.get(key)) is int for key in ("p", "k")):
        raise SchemaError("field must be an object with int p and k")
    ctx = build_field(fld["p"], fld["k"])
    if "modulus" in fld and fld["modulus"] != ctx.modulus.tolist():
        raise SchemaError("field modulus does not match the deterministic one")
    shape = (n, d, ctx.deg)
    # `[]` and `[[], ...]` parse as float arrays cut at their first empty axis
    counts = all(type(v) is int and v >= 0 for v in (n, d))
    if vectors.size == 0 and counts and vectors.shape == shape[: vectors.ndim]:
        vectors = np.zeros(shape, dtype=np.int64)
    if vectors.shape != shape:
        raise SchemaError(f"finite vectors must have shape ({n}, {d}, {ctx.deg})")
    if vectors.dtype.kind not in "iu" or (
        vectors.size > 0 and (vectors.max() >= ctx.p or (not parsed and vectors.min() < 0))
    ):
        raise SchemaError("finite coefficients must be reduced integers in [0, p)")
    metadata = _decode_value(doc.get("metadata", {}), ctx)
    if type(metadata) is not dict:
        raise SchemaError("metadata must be an object")
    if parsed:
        return FFEnsemble._adopt(ctx, vectors, metadata)
    return FFEnsemble(ctx, vectors, metadata)


def save_design(path: str, ens: Ensemble) -> None:
    """Write canonical_dumps(design_file_from_ensemble(ens)) to path; see the module
    docstring for how a finite ensemble's vectors are written."""
    if not isinstance(ens, FFEnsemble) or ens.data.size == 0:  # no numbers to format
        save_json(path, design_file_from_ensemble(ens))
        return
    with open(path, "wb") as fh:
        # sorted keys put "vectors" last, so the head is the document without it, unclosed
        fh.write(canonical_dumps(_finite_head(ens))[:-2].encode("ascii") + b',"vectors":[')
        _write_vectors(fh, ens.data, ens.ctx.p)
        fh.write(b"]]" + _TAIL)


def load_design(path: str) -> Ensemble:
    """The ensemble a design file describes; see the module docstring for the fast path."""
    ens = _read_canonical_finite(path)
    return ens if ens is not None else ensemble_from_design_file(load_json(path))


# ---------------------------------------------------------------------------
# the canonical finite-file writer and reader
# ---------------------------------------------------------------------------

_VECTORS_KEY = b',"vectors":['
_TAIL = b"]}\n"
_BOUNDARY = b"]],[["  # between two vectors, and nowhere else in a well-formed block
_CHUNK_BYTES = 1 << 16
_MAX_DIGITS = 5  # a residue mod p < 2^16 has at most 5 digits
_MAX_RESIDUE = (1 << 16) - 1  # the largest number a uint16 holds


def _separators(d: int, k: int) -> list:
    """The non-digit bytes before each of the d*K numbers of a vector in a block.

    The first is _BOUNDARY, which closes the vector before; the block's first
    vector drops its `]],`, and its last vector is followed by `]]`.
    """
    return ([_BOUNDARY] + [b","] * (k - 1)) + ([b"],["] + [b","] * (k - 1)) * (d - 1)


def _write_vectors(fh, data: np.ndarray, p: int) -> None:
    """Write the non-empty (n, d, K) block as canonical JSON, less its outer
    `[` and final `]]]`, in windows of whole vectors of about _CHUNK_BYTES."""
    n, d, k = data.shape
    width = len(_BOUNDARY) + len(str(p - 1))
    # one vector as a (d*K, width) byte matrix: each separator at the left of its
    # number's row, zero bytes after it, and the digits right-aligned over them
    row = np.frombuffer(b"".join(s.ljust(width, b"\0") for s in _separators(d, k)), np.uint8)
    flat = data.reshape(n, d * k)
    step = max(1, _CHUNK_BYTES // len(row))
    for i in range(0, n, step):
        v = flat[i : i + step]
        buf = np.tile(row, (len(v), 1)).reshape(len(v), d * k, width)
        buf[..., -1] = v % 10 + 48
        for col in range(width - 2, len(_BOUNDARY) - 1, -1):
            v = v // 10
            buf[..., col] = np.where(v > 0, v % 10 + 48, 0)
        fh.write(buf[buf != 0][0 if i else 3 :])  # the first vector has no `]],`


def _read_canonical_finite(path: str) -> Optional[FFEnsemble]:
    """The ensemble of a canonical finite file, or None for any other file.

    Whenever this returns an ensemble, ensemble_from_design_file(load_json(path))
    gives an equal one; a file it cannot vouch for is left to that path.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size <= len(_VECTORS_KEY) + len(_TAIL):
            return None
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            # Sorted keys put "vectors" last, but any occurrence of the key will do: the
            # head before it must parse as an object, and the rest must be a vectors block
            key = mm.find(_VECTORS_KEY)
            if key < 0 or mm[-len(_TAIL):] != _TAIL:
                return None
            try:
                doc = json.loads(mm[:key].decode("ascii") + "}")
            except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
                return None
            shape = _declared_shape(doc)
            if shape is None:
                return None
            vectors = _parse_vectors(mm, key + len(_VECTORS_KEY), len(mm) - len(_TAIL), shape)
    if vectors is None:
        return None
    return _finite_ensemble(doc, vectors, parsed=True)


def _declared_shape(doc: Any) -> Optional[Tuple[int, int, int]]:
    """(n, d, K) of a finite format-1 head with positive int n, d and field k, else None."""
    if not isinstance(doc, dict) or doc.get("setting") != "finite":
        return None
    if doc.get("format") != FORMAT_VERSION:
        return None
    fld = doc.get("field")
    shape = (doc.get("n"), doc.get("d"), fld.get("k") if isinstance(fld, dict) else None)
    return shape if all(type(v) is int and v > 0 for v in shape) else None


def _parse_vectors(mm: mmap.mmap, start: int, end: int, shape) -> Optional[np.ndarray]:
    """The (n, d, K) array written in mm[start:end] as `V,V,...,V`, or None.

    Each window ends at a vector boundary, so its text is whole vectors.
    """
    n, d, k = shape
    per_vector = d * k
    if end - start < n * (2 * per_vector + 2 * d + 2) - 1:  # too short even with 1-digit numbers
        return None  # and nothing is allocated for a shape the file cannot hold
    # the gap before each number and the non-digit bytes of `most` vectors, as the
    # writer puts them; each window is checked against a prefix of these
    seps = _separators(d, k)
    one = b"".join(seps)[3:] + b"]]"  # the block's first vector
    most = min(n, max(1, (_CHUNK_BYTES + 1) // (len(one) + per_vector + 1)))
    gaps = np.tile(np.array([len(s) for s in seps], dtype=np.uint8), most)
    gaps[0] = 2
    skeleton = np.frombuffer(b",".join([one] * most), dtype=np.uint8)
    out = np.empty((n, per_vector), dtype=np.uint16)
    done, pos = 0, start
    while pos < end:
        stop = end
        if end - pos > _CHUNK_BYTES:
            cut = mm.rfind(_BOUNDARY, pos, pos + _CHUNK_BYTES)
            if cut < 0:
                cut = mm.find(_BOUNDARY, pos, end)
            if cut >= 0:
                stop = cut + 2
        nums = _parse_window(mm[pos:stop], per_vector, gaps, skeleton)
        if nums is None or done + len(nums) > n:
            return None
        out[done : done + len(nums)] = nums
        done += len(nums)
        pos = stop + 1  # past the ',' that the boundary search matched
    return out.reshape(n, d, k) if done == n else None


def _parse_window(buf: bytes, per_vector: int, gaps, skeleton) -> Optional[np.ndarray]:
    """The (c, d*K) numbers of c whole vectors written in buf, or None.

    The window is far below 2^31 bytes, so positions and lengths are int32.
    """
    u = np.frombuffer(buf, dtype=np.uint8)
    digit = u - np.uint8(48)  # other bytes wrap to 10 and above
    isdig = digit < 10
    if isdig[0] or isdig[-1]:
        return None
    edges = np.flatnonzero(isdig[1:] != isdig[:-1]).astype(np.int32)
    edges += 1
    count = len(edges) // 2
    if count == 0 or count % per_vector:
        return None
    # alternating lengths: non-digit gap, number, gap, ..., number, gap
    runs = np.diff(edges, prepend=np.int32(0), append=np.int32(len(u)))
    lengths = runs[1::2]
    if (
        runs[-1] != 2
        or not np.array_equal(runs[0:-1:2], gaps[:count])
        or not np.array_equal(u[~isdig], skeleton[: len(u) - int(lengths.sum())])
    ):
        return None
    starts = edges[0::2]
    nums = digit[starts].astype(np.int32)
    longest = int(lengths.max())
    if longest > _MAX_DIGITS or (longest > 1 and np.any((nums == 0) & (lengths > 1))):
        return None
    for j in range(1, longest):
        more = np.flatnonzero(lengths > j)
        nums[more] = nums[more] * 10 + digit[starts[more] + j]
    if longest == _MAX_DIGITS and nums.max() > _MAX_RESIDUE:
        return None  # the json path rejects it; narrowing would wrap it
    return nums.reshape(-1, per_vector)


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
        "toolchain": {
            "package": "designforge",
            "version": __version__,
            "numpy": np.__version__,
            "kernels": kernels.backend(),
        },
        "wall_clock_seconds": round(wall_clock, 3),
    }
