"""Serialization round trips, schema rejection, and the command line surface."""

import importlib.util
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import cdesigns, cli, ffdesigns, io, kernels
from designforge.cdesigns import CEnsemble, mub_ensemble, sic_catalog
from designforge.ffcore import build_field
from designforge.ffdesigns import FFEnsemble, gabor_ensemble, singer_difference_set
from designforge.qdesigns import QEnsemble, check_tight_q_design, simplex_design_d2

from conftest import fixture_path, forged_gabor_d13


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_dumps_is_sorted_compact_and_newline_terminated():
    s = io.canonical_dumps({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}\n'
    # key order in the input dict must not matter
    assert io.canonical_dumps({"a": [1.5, 2], "b": 1}) == s


def test_canonical_dumps_rejects_nan():
    with pytest.raises(ValueError):
        io.canonical_dumps({"x": float("nan")})


def test_float_repr_round_trips(rng=np.random.default_rng(11)):
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(json.loads(io.canonical_dumps(x))) == x


# ---------------------------------------------------------------------------
# design files: save -> load -> save byte stability
# ---------------------------------------------------------------------------


def _written_as_canonical_dumps(path, ens):
    """Save ens to path and check the bytes against the canonical_dumps oracle."""
    assert io.save_design(path, ens) is None
    with open(path, "rb") as fh:
        written = fh.read()
    assert written == io.canonical_dumps(io.design_file_from_ensemble(ens)).encode()
    return written


def _stable(tmp_path, ens, name):
    p1 = str(tmp_path / f"{name}.json")
    b1 = _written_as_canonical_dumps(p1, ens)
    doc1 = io.load_json(p1)
    loaded = io.load_design(p1)
    p2 = str(tmp_path / f"{name}.2.json")
    io.save_design(p2, loaded)
    with open(p2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    assert doc1["format"] == 1
    return loaded, doc1


def test_finite_file_round_trip(tmp_path, f9):
    loaded, doc = _stable(tmp_path, f9, "f9")
    assert doc["setting"] == "finite"
    assert doc["field"]["p"] == 3 and doc["field"]["k"] == 2
    assert np.array_equal(loaded.data, f9.data)
    assert loaded.ctx is f9.ctx  # deterministic construction is cached


def test_finite_metadata_field_elements_round_trip(tmp_path):
    ens = gabor_ensemble(2, 6, 3)
    loaded, doc = _stable(tmp_path, ens, "gabor")
    meta = loaded.metadata
    assert meta["kind"] == "gabor"
    assert meta["D"] == (0, 1, 3, 9)
    assert meta["alpha"] == ens.metadata["alpha"]
    assert meta["omega"] == ens.metadata["omega"]
    # elements are tagged objects, not bare lists
    enc = doc["metadata"]["omega"]
    assert isinstance(enc, dict) and list(enc) == ["element"]


def test_complex_uniform_file_has_no_weights_key(tmp_path):
    loaded, doc = _stable(tmp_path, sic_catalog(2), "sic2")
    assert doc["setting"] == "complex"
    assert "weights" not in doc
    assert np.allclose(loaded.weights, 0.25)


def test_complex_weighted_file_keeps_weights(tmp_path):
    base = sic_catalog(2)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    ens = CEnsemble(base.vectors, w)
    loaded, doc = _stable(tmp_path, ens, "sic2w")
    assert doc["weights"] == [0.4, 0.3, 0.2, 0.1]
    assert np.allclose(loaded.weights, w)


def test_complex_negative_zero_parts_round_trip(tmp_path):
    ens = CEnsemble(np.array([[complex(1.0, -0.0), complex(-0.0, 0.0)],
                              [complex(-0.0, -0.0), complex(0.0, -1.0)]]))
    loaded, doc = _stable(tmp_path, ens, "signed-zeros")
    assert doc["vectors"][0] == [[1.0, -0.0], [-0.0, 0.0]]
    assert np.array_equal(np.signbit(loaded.vectors.real), [[False, True], [True, False]])
    assert np.array_equal(np.signbit(loaded.vectors.imag), [[True, False], [True, True]])


def test_quaternion_file_round_trip(tmp_path):
    ens = simplex_design_d2()
    loaded, doc = _stable(tmp_path, ens, "simplex")
    assert doc["setting"] == "quaternion"
    assert np.allclose(loaded.vectors, ens.vectors)


def test_difference_set_file_round_trip(tmp_path):
    ds = singer_difference_set(3)
    loaded, doc = _stable(tmp_path, ds, "singer3")
    assert doc["setting"] == "difference-set"
    assert doc["modulus"] == 13
    assert doc["elements"] == [0, 1, 3, 9]
    assert doc["lambda"] == 1
    assert loaded.elements == ds.elements


# ---------------------------------------------------------------------------
# schema rejection
# ---------------------------------------------------------------------------


def _f9_doc(f9):
    return io.design_file_from_ensemble(f9)


def test_schema_rejects_missing_format(f9):
    doc = _f9_doc(f9)
    del doc["format"]
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


def test_schema_rejects_future_format(f9):
    doc = _f9_doc(f9)
    doc["format"] = 2
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


def test_schema_rejects_unknown_setting(f9):
    doc = _f9_doc(f9)
    doc["setting"] = "octonion"
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


def test_schema_rejects_modulus_mismatch(f9):
    doc = _f9_doc(f9)
    doc["field"]["modulus"] = [2, 1, 1]
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


def test_schema_rejects_unreduced_coefficients(f9):
    doc = _f9_doc(f9)
    doc["vectors"][0][0][0] = 3  # == p
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


def test_schema_rejects_non_unit_complex_vectors():
    doc = {
        "format": 1,
        "setting": "complex",
        "d": 2,
        "n": 1,
        "vectors": [[[0.5, 0.0], [0.0, 0.0]]],
    }
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


def test_schema_rejects_wrong_quaternion_shape():
    doc = {
        "format": 1,
        "setting": "quaternion",
        "d": 2,
        "n": 1,
        "vectors": [[[1.0, 0.0], [0.0, 0.0]]],
    }
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)


# ---------------------------------------------------------------------------
# the canonical finite-file reader against the json path
# ---------------------------------------------------------------------------


def _outcome(read, path):
    """What reading path gives: the ensemble's contents, or the error raised."""
    try:
        ens = read(path)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    if isinstance(ens, FFEnsemble):
        return FFEnsemble, ens.ctx, ens.data.dtype, ens.data.shape, ens.data.tobytes(), ens.metadata
    if isinstance(ens, CEnsemble):
        return CEnsemble, ens.vectors.tobytes(), ens.weights.tobytes()
    raise AssertionError(f"unexpected {type(ens).__name__}")


def _json_path(path):
    return io.ensemble_from_design_file(io.load_json(path))


def _same_as_json_path(path):
    got = _outcome(io.load_design, path)
    assert got == _outcome(_json_path, path)
    return got


# multi-digit coefficients over F_{101^2}, n = 2, d = 2
SMALL = np.array([[[7, 0], [100, 1]], [[10, 99], [0, 5]]])
SMALL_BLOCK = "[[[7,0],[100,1]],[[10,99],[0,5]]]"


def _small_text():
    text = io.canonical_dumps(io.design_file_from_ensemble(FFEnsemble(build_field(101, 2), SMALL)))
    assert text.endswith(f',"vectors":{SMALL_BLOCK}}}\n')
    return text


@pytest.mark.parametrize("chunk", [1 << 16, 4096, 100])
def test_load_design_reads_canonical_files_as_the_json_path_does(tmp_path, chunk):
    gabor = str(tmp_path / "gabor.json")
    io.save_design(gabor, gabor_ensemble(2, 6, 3))
    small = tmp_path / "small.json"
    small.write_text(_small_text())
    names = sorted(os.listdir(fixture_path("")))
    paths = [fixture_path(name) for name in names if name.endswith(".json")]
    with mock.patch.object(io, "_CHUNK_BYTES", chunk):  # 100 bytes is less than one d = 13 vector
        for path in paths + [gabor, str(small)]:
            assert _same_as_json_path(path)[0] in (FFEnsemble, CEnsemble), path
        for path in (gabor, str(small), fixture_path("f9_d2_design.json")):
            assert isinstance(io._read_canonical_finite(path), FFEnsemble), path


def test_a_loaded_canonical_file_holds_one_copy_of_its_vectors(tmp_path):
    # the parsed array is adopted, with no reduced copy and no full-size comparison
    # array; eight copies of the d = 13 Gabor vectors (1.7 MB) and 4 KiB windows
    # keep one window's parse temporaries small beside it
    gabor = gabor_ensemble(2, 6, 3)
    path = str(tmp_path / "g8.json")
    io.save_design(path, FFEnsemble(gabor.ctx, np.tile(gabor.data, (8, 1, 1))))
    with mock.patch.object(io, "_CHUNK_BYTES", 1 << 12):
        io.load_design(path)  # warms the field cache
        tracemalloc.start()
        try:
            ens = io.load_design(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.25 * ens.data.nbytes, peak
    assert not ens.data.flags.writeable


@pytest.mark.parametrize("number", [65539, 10**17])
def test_a_coefficient_of_2_16_or_more_is_rejected_not_wrapped(tmp_path, number):
    # 65539 would wrap to 3 in uint16, a residue of every field; 10^17 exceeds 5 digits
    ctx = build_field(65521, 2)
    ens = FFEnsemble(ctx, np.ones((2, 2, 2), dtype=np.int64))
    path = str(tmp_path / "wide.json")
    io.save_design(path, ens)
    text = Path(path).read_text()
    assert text.count('"vectors":[[[1,') == 1
    Path(path).write_text(text.replace('"vectors":[[[1,', f'"vectors":[[[{number},'))
    assert io._read_canonical_finite(path) is None
    with pytest.raises(io.SchemaError):
        io.load_design(path)


def test_finite_data_is_uint16_on_every_path(tmp_path, f9):
    gabor = gabor_ensemble(2, 6, 3)
    path = str(tmp_path / "g.json")
    io.save_design(path, gabor)
    doc = io.load_json(path)
    for ens in (
        gabor,
        f9,
        io.load_design(path),
        io.ensemble_from_design_file(doc),
        FFEnsemble(gabor.ctx, np.asarray(doc["vectors"], dtype=np.int64)),
        FFEnsemble(gabor.ctx, doc["vectors"]),
    ):
        assert ens.data.dtype == np.uint16 and ens.data.flags.c_contiguous
        assert np.array_equal(ens.data, gabor.data) or ens is f9


def test_largest_prime_field_round_trips_and_verifies_as_int64(tmp_path):
    # residues 0 and p - 1 at the top of uint16; the claims on the stored data
    # match those on the same vectors held as int64
    p = 65521
    ctx = build_field(p, 2)
    rng = np.random.default_rng(65521)
    vecs = rng.choice(np.array([0, 1, p - 2, p - 1]), size=(9, 3, 2))
    vecs[0, 0] = (p - 1, 0)
    path, again = str(tmp_path / "p.json"), str(tmp_path / "again.json")
    io.save_design(path, FFEnsemble(ctx, vecs))
    loaded = io.load_design(path)
    assert loaded.data.dtype == np.uint16 and np.array_equal(loaded.data, vecs)
    io.save_design(again, loaded)
    assert Path(again).read_bytes() == Path(path).read_bytes()
    assert Path(path).read_bytes() == io.canonical_dumps(io.design_file_from_ensemble(loaded)).encode()
    wide = FFEnsemble.__new__(FFEnsemble)
    wide._own(ctx, vecs.astype(np.int64), None)
    assert wide.data.dtype == np.int64
    assert ffdesigns.check_tight_frame(loaded) == ffdesigns.check_tight_frame(wide)
    assert ffdesigns.check_etf(loaded) == ffdesigns.check_etf(wide)
    assert ffdesigns.certify_tight_2design(loaded) == ffdesigns.certify_tight_2design(wide)
    frob = ctx.conj_matrix()
    for x in (loaded.data, wide.data):
        assert np.array_equal(
            kernels.frame_operator(x, frob, ctx.red, p),
            kernels.frame_operator(vecs, frob, ctx.red, p),
        )


def test_a_callers_vectors_array_is_copied():
    gabor = gabor_ensemble(2, 6, 3)
    doc = io.design_file_from_ensemble(gabor)
    vectors = np.array(doc["vectors"])
    ens = io.ensemble_from_design_file({**doc, "vectors": vectors})
    vectors[5] = 0  # would break the rebuild and the ETF if ens held this array
    assert np.array_equal(ens.data, gabor.data)
    assert ffdesigns.verify_etf(ens) == ffdesigns.verify_etf(gabor)
    assert ffdesigns.verify_etf(ens).method == "structural-gabor"


def _first_vector(text):
    return lambda t: t.replace("[[[7,0],", text)


def _vectors_first(text):
    doc = json.loads(text)
    return json.dumps({"vectors": doc.pop("vectors"), **doc}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "edit,expect",
    [
        pytest.param(_first_vector("[[[07,0],"), io.SchemaError, id="07"),
        pytest.param(_first_vector("[[[-1,0],"), io.SchemaError, id="-1"),
        pytest.param(_first_vector("[[[1.0,0],"), io.SchemaError, id="1.0"),
        pytest.param(_first_vector("[[[1e2,0],"), io.SchemaError, id="1e2"),
        pytest.param(_first_vector("[[[7,0,"), io.SchemaError, id="missing bracket"),
        pytest.param(_first_vector("[[[[7,0],"), io.SchemaError, id="extra bracket"),
        pytest.param(_first_vector("[[7[,0],"), io.SchemaError, id="digit moved past a bracket"),
        pytest.param(_first_vector("[[[101,0],"), io.SchemaError, id="value p"),
        pytest.param(_first_vector("[[[1000000000000000007,0],"), io.SchemaError, id="19 digits"),
        pytest.param(_first_vector("[[[18446744073709551623,0],"), io.SchemaError, id="2^64 + 7"),
        pytest.param(lambda t: t.replace('"n":2', '"n":1'), io.SchemaError, id="n = 1"),
        pytest.param(lambda t: t.replace('"d":2', '"d":3'), io.SchemaError, id="d = 3"),
        pytest.param(lambda t: t.replace('"n":2', '"n":3'), io.SchemaError, id="n = 3"),
        pytest.param(
            lambda t: t.replace('"n":2', '"n":3').replace(
                SMALL_BLOCK, SMALL_BLOCK[:-1] + "," + SMALL_BLOCK[1:]
            ),
            io.SchemaError,
            id="n = 3 with four vectors",
        ),
        pytest.param(
            lambda t: t.replace('"n":2', '"n":1000000000000000'), io.SchemaError, id="n = 10^15"
        ),
        pytest.param(  # long enough for three vectors of 1-digit numbers
            lambda t: t.replace('"n":2', '"n":3').replace(
                SMALL_BLOCK, "[[[100,100],[100,100]],[[100,100],[100,100]]]"
            ),
            io.SchemaError,
            id="n = 3 with two vectors",
        ),
        pytest.param(
            lambda t: t.replace(SMALL_BLOCK, "[[[7,0,1],[100,1,1]],[[10,99,1],[0,5,1]]]"),
            io.SchemaError,
            id="K = 3",
        ),
        pytest.param(  # digit runs of the gap lengths around non-digit runs that spell the skeleton
            lambda t: t.replace(SMALL_BLOCK, "[12[[3,456],7[89012,3]]456,[[,],[7,]]89]"),
            io.SchemaError,
            id="digits at both ends",
        ),
        pytest.param(
            lambda t: t.replace(',"vectors"', ' "vectors"'), io.SchemaError, id="no comma"
        ),
        pytest.param(
            lambda t: t.replace('"format":1', '"format":2'), io.SchemaError, id="format 2"
        ),
        pytest.param(_first_vector("[[[7, 0],"), FFEnsemble, id="space after a comma"),
        pytest.param(lambda t: t[:-1] + "\r\n", FFEnsemble, id="crlf"),
        pytest.param(lambda t: t[:-1], FFEnsemble, id="no newline"),
        pytest.param(_vectors_first, FFEnsemble, id="vectors not last"),
    ],
)
def test_noncanonical_files_give_the_json_path_result(tmp_path, edit, expect):
    path = tmp_path / "f.json"
    path.write_text(edit(_small_text()))
    for chunk in (1 << 16, 36, 16):  # one window, two vectors in each, one in each
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            got = _same_as_json_path(str(path))
            assert got[0] is expect, got
            if expect is FFEnsemble:
                assert io._read_canonical_finite(str(path)) is None
                assert np.array_equal(io.load_design(str(path)).data, SMALL)


# (kind, position modulo the block length, byte)
BLOCK_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 99),
    st.sampled_from(list(b'0123456789[],-.e "\n')),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(BLOCK_EDITS, min_size=1, max_size=3), chunk=st.sampled_from([1 << 16, 24, 8]))
def test_mutated_vectors_block_gives_the_json_path_result(edits, chunk):
    text = _small_text().encode()
    start = text.rindex(b'"vectors":') + len(b'"vectors":')
    body = bytearray(text[start:-2])  # the block, without the closing "}\n"
    for kind, at, byte in edits:
        at %= len(body) + (kind == "insert")
        if kind == "replace" and body:
            body[at] = byte
        elif kind == "insert":
            body.insert(at, byte)
        elif body:
            del body[at]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(io, "_CHUNK_BYTES", chunk):
        path = os.path.join(tmp, "m.json")
        with open(path, "wb") as fh:
            fh.write(text[:start] + bytes(body) + b"}\n")
        _same_as_json_path(path)


# ---------------------------------------------------------------------------
# the canonical finite-file writer against canonical_dumps
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 7, 11, 101, 65521]),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 5), st.integers(1, 4)),
    gabor=st.booleans(),
    chunk=st.sampled_from([1 << 16, 200, 1]),
)
def test_written_finite_files_are_canonical_dumps(data, p, shape, gabor, chunk):
    ctx = build_field(p, shape[2])
    entry = st.one_of(st.sampled_from([0, p - 1]), st.integers(0, p - 1))
    size = int(np.prod(shape))
    values = np.array(data.draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
    metadata = None
    if gabor:  # the Gabor keys, field elements included, in the head before "vectors"
        metadata = {"kind": "gabor", "p": p, "k": shape[2], "r": 2, "D": [0, 1, 3],
                    "alpha": ctx.element(values[0, 0]), "omega": ctx.element(values[-1, -1])}
    ens = FFEnsemble(ctx, values, metadata)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(io, "_CHUNK_BYTES", chunk):
        path = os.path.join(tmp, "w.json")
        _written_as_canonical_dumps(path, ens)
        loaded = io.load_design(path)
    assert loaded.ctx is ctx and np.array_equal(loaded.data, ens.data)
    assert loaded.metadata == ens.metadata


@pytest.mark.parametrize(
    "shape,block", [((0, 2, 2), "[]"), ((3, 0, 2), "[[],[],[]]"), ((0, 0, 2), "[]")]
)
def test_written_finite_files_with_a_zero_dimension(tmp_path, shape, block):
    ens = FFEnsemble(build_field(3, 2), np.zeros(shape, dtype=np.int64))
    written = _written_as_canonical_dumps(str(tmp_path / "e.json"), ens)
    assert written.endswith(f',"vectors":{block}}}\n'.encode())


@pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2), (0, 0, 2)])
def test_finite_files_with_a_zero_dimension_load(tmp_path, shape):
    ctx = build_field(3, 2)
    path = str(tmp_path / "e.json")
    io.save_design(path, FFEnsemble(ctx, np.zeros(shape, dtype=np.int64)))
    for loaded in (io.load_design(path), io.ensemble_from_design_file(io.load_json(path))):
        assert loaded.ctx is ctx
        assert loaded.data.shape == shape and loaded.data.dtype == np.uint16


@pytest.mark.parametrize("shape", [(3, 0, 2), (0, 0, 2)])
def test_cli_finite_claims_fail_in_dimension_zero(tmp_path, capsys, shape):
    f = str(tmp_path / "e.json")
    io.save_design(f, FFEnsemble(build_field(3, 2), np.zeros(shape, dtype=np.int64)))
    code, out = _run(capsys, ["verify", f, "--claims", "tight,etf,design"])
    assert code == 1
    assert out.splitlines()[:3] == ["tight: FAILED", "etf: FAILED", "design: FAILED"]
    assert not any(c["ok"] for c in io.load_json(f + ".cert.json")["claims"])


@pytest.mark.parametrize(
    "n,d,block", [(3, 0, "[]"), (0, 2, "[[]]"), (-1, 0, "[]"), (0, -1, "[]"), (0.0, 2, "[]")]
)
def test_empty_finite_block_must_match_the_declared_counts(n, d, block):
    doc = {"format": 1, "setting": "finite", "field": {"p": 3, "k": 2}, "n": n, "d": d}
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file({**doc, "vectors": json.loads(block)})


def test_written_gabor_file_in_windows_smaller_than_a_vector(tmp_path):
    ens = gabor_ensemble(2, 6, 3)
    whole = _written_as_canonical_dumps(str(tmp_path / "whole.json"), ens)
    with mock.patch.object(io, "_CHUNK_BYTES", 100):  # one d = 13 vector is 936 bytes wide
        assert _written_as_canonical_dumps(str(tmp_path / "small.json"), ens) == whole


def test_written_gabor_file_has_its_recorded_sha256(tmp_path):
    # the bytes depend on the modulus, the primitive element, omega and the window
    f = str(tmp_path / "g13.json")
    io.save_design(f, gabor_ensemble(2, 6, 3))
    assert io.sha256_of_file(f) == "adb2a717a448650c952df7a0f2f22129c88722633f21149662a05d81906b489e"


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_make_certificate_envelope(tmp_path):
    p = str(tmp_path / "in.json")
    io.save_json(p, {"x": 1})
    claims = [{"name": "etf", "ok": True}]
    cert = io.make_certificate(p, claims, wall_clock=0.123456)
    assert sorted(cert) == [
        "claims",
        "format",
        "input_sha256",
        "kind",
        "toolchain",
        "wall_clock_seconds",
    ]
    assert cert["format"] == 1
    assert cert["kind"] == "certificate"
    assert cert["input_sha256"] == io.sha256_of_file(p)
    assert len(cert["input_sha256"]) == 64
    assert cert["claims"] == claims
    assert cert["toolchain"]["package"] == "designforge"
    assert cert["toolchain"]["numpy"] == np.__version__
    assert cert["toolchain"]["kernels"] == kernels.backend() == "numpy"
    assert cert["wall_clock_seconds"] == 0.123


# ---------------------------------------------------------------------------
# fixtures directory
# ---------------------------------------------------------------------------


def test_fixture_files_load(f9):
    assert (f9.n, f9.d) == (4, 2)
    for name, d in [("sic_d2_fiducial.json", 2), ("sic_d3_fiducial.json", 3)]:
        ens = io.load_design(fixture_path(name))
        assert isinstance(ens, CEnsemble)
        assert (ens.n, ens.d) == (1, d)
        assert io.load_json(fixture_path(name))["format"] == 1


def test_fiducial_fixtures_generate_full_designs():
    from designforge.cdesigns import check_weighted_2design, sic_from_fiducial

    for name, n in [("sic_d2_fiducial.json", 4), ("sic_d3_fiducial.json", 9)]:
        ens = io.load_design(fixture_path(name))
        orbit = sic_from_fiducial(ens.vectors[0])
        assert orbit.n == n
        assert check_weighted_2design(orbit) < 1e-12


def test_make_fixtures_regenerates_identical_bytes(tmp_path, monkeypatch):
    # tools/make_fixtures.py promises byte-stable output; it also runs both
    # dense 2-design routes on the F_9 quadruple
    script = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "OUT", str(tmp_path))
    make_fixtures.main()
    names = ["NOTES.md", "f9_d2_design.json", "sic_d2_fiducial.json", "sic_d3_fiducial.json"]
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(fixture_path(name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


# ---------------------------------------------------------------------------
# CLI: construct + verify, per setting
# ---------------------------------------------------------------------------


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_gabor_construct_then_verify(tmp_path, capsys):
    f = str(tmp_path / "g.json")
    code, out = _run(capsys, ["construct", "gabor", "--p", "2", "--k", "6", "--r", "3", "--out", f])
    assert code == 0
    assert f"wrote {f}: finite ensemble, n = 169, d = 13" in out

    cert_path = str(tmp_path / "g.cert.json")
    code, out = _run(capsys, ["verify", f, "--claims", "etf,tight", "--cert", cert_path])
    assert code == 0
    assert "etf: ok" in out
    assert "tight: ok" in out
    assert f"certificate written to {cert_path}" in out
    cert = io.load_json(cert_path)
    assert cert["kind"] == "certificate"
    assert cert["input_sha256"] == io.sha256_of_file(f)
    by_name = {c["name"]: c for c in cert["claims"]}
    assert by_name["etf"]["method"] == "structural-gabor"
    assert by_name["etf"]["values"] == {"a": 0, "b": 1, "c": 0}
    assert by_name["etf"]["exact"] is True


def test_cli_verify_failing_claim_still_writes_certificate(tmp_path, capsys):
    # even characteristic: the design criterion must be reported as failed
    f = str(tmp_path / "g.json")
    _run(capsys, ["construct", "gabor", "--p", "2", "--k", "6", "--r", "3", "--out", f])
    code, out = _run(capsys, ["verify", f, "--claims", "design"])
    assert code == 1
    assert "design: FAILED" in out
    default_cert = f + ".cert.json"
    assert os.path.exists(default_cert)
    cert = io.load_json(default_cert)
    assert cert["claims"][0]["ok"] is False
    assert any("even characteristic" in s for s in cert["claims"][0]["failures"])


def test_cli_rejects_forged_gabor_file(tmp_path, capsys):
    f = str(tmp_path / "forged.json")
    io.save_design(f, forged_gabor_d13())
    cert_path = str(tmp_path / "forged.cert.json")
    code, out = _run(capsys, ["verify", f, "--claims", "etf,design", "--cert", cert_path])
    assert code == 1
    assert "etf: FAILED" in out and "design: FAILED" in out
    by_name = {c["name"]: c for c in io.load_json(cert_path)["claims"]}
    assert by_name["etf"]["method"] == "full-gram"
    assert by_name["etf"]["counterexample"] == ["angle", 1, 13]
    assert by_name["design"]["method"] == "parameter-conditions"


def _swapped_omega_file(tmp_path, capsys):
    """A d = 13 Gabor file whose omega is replaced by omega^2, also of order 13."""
    f = str(tmp_path / "g.json")
    _run(capsys, ["construct", "gabor", "--p", "2", "--k", "6", "--r", "3", "--out", f])
    doc = io.load_json(f)
    omega = io.ensemble_from_design_file(doc).metadata["omega"]
    doc["metadata"]["omega"] = {"element": (omega**2).coeffs.tolist()}
    io.save_json(f, doc)
    return f


def test_cli_swapped_omega_is_not_verified_structurally(tmp_path, capsys):
    f = _swapped_omega_file(tmp_path, capsys)
    cert_path = str(tmp_path / "g.cert.json")
    code, _ = _run(capsys, ["verify", f, "--claims", "etf", "--cert", cert_path])
    assert code == 0
    (etf,) = io.load_json(cert_path)["claims"]
    assert etf["method"] == "full-gram"
    assert etf["values"] == {"a": 0, "b": 1, "c": 0}


def test_cli_swapped_omega_never_reaches_the_weyl_heisenberg_route(tmp_path, capsys, monkeypatch):
    f = _swapped_omega_file(tmp_path, capsys)
    frame_ops = []
    real = kernels.frame_operator
    monkeypatch.setattr(kernels, "frame_operator", lambda *a: frame_ops.append(a) or real(*a))
    cert_path = str(tmp_path / "g.cert.json")
    code, _ = _run(capsys, ["verify", f, "--claims", "tight", "--cert", cert_path])
    assert code == 0
    (tight,) = io.load_json(cert_path)["claims"]
    assert tight["method"] == "frame-operator"
    assert tight["values"] == {"c": 0}
    assert len(frame_ops) == 1


def test_cli_tight_claim_names_the_weyl_heisenberg_route(tmp_path, capsys):
    f = str(tmp_path / "g.json")
    _run(capsys, ["construct", "gabor", "--p", "2", "--k", "6", "--r", "3", "--out", f])
    cert_path = str(tmp_path / "g.cert.json")
    code, _ = _run(capsys, ["verify", f, "--claims", "tight", "--cert", cert_path])
    assert code == 0
    (tight,) = io.load_json(cert_path)["claims"]
    assert tight["method"] == "weyl-heisenberg"
    assert tight["values"] == {"c": 0}


def test_cli_harmonic_construct_then_verify(tmp_path, capsys):
    f = str(tmp_path / "h.json")
    code, out = _run(
        capsys, ["construct", "harmonic", "--p", "5", "--k", "2", "--r", "3", "--out", f]
    )
    assert code == 0
    assert "n = 13, d = 4" in out
    code, out = _run(capsys, ["verify", f, "--claims", "etf"])
    assert code == 0
    assert "etf: ok" in out


def test_cli_singer_difference_set_claim(tmp_path, capsys):
    f = str(tmp_path / "ds.json")
    code, out = _run(capsys, ["construct", "singer", "--r", "3", "--out", f])
    assert code == 0
    assert "difference set mod 13, 4 elements, lambda = 1" in out
    code, out = _run(capsys, ["verify", f, "--claims", "difference-set"])
    assert code == 0
    assert "difference-set: ok" in out


def test_cli_complex_claims(tmp_path, capsys):
    for kind, flag, n in [("sic", "2", 4), ("mub", "3", 12)]:
        f = str(tmp_path / f"{kind}.json")
        code, _ = _run(capsys, ["construct", kind, "--d", flag, "--out", f])
        assert code == 0
        code, out = _run(capsys, ["verify", f, "--claims", "weighted-2-design"])
        assert code == 0
        assert "weighted-2-design: ok" in out
        cert = io.load_json(f + ".cert.json")
        claim = cert["claims"][0]
        assert claim["values"]["n"] == n
        assert claim["residuals"]["moment"] <= 1e-9
        assert claim["tolerance"] == 1e-9


def test_cli_complex_non_design_fails_claim(tmp_path, capsys):
    rng = np.random.default_rng(3)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = str(tmp_path / "bad.json")
    io.save_design(f, CEnsemble(v))
    code, out = _run(capsys, ["verify", f, "--claims", "weighted-2-design"])
    assert code == 1
    assert "weighted-2-design: FAILED" in out


def test_cli_quaternion_claims(tmp_path, capsys):
    f = str(tmp_path / "q.json")
    code, out = _run(capsys, ["construct", "q-simplex", "--out", f])
    assert code == 0
    assert "quaternion ensemble, n = 6, d = 2" in out
    code, out = _run(capsys, ["verify", f, "--claims", "q-design,fusion"])
    assert code == 0
    assert "q-design: ok" in out
    assert "fusion: ok" in out
    cert = io.load_json(f + ".cert.json")
    by_name = {c["name"]: c for c in cert["claims"]}
    assert by_name["q-design"]["values"]["first"] == pytest.approx(0.5, abs=1e-12)
    assert by_name["fusion"]["values"]["alpha"] == pytest.approx(0.16, abs=1e-10)


# ---------------------------------------------------------------------------
# CLI: error paths and exit codes
# ---------------------------------------------------------------------------


def test_cli_missing_file_exits_2(capsys):
    assert cli.main(["verify", "/nonexistent/x.json", "--claims", "etf"]) == 2


def test_cli_malformed_json_exits_2(tmp_path, capsys):
    f = str(tmp_path / "broken.json")
    with open(f, "w") as fh:
        fh.write("{not json")
    assert cli.main(["verify", f, "--claims", "etf"]) == 2


_DIFFERENCE_SET_DOC = {"format": 1, "setting": "difference-set", "modulus": 7, "elements": [1, 2, 4]}


@pytest.mark.parametrize(
    "setting,edit",
    [
        ("difference-set", {"modulus": 0}),
        ("difference-set", {"modulus": -7}),
        ("difference-set", {"modulus": "7"}),
        ("difference-set", {"elements": [1, 2.0, 4]}),
        ("difference-set", {"elements": 5}),
        ("finite", {"field": {"k": 2, "modulus": [1, 0, 1]}}),
        ("finite", {"field": [3, 2, [1, 0, 1]]}),
        ("finite", {"field": {"p": 3, "k": 2, "modulus": 5}}),
        ("finite", {"field": {"p": 3.7, "k": 2}}),
        ("finite", {"metadata": [1, 2]}),
        ("finite", {"metadata": {"omega": {"element": [1.7, 2.2]}}}),
        ("finite", {"metadata": {"omega": {"element": [True, False]}}}),
        ("finite", {"metadata": {"omega": {"element": [1, 3]}}}),
        ("finite", {"metadata": {"omega": {"element": [1]}}}),
    ],
)
def test_cli_malformed_design_file_exits_2(tmp_path, capsys, f9, setting, edit):
    base = _DIFFERENCE_SET_DOC if setting == "difference-set" else io.design_file_from_ensemble(f9)
    doc = {**base, **edit}
    with pytest.raises(io.SchemaError):
        io.ensemble_from_design_file(doc)
    f = str(tmp_path / "bad.json")
    io.save_json(f, doc)  # canonical, so a finite file also goes through the fast reader
    claim = "difference-set" if setting == "difference-set" else "etf"
    assert cli.main(["verify", f, "--claims", claim]) == 2


def test_cli_difference_set_with_a_huge_modulus_exits_2(tmp_path, capsys):
    # rejected by counting, before any modulus-sized list is made
    f = str(tmp_path / "big.json")
    io.save_json(f, {**_DIFFERENCE_SET_DOC, "modulus": 10**10, "elements": [0, 1]})
    assert cli.main(["verify", f, "--claims", "difference-set"]) == 2


def test_cli_empty_claims_exits_2(tmp_path, capsys, f9):
    f = str(tmp_path / "f9.json")
    io.save_design(f, f9)
    assert cli.main(["verify", f, "--claims", ","]) == 2


def test_cli_unknown_claim_exits_2(tmp_path, capsys, f9):
    f = str(tmp_path / "f9.json")
    io.save_design(f, f9)
    assert cli.main(["verify", f, "--claims", "unitary"]) == 2


def test_cli_checks_every_claim_before_running_any(tmp_path, capsys, monkeypatch):
    etf_runs = []
    monkeypatch.setattr(ffdesigns, "verify_etf", lambda ens: etf_runs.append(ens))
    f = fixture_path("f9_d2_design.json")
    cert_path = str(tmp_path / "f9.cert.json")
    code = cli.main(["verify", f, "--claims", "etf,fusion", "--cert", cert_path])
    assert code == 2
    assert "claim 'fusion' not defined for finite ensembles" in capsys.readouterr().err
    assert not os.path.exists(cert_path)
    assert etf_runs == []


def test_cli_etf_and_design_share_one_full_gram(tmp_path, capsys, monkeypatch):
    ens = gabor_ensemble(2, 6, 3)
    f = str(tmp_path / "plain.json")
    io.save_design(f, FFEnsemble(ens.ctx, ens.data))  # no metadata: the full Gram route
    full_grams = []
    real = ffdesigns.check_etf
    monkeypatch.setattr(ffdesigns, "check_etf", lambda e: full_grams.append(e) or real(e))
    code, out = _run(capsys, ["verify", f, "--claims", "etf,design"])
    assert code == 1  # even characteristic: no design criterion
    assert "etf: ok" in out and "design: FAILED" in out
    assert len(full_grams) == 1


def test_cli_budget_exhaustion_exits_3(tmp_path, capsys):
    # passes the divisibility screen (36 = 12 mod 24) but needs degree 72 > 64
    f = str(tmp_path / "big.json")
    code = cli.main(["construct", "gabor", "--p", "7", "--k", "36", "--r", "8", "--out", f])
    assert code == 3
    assert not os.path.exists(f)


def test_cli_invalid_construction_exits_2(tmp_path, capsys):
    f = str(tmp_path / "x.json")
    assert cli.main(["construct", "gabor", "--p", "3", "--k", "2", "--r", "3", "--out", f]) == 2
    assert cli.main(["construct", "sic", "--d", "4", "--out", f]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "gabor", "--p", "2", "--k", "6"],
        ["construct", "mub"],
        ["optimize", "--d", "2", "--n", "6", "--seeds", "0"],
        ["optimize", "--d", "0", "--n", "6"],
    ],
)
def test_cli_usage_errors_exit_2(tmp_path, capsys, argv):
    f = str(tmp_path / "x.json")
    assert cli.main(argv + ["--out", f]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(f)


def test_cli_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


# ---------------------------------------------------------------------------
# CLI: search
# ---------------------------------------------------------------------------


def test_cli_search_stdout(capsys):
    code, out = _run(capsys, ["search", "--p-max", "3", "--k-max", "8", "--r-max", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,p,k,r,design"
    assert lines[1:] == ["13,2,6,3,0"]


def test_cli_search_csv(tmp_path, capsys):
    f = str(tmp_path / "rows.csv")
    code, out = _run(
        capsys, ["search", "--p-max", "3", "--k-max", "8", "--r-max", "4", "--csv", f]
    )
    assert code == 0
    assert f"wrote 1 rows to {f}" in out
    with open(f) as fh:
        got = fh.read().strip().splitlines()
    assert got[0] == "d,p,k,r,design"
    assert got[1] == "13,2,6,3,0"


def test_cli_search_empty_window(capsys):
    code, out = _run(capsys, ["search", "--p-max", "1", "--k-max", "1", "--r-max", "1"])
    assert code == 0
    assert out.strip().splitlines() == ["d,p,k,r,design"]


# ---------------------------------------------------------------------------
# CLI: ebr
# ---------------------------------------------------------------------------


def test_cli_ebr_catalog_witness(tmp_path, capsys):
    f = str(tmp_path / "ebr2.json")
    code, out = _run(capsys, ["ebr", "--d", "2", "--out", f])
    assert code == 0
    assert "d = 2: constructive bound 4 via sic-catalog" in out
    doc = io.load_json(f)
    assert doc["kind"] == "ebr-certificate"
    assert doc["best_constructive"] == 4
    assert doc["best_recorded"] == 4
    assert doc["witness"]["provenance"] == "sic-catalog"
    assert [row["bound"] for row in doc["table"]] == [4, 5, 6, 8, 12]


def test_cli_ebr_no_witness_available(tmp_path, capsys):
    f = str(tmp_path / "ebr4.json")
    code, out = _run(capsys, ["ebr", "--d", "4", "--out", f])
    assert code == 0
    assert "d = 4: no constructive witness available" in out
    doc = io.load_json(f)
    assert doc["best_constructive"] is None
    assert doc["best_recorded"] == 17
    assert [row["bound"] for row in doc["table"]] == [17, 19, 20, 24, 40]
    assert not any(row["constructive"] for row in doc["table"])


def test_cli_ebr_does_not_hide_catalog_errors(monkeypatch):
    def broken(d):
        raise RuntimeError("catalog bug")

    monkeypatch.setattr(cdesigns, "mub_ensemble", broken)
    with pytest.raises(RuntimeError):
        cli.main(["ebr", "--d", "5"])


def test_cli_ebr_witness_file_and_dimension_guard(tmp_path, capsys):
    w = str(tmp_path / "sic2.json")
    io.save_design(w, sic_catalog(2))
    code, out = _run(capsys, ["ebr", "--d", "2", "--witness", w])
    assert code == 0
    assert "constructive bound 4 via witness-file" in out
    code, out = _run(capsys, ["ebr", "--d", "3", "--witness", w])
    assert code == 1
    assert "witness dimension 2 != requested d = 3" in out


# ---------------------------------------------------------------------------
# CLI: optimize + export + threads
# ---------------------------------------------------------------------------


def test_cli_optimize_writes_design_and_trace(tmp_path, capsys):
    f = str(tmp_path / "opt.json")
    t = str(tmp_path / "trace.csv")
    code, out = _run(
        capsys,
        [
            "optimize", "--d", "2", "--n", "6", "--seeds", "2",
            "--iters", "800", "--out", f, "--trace", t,
        ],
    )
    assert code == 0
    ens = io.load_design(f)
    assert isinstance(ens, QEnsemble)
    assert check_tight_q_design(ens, tol=1e-6).ok
    with open(t) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "seed,iteration,potential"
    seeds = {r.split(",")[0] for r in rows[1:]}
    assert seeds == {"0", "1"}


def test_cli_export_json_reemits_canonical_bytes(tmp_path, capsys):
    for name, construct in [
        ("sic", ["sic", "--d", "2"]),
        ("gabor", ["gabor", "--p", "2", "--k", "6", "--r", "3"]),
    ]:
        f = str(tmp_path / f"{name}.json")
        _run(capsys, ["construct", *construct, "--out", f])
        out_json = str(tmp_path / f"{name}.copy.json")
        code, _ = _run(capsys, ["export", f, "--format", "json", "--out", out_json])
        assert code == 0
        with open(f, "rb") as fh:
            src = fh.read()
        with open(out_json, "rb") as fh:
            dup = fh.read()
        assert src == dup, name


def test_cli_export_json_writes_the_inputs_canonical_bytes(tmp_path, capsys):
    ds = str(tmp_path / "ds.json")
    _run(capsys, ["construct", "singer", "--r", "3", "--out", ds])
    for name, f in [
        ("finite", fixture_path("f9_d2_design.json")),
        ("complex", fixture_path("sic_d2_fiducial.json")),
        ("difference-set", ds),
    ]:
        out_json = str(tmp_path / f"{name}.copy.json")
        code, _ = _run(capsys, ["export", f, "--format", "json", "--out", out_json])
        assert code == 0
        with open(out_json, "rb") as fh:
            assert fh.read() == io.canonical_dumps(io.load_json(f)).encode("ascii"), name


def test_cli_export_csv_shapes(tmp_path, capsys):
    cases = [
        (["construct", "sic", "--d", "2"], "sic", 1 + 4, 1 + 1 + 4),
        (["construct", "singer", "--r", "3"], "ds", 1 + 4, 1),
        (["construct", "q-simplex"], "q", 1 + 6, 1 + 8),
    ]
    for argv, name, nrows, ncols in cases:
        f = str(tmp_path / f"{name}.json")
        _run(capsys, argv + ["--out", f])
        out_csv = str(tmp_path / f"{name}.csv")
        code, _ = _run(capsys, ["export", f, "--format", "csv", "--out", out_csv])
        assert code == 0
        with open(out_csv) as fh:
            rows = [r for r in fh.read().splitlines() if r]
        assert len(rows) == nrows
        assert len(rows[0].split(",")) == ncols


def test_cli_export_csv_floats_round_trip(tmp_path, capsys):
    f = str(tmp_path / "mub.json")
    _run(capsys, ["construct", "mub", "--d", "3", "--out", f])
    out_csv = str(tmp_path / "mub.csv")
    _run(capsys, ["export", f, "--format", "csv", "--out", out_csv])
    ens = io.load_design(f)
    with open(out_csv) as fh:
        rows = fh.read().strip().splitlines()[1:]
    for idx, row in enumerate(rows):
        parts = row.split(",")
        assert int(parts[0]) == idx
        assert float(parts[1]) == ens.weights[idx]
        flat = np.array([float(x) for x in parts[2:]])
        vec = flat[0::2] + 1j * flat[1::2]
        assert np.array_equal(vec, ens.vectors[idx])


# Inputs of the golden CSV test. The quaternion vectors are those `construct
# q-simplex` writes, recorded so that the text does not depend on which
# eigenbasis LAPACK returns; the complex ones are the d = 2 SIC with
# non-uniform weights.
_GOLDEN_COMPLEX = {
    "format": 1, "setting": "complex", "d": 2, "n": 4,
    "vectors": [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.5773502691896258, 0.0], [0.816496580927726, 0.0]],
        [[0.5773502691896258, 0.0], [-0.40824829046386285, 0.7071067811865476]],
        [[0.5773502691896258, 0.0], [-0.4082482904638633, -0.7071067811865474]],
    ],
    "weights": [0.16666666666666666, 0.3333333333333333, 0.25, 0.25],
}
_GOLDEN_QUATERNION = {
    "format": 1, "setting": "quaternion", "d": 2, "n": 6,
    "vectors": [
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        [[0.6324555320336759, 0.0, 0.0, 0.0], [0.4973092044453891, 0.5938716655759005, 0.0, 0.0]],
        [[0.6324555320336759, 0.0, 0.0, 0.0],
         [-0.6993410687513276, 0.3330496502891874,
          -1.8027775184845915e-16, 3.6055550369691825e-17]],
        [[0.6324555320336759, 0.0, 0.0, 0.0],
         [0.06734395476864634, -0.3089737719550293, 0.7071067811865475, -1.5767885109816904e-16]],
        [[0.6324555320336759, 0.0, 0.0, 0.0],
         [0.06734395476864644, -0.3089737719550294, -0.35355339059327373, -0.6123724356957945]],
        [[0.6324555320336759, 0.0, 0.0, 0.0],
         [0.06734395476864644, -0.3089737719550294, -0.3535533905932737, 0.6123724356957946]],
    ],
}
_GOLDEN_CSV = {
    "finite": [
        "index,e0_c0,e0_c1,e1_c0,e1_c1",
        "0,1,0,1,1",
        "1,1,0,2,2",
        "2,1,1,1,0",
        "3,1,1,2,0",
    ],
    "complex": [
        "index,weight,re0,im0,re1,im1",
        "0,0.16666666666666666,1.0,0.0,0.0,0.0",
        "1,0.3333333333333333,0.5773502691896258,0.0,0.816496580927726,0.0",
        "2,0.25,0.5773502691896258,0.0,-0.40824829046386285,0.7071067811865476",
        "3,0.25,0.5773502691896258,0.0,-0.4082482904638633,-0.7071067811865474",
    ],
    "quaternion": [
        "index,e0_w,e0_x,e0_y,e0_z,e1_w,e1_x,e1_y,e1_z",
        "0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0",
        "1,0.6324555320336759,0.0,0.0,0.0,0.4973092044453891,0.5938716655759005,0.0,0.0",
        "2,0.6324555320336759,0.0,0.0,0.0,-0.6993410687513276,0.3330496502891874,"
        "-1.8027775184845915e-16,3.6055550369691825e-17",
        "3,0.6324555320336759,0.0,0.0,0.0,0.06734395476864634,-0.3089737719550293,"
        "0.7071067811865475,-1.5767885109816904e-16",
        "4,0.6324555320336759,0.0,0.0,0.0,0.06734395476864644,-0.3089737719550294,"
        "-0.35355339059327373,-0.6123724356957945",
        "5,0.6324555320336759,0.0,0.0,0.0,0.06734395476864644,-0.3089737719550294,"
        "-0.3535533905932737,0.6123724356957946",
    ],
    "difference-set": ["element", "0", "1", "3"],
}


def test_cli_export_csv_text_is_pinned_per_setting(tmp_path, capsys):
    """The whole CSV text, header and rows, of one small design per setting."""
    inputs = {"finite": fixture_path("f9_d2_design.json")}
    for name, doc in [("complex", _GOLDEN_COMPLEX), ("quaternion", _GOLDEN_QUATERNION)]:
        inputs[name] = str(tmp_path / f"{name}.json")
        io.save_json(inputs[name], doc)
    inputs["difference-set"] = str(tmp_path / "ds.json")
    _run(capsys, ["construct", "singer", "--r", "2", "--out", inputs["difference-set"]])
    for name, f in inputs.items():
        out_csv = str(tmp_path / f"{name}.csv")
        code, _ = _run(capsys, ["export", f, "--format", "csv", "--out", out_csv])
        assert code == 0
        with open(out_csv, newline="") as fh:
            assert fh.read() == "".join(line + "\r\n" for line in _GOLDEN_CSV[name]), name
