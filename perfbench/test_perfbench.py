"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import COUNTERS, Tracer, load_layers  # noqa: E402

LAYERS = load_layers()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _callables():
    return {
        (name, attr): obj
        for name, mod in LAYERS.items()
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


def _kernel_calls(kernels, ctx):
    rng = np.random.default_rng(7)
    k, p = ctx.deg, ctx.p
    a = rng.integers(0, p, size=(4, 5, k))
    b = rng.integers(0, p, size=(5, 3, k))
    x = rng.integers(0, p, size=(6, 5, k))
    ki = np.array([0, 2, 5, 1])
    updated = x[:3].copy()
    kernels.elim_update(updated, x[3:, 0], x[0], ctx.red, p)
    return [
        kernels.matmul(a, b, ctx.red, p),
        kernels.mul_batch(x[:, 0], x[:, 1], ctx.red, p),
        kernels.dot_batch(x, x[::-1], ctx.red, p),
        kernels.gather_dot(x, x, ki, ki[::-1], ctx.red, p),
        updated,
    ]


def _pipeline(ff):
    ens = ff.gabor_ensemble(2, 6, 3)
    etf = ff.structural_gabor_verify(ens)
    cert = ff.certify_tight_2design(ens)
    return run._ints(etf.params), cert.method, run._ints(cert.etf), cert.failures


@pytest.fixture
def traced():
    with Tracer(LAYERS).installed() as tracer:
        yield tracer


def test_wrapped_calls_are_bit_identical():
    ctx = LAYERS["ffcore"].build_field(3, 4)
    plain = _kernel_calls(LAYERS["kernels"], ctx)
    plain_verdict = _pipeline(LAYERS["ffdesigns"])
    tracer = Tracer(LAYERS)
    with tracer.installed(), tracer.span("op"):
        wrapped = _kernel_calls(LAYERS["kernels"], ctx)
        wrapped_verdict = _pipeline(LAYERS["ffdesigns"])
    for got, want in zip(wrapped, plain):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert wrapped_verdict == plain_verdict
    assert tracer.stats["kernels.matmul"][0] >= 1


def test_uninstall_restores_every_name():
    before = _callables()
    tracer = Tracer(LAYERS)
    tracer.install()
    assert LAYERS["ffdesigns"].rank is not before[("fflinalg", "rank")]
    tracer.uninstall()
    after = _callables()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_by_name_imports_are_traced(traced):
    # characteristic 2 gives c = 0, so ffdesigns calls its imported `rank`
    with traced.span("op"):
        _pipeline(LAYERS["ffdesigns"])
    assert traced.stats["fflinalg.rank"][0] >= 1
    assert traced.stats["fflinalg.row_echelon"][0] >= 1
    assert traced.stats["ffcore.build_field"][0] >= 1


def test_self_times_partition_the_traced_time(traced):
    with traced.span("op"):
        _pipeline(LAYERS["ffdesigns"])
    run.check_spans(traced)
    assert all(self_ns >= 0 for _, _, self_ns in traced.stats.values())
    for name, start, end, parent in traced.spans:
        if parent >= 0:
            _, p_start, p_end, _ = traced.spans[parent]
            assert p_start <= start <= end <= p_end


def test_kernel_work_is_computed_from_shapes(traced):
    ctx = LAYERS["ffcore"].build_field(3, 4)
    a = np.ones((4, 5, 4), dtype=np.int64)
    b = np.ones((5, 3, 4), dtype=np.int64)
    with traced.span("op"):
        out = LAYERS["kernels"].matmul(a, b, ctx.red, ctx.p)
    assert traced.counts["kernels.matmul.madds"] == 4 * 5 * 3 * 4 * 4
    assert traced.counts["kernels.matmul.bytes"] == a.nbytes + b.nbytes + ctx.red.nbytes + out.nbytes


def test_child_trace_merges_into_the_open_span(tmp_path):
    path = tmp_path / "g13.json"
    LAYERS["io"].save_design(str(path), LAYERS["ffdesigns"].gabor_ensemble(2, 6, 3))
    out = tmp_path / "trace.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(out), "verify", str(path),
           "--claims", "etf,tight", "--cert", str(tmp_path / "cert.json")]
    tracer = Tracer(LAYERS)
    with tracer.span("op"):
        proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(), capture_output=True)
        doc = json.loads(out.read_text())
        tracer.merge(doc)
    assert proc.returncode == 0
    assert doc["stats"]["ffdesigns.check_tight_frame"][0] == 2
    assert doc["counts"]["io.load_design.bytes"] == path.stat().st_size
    run.check_spans(tracer)


def test_layer_metrics_match_the_declared_names(traced):
    with traced.span("op"):
        _pipeline(LAYERS["ffdesigns"])
    metrics = run.layer_metrics(traced, 1, 0.1, 0.05, 100.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.end_to_end([1.0], [0.5], 10.0)) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["ffdesigns.check_tight_frame.calls"] == 2
    assert {f"kernels.{fn}" for fn in run.KERNELS} <= set(COUNTERS)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gabor57", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
