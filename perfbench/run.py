#!/usr/bin/env python3
"""designforge benchmark: closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload gabor73 --seed 1 --seconds 20 --trace 0

One caller in one process runs the workload's operation back to back (a
closed loop) until the next operation would overrun --seconds, at least
once, and checks every output against exact expected values.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Metric names and units are declared in BENCHMARK.json at the repository
root; README.md next to this file says what each one measures.

Workloads (the seed sets every random input; the program receives only
the generated inputs):

  gabor73     gabor_ensemble(7,12,8) (n=5329, d=73, K=24), structural ETF
              verification, the design certificate, and a 20 000-pair Gram
              spot check seeded from --seed.
  gabor57     gabor_ensemble(2,9,7) (n=3249, d=57, K=18, p=2) and its
              structural verification; c = 0, so the spanning rank runs.
  verify-cli  `python3 -m designforge.cli verify g73.json --claims
              etf,design,tight` as a subprocess on the saved d=73 file.
  cq-numeric  ten seeded optimize_design(3,15) runs with their q-design and
              fusion-frame checks, a Kraus round trip on mub_ensemble(11),
              and Caratheodory pruning of a seeded mixture of 12 rotated
              copies of mub_ensemble(5).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def _ints(elems):
    return tuple(e.to_int() for e in elems) if elems is not None else None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    checks: tuple = ()

    def extras(self) -> dict:
        """Workload-specific figures for the log, beyond the declared metrics."""
        return {}

    def rss_mb(self) -> float:
        """Peak resident memory of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Gabor73(Workload):
    """The d = 73 exact certificate and its Gram spot check, in-process."""

    checks = ("etf", "certificate", "spot-check")
    pairs = 20_000

    def setup(self, seed, layers):
        self.ff = layers["ffdesigns"]
        self.seed = seed
        self.ff.gabor_ensemble(7, 12, 8)  # fills build_field's cache and the primitive element
        self.phases = []

    def op(self, tracer):
        ff = self.ff
        t0 = time.perf_counter()
        ens = ff.gabor_ensemble(7, 12, 8)
        etf = ff.structural_gabor_verify(ens)
        cert = ff.certify_tight_2design(ens)
        t1 = time.perf_counter()
        spot = bool(etf) and ff.gram_sample_check(
            ens, etf.params[0], etf.params[1], pairs=self.pairs, seed=self.seed
        )
        t2 = time.perf_counter()
        self.phases.append((t1 - t0, self.pairs / (t2 - t1)))
        summary = {
            "etf": _ints(etf.params),
            "method": cert.method,
            "cert_etf": _ints(cert.etf),
            "design": _ints(cert.design),
            "spot": spot,
        }
        ok = {
            "etf": summary["etf"] == (2, 1, 6),
            "certificate": summary["method"] == "structural-gabor"
            and summary["cert_etf"] == (2, 1, 6)
            and summary["design"] == (2, 6, 6),
            "spot-check": spot,
        }
        return ok, summary

    def extras(self):
        if not self.phases:
            return {}
        return {
            "certificate_s": statistics.median(c for c, _ in self.phases),
            "spot_pairs_per_s": statistics.median(r for _, r in self.phases),
        }


class Gabor57(Workload):
    """Even-characteristic Gabor ETF with c = 0: the elimination path."""

    checks = ("etf",)

    def setup(self, seed, layers):
        self.ff = layers["ffdesigns"]
        self.ff.gabor_ensemble(2, 9, 7)

    def op(self, tracer):
        etf = self.ff.structural_gabor_verify(self.ff.gabor_ensemble(2, 9, 7))
        summary = {"etf": _ints(etf.params)}
        return {"etf": summary["etf"] == (0, 1, 0)}, summary


class VerifyCli(Workload):
    """`designforge verify` on the saved d = 73 ensemble, as a subprocess."""

    checks = ("exit-code", "etf", "design", "tight", "input-sha256")
    claims = "etf,design,tight"

    def setup(self, seed, layers):
        self.path = OUT / "g73.json"
        layers["io"].save_design(str(self.path), layers["ffdesigns"].gabor_ensemble(7, 12, 8))
        self.sha256 = hashlib.sha256(self.path.read_bytes()).hexdigest()
        self.cert_path = OUT / "g73.json.cert.json"
        self.child_rss_mb = 0.0

    def op(self, tracer):
        argv = ["verify", str(self.path), "--claims", self.claims, "--cert", str(self.cert_path)]
        trace_path = OUT / "verify-child-trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "designforge.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), str(trace_path), *argv]
        self.cert_path.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        code, rss_mb = run_child(cmd)
        self.child_rss_mb = max(self.child_rss_mb, rss_mb)
        if tracer is not None:
            doc = json.loads(trace_path.read_text())
            tracer.merge(doc)
            tracer.count("cli.import_ns", doc["import_ns"])
        cert = json.loads(self.cert_path.read_text()) if self.cert_path.exists() else {}
        values = {c["name"]: (c["ok"], c.get("values")) for c in cert.get("claims", [])}
        summary = {"exit": code, "claims": values, "sha256": cert.get("input_sha256")}
        ok = {
            "exit-code": code == 0,
            "etf": values.get("etf") == (True, {"a": 2, "b": 1, "c": 6}),
            "design": values.get("design") == (True, {"a": 2, "c1": 6, "c2": 6}),
            "tight": values.get("tight") == (True, {"c": 6}),
            "input-sha256": summary["sha256"] == self.sha256,
        }
        return ok, summary

    def rss_mb(self):
        return self.child_rss_mb


class CqNumeric(Workload):
    """Float work in qdesigns and cdesigns; no finite-field code runs."""

    checks = tuple(f"optimize-{i}" for i in range(10)) + ("kraus-round-trip", "prune")

    def setup(self, seed, layers):
        import numpy as np

        self.cd = layers["cdesigns"]
        self.qd = layers["qdesigns"]
        self.opt_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(10)]
        rng = np.random.default_rng(seed)
        base = self.cd.mub_ensemble(5)
        copies, weights = [], rng.uniform(0.5, 1.5, size=12)
        for _ in range(12):
            z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
            copies.append(base.vectors @ q.T)
        w = np.repeat(weights, base.n)
        self.mixture = self.cd.CEnsemble(np.concatenate(copies), w / w.sum())
        self.mub11 = self.cd.mub_ensemble(11)
        self.strict = []

    def _verified(self, ens, tol):
        fusion = self.qd.certify_fusion_frame(ens, tol=tol)
        return self.qd.check_tight_q_design(ens, tol=tol).ok and fusion.isoclinic and fusion.tight

    def op(self, tracer):
        qd, cd = self.qd, self.cd
        ok, summary = {}, {}
        for i, s in enumerate(self.opt_seeds):
            res = qd.optimize_design(3, 15, seed=s)
            strict = self._verified(res.ensemble, 1e-6)
            # A potential gap g bounds every squared overlap to within n*sqrt(g/2) of the
            # design value, so a slowly converged result is held to the tolerance its gap
            # supports; the share passing at 1e-6 is reported on its own.
            implied = res.ensemble.n * math.sqrt(2 * max(res.gap, 0.0))
            ok[f"optimize-{i}"] = (
                res.converged
                and res.gap < 1e-8
                and (strict or (implied > 1e-6 and self._verified(res.ensemble, implied)))
            )
            summary[f"optimize-{i}"] = (res.iterations, strict, ok[f"optimize-{i}"])
            self.strict.append(strict)
            if tracer is not None:
                tracer.count("qdesigns.optimize_design.verified", strict)
        kraus, ebr = cd.design_to_kraus(self.mub11)
        back = cd.kraus_to_design(kraus)
        ok["kraus-round-trip"] = (
            ebr.bound == 132 and ebr.ok and back.n == 132 and cd.check_weighted_2design(back) <= 1e-9
        )
        pruned = cd.caratheodory_prune(self.mixture)
        ok["prune"] = pruned.n <= 225 and cd.check_weighted_2design(pruned) <= 1e-9
        summary.update(kraus=(ebr.bound, ok["kraus-round-trip"]), prune=(pruned.n, ok["prune"]))
        return ok, summary

    def extras(self):
        return {"optimizer_verified_at_1e-6": f"{sum(self.strict)} of {len(self.strict)}"}


WORKLOADS = {"gabor73": Gabor73, "gabor57": Gabor57, "verify-cli": VerifyCli, "cq-numeric": CqNumeric}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd):
    """Run cmd to completion; return (exit code, the child's peak RSS in MB)."""
    with open(OUT / "child.stderr", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def setup_sample(workload, seed):
    """Seconds for a fresh process to import, warm up and write its inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    code, _ = run_child(cmd)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up process exited with {code}: {(OUT / 'child.stderr').read_text()}")
    return elapsed


class Tally:
    """Checked outcomes of every operation in a run."""

    def __init__(self, checks):
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.summaries = []
        self.errors = []

    def record(self, op, tracer):
        self.attempted += len(self.checks)
        try:
            ok, summary = op(tracer)
        except Exception as exc:  # a raising operation counts as failed, the loop goes on
            self.failed += len(self.checks)
            self.errors.append(repr(exc))
            self.summaries.append(None)
            return
        self.failed += sum(not ok[name] for name in self.checks)
        self.errors.extend(f"check {name} failed" for name in self.checks if not ok[name])
        self.summaries.append(summary)


def closed_loop(op, seconds):
    """Run op back to back until the next run would end after `seconds`; at least once."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        op()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def blas_gflops():
    """float64 GEMM rate of this process's BLAS, best of five 1024^3 products."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 1024, 1024))
    a @ b
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * 1024**3 / best / 1e9


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(layers, gflops):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_gflops": gflops,
        "kernel_backend": layers["kernels"].backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


KERNELS = ("matmul", "gather_dot", "dot_batch", "mul_batch", "elim_update")
TIMED = (
    "fflinalg.frobenius_array", "fflinalg.row_echelon",
    "ffcore.build_field", "ffcore.primitive_element", "ffcore.root_of_unity",
    "ffdesigns.gabor_ensemble", "ffdesigns.structural_gabor_verify",
    "ffdesigns.certify_tight_2design", "ffdesigns.gram_sample_check",
    "io.load_design", "io.save_json", "io.sha256_of_file", "cli.main",
    "cdesigns.design_to_kraus", "cdesigns.kraus_to_design", "cdesigns.caratheodory_prune",
    "qdesigns.optimize_design", "qdesigns.certify_fusion_frame",
)
CALLED = (
    "fflinalg.frobenius_array", "fflinalg.row_echelon", "ffdesigns.check_tight_frame",
    "qdesigns.optimize_design", "qdesigns.certify_fusion_frame", "qdesigns.q_frame_potential",
)


def end_to_end(walls, setup_s, rss_mb):
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss_mb}


def layer_metrics(tracer, ops, import_s, overhead, gflops):
    """Per-layer metrics of the traced operations; counts are per operation."""
    stats, counts = tracer.stats, tracer.counts
    op_ns = stats["op"][1]

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def total_ns(name):
        return stats.get(name, (0, 0, 0))[1]

    m = {}
    for fn in KERNELS:
        name = f"kernels.{fn}"
        madds = counts.get(f"{name}.madds", 0)
        ns = total_ns(name)
        m[f"{name}.time_frac"] = ns / op_ns
        m[f"{name}.calls"] = calls(name) / ops
        m[f"{name}.madds"] = madds / ops
        m[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0) / ops
        m[f"{name}.blas_frac"] = 2 * madds / ns / gflops if ns else 0.0  # flop/ns is GFLOP/s
    for name in TIMED:
        m[f"{name}.time_frac"] = total_ns(name) / op_ns
    for name in CALLED:
        m[f"{name}.calls"] = calls(name) / ops
    m["fflinalg.row_echelon.self_frac"] = stats.get("fflinalg.row_echelon", (0, 0, 0))[2] / op_ns
    gsc_ns = total_ns("ffdesigns.gram_sample_check")
    m["ffdesigns.gram_sample_check.pairs_per_s"] = (
        counts.get("ffdesigns.gram_sample_check.pairs", 0) / gsc_ns * 1e9 if gsc_ns else 0.0
    )
    m["io.load_design.bytes"] = counts.get("io.load_design.bytes", 0) / ops
    child_import_ns = counts.get("cli.import_ns")
    m["cli.import_s"] = child_import_ns / ops * 1e-9 if child_import_ns else import_s
    m["cdesigns.caratheodory_prune.removed"] = counts.get("cdesigns.caratheodory_prune.removed", 0) / ops
    iterations = counts.get("qdesigns.optimize_design.iterations", 0)
    m["qdesigns.optimize_design.iterations"] = iterations / ops
    optimized = calls("qdesigns.optimize_design")
    m["qdesigns.optimize_design.verified_frac"] = (
        counts.get("qdesigns.optimize_design.verified", 0) / optimized if optimized else 0.0
    )
    potentials = calls("qdesigns.q_frame_potential")
    m["qdesigns.step_accept_ratio"] = iterations / potentials if potentials else 0.0
    m["trace_overhead_frac"] = overhead
    m["machine.blas_gflops"] = gflops
    return m


def layer_seconds(tracer, ops):
    """Inclusive and self seconds per traced name, per operation, for the log."""
    return {
        name: {"calls": calls / ops, "s": total * 1e-9 / ops, "self_s": self_ns * 1e-9 / ops}
        for name, (calls, total, self_ns) in sorted(tracer.stats.items())
    }


def check_spans(tracer):
    """Self times are non-negative and partition the traced operations' time."""
    stats = tracer.stats
    if any(self_ns < 0 for _, _, self_ns in stats.values()):
        raise RuntimeError("negative self time in trace")
    covered = sum(self_ns for _, _, self_ns in stats.values())
    if covered != stats["op"][1]:
        raise RuntimeError(f"spans cover {covered} ns of {stats['op'][1]} ns traced")


def run(args, layers, import_s):
    from spans import Tracer

    workload = WORKLOADS[args.workload]()
    setup_s = [] if args.trace else [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    workload.setup(args.seed, layers)
    tally = Tally(workload.checks)
    values, extras, log = {}, {}, {}
    if not args.trace:
        walls = closed_loop(lambda: tally.record(workload.op, None), args.seconds)
        values = end_to_end(walls, setup_s, workload.rss_mb())
        extras = dict(workload.extras(), ops=len(walls), walls_s=walls, setup_samples_s=setup_s)
        gflops = blas_gflops()
    else:
        plain = closed_loop(lambda: tally.record(workload.op, None), args.seconds / 2)
        tracer = Tracer(layers)

        def traced():
            with tracer.span("op"):
                tally.record(workload.op, tracer)

        with tracer.installed():
            walls = closed_loop(traced, args.seconds / 2)
        check_spans(tracer)
        baseline = tally.summaries[0]
        for summary in tally.summaries[len(plain):]:
            tally.attempted += 1
            if summary != baseline:
                tally.failed += 1
                tally.errors.append("traced verdicts differ from untraced ones")
        gflops = blas_gflops()
        overhead = statistics.median(walls) / statistics.median(plain) - 1
        values = layer_metrics(tracer, len(walls), import_s, overhead, gflops)
        extras = {"untraced_walls_s": plain, "traced_walls_s": walls,
                  "dropped_spans": tracer.dropped}
        log = {"layers": layer_seconds(tracer, len(walls)), "spans": tracer.spans}
    return tally, values, extras, log, machine_facts(layers, gflops)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "designforge" / "__init__.py").is_file():
        print(f"error: no designforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import load_layers

    t0 = time.perf_counter()
    layers = load_layers()
    import_s = time.perf_counter() - t0
    if not Path(layers["cli"].__file__).resolve().is_relative_to(SRC):
        print(f"error: designforge imported from {layers['cli'].__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        WORKLOADS[args.workload]().setup(args.seed, layers)
        return 0

    declared = declared_metrics(args.trace)
    tally, values, extras, log, machine = run(args, layers, import_s)
    missing = set(declared) - set(values)
    if missing:
        print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine))
    for name, value in extras.items():
        print(f"  {name} = {value}")
    for name, row in log.get("layers", {}).items():
        print(f"  {name:<42} calls {row['calls']:>10.1f}  s {row['s']:>9.4f}  self_s {row['self_s']:>9.4f}")
    print(f"  failed_frac = {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} checks)")
    for err in sorted(set(tally.errors)):
        print(f"  FAILED: {err}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, extras=extras, **log)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
