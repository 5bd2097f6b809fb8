"""Command-line front end: construct | verify | search | ebr | optimize | export.

Exit codes are fixed for scripting: 0 success, 1 claim/witness failure,
2 parse or usage failure, 3 computational budget exceeded.  Engine imports
happen inside the handlers, so a command loads only the modules it uses.

`verify` runs from one table, `_CLAIMS`: per ensemble type, each claim
name and the function that returns its certificate entry.  Every requested
name is checked against the loaded file before any claim runs.  Facts that
claims share, such as the ETF verdict behind `etf` and `design`, are
memoized on the ensemble.  `construct` runs from `_CONSTRUCT` the same way:
per kind, the arguments it requires and its builder.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import sys
import time
from typing import List, Optional

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _engine(name: str):
    """An engine module, imported when a builder first runs."""
    return importlib.import_module(f"{__package__}.{name}")


# construct kind -> (its required arguments, the setting written, builder from the arguments)
_CONSTRUCT = {
    "gabor": ("p k r", "finite", lambda a: _engine("ffdesigns").gabor_ensemble(a.p, a.k, a.r)),
    "singer": ("r", None, lambda a: _engine("ffdesigns").singer_difference_set(a.r)),
    "harmonic": ("p k r", "finite", lambda a: _engine("ffdesigns").harmonic_etf(
        _engine("ffcore").build_field(a.p, 2 * a.k), _engine("ffdesigns").singer_difference_set(a.r))),
    "mub": ("d", "complex", lambda a: _engine("cdesigns").mub_ensemble(a.d)),
    "sic": ("d", "complex", lambda a: _engine("cdesigns").sic_catalog(a.d)),
    "q-simplex": ("", "quaternion", lambda a: _engine("qdesigns").simplex_design_d2()),
}


def cmd_construct(args) -> int:
    from . import io

    required, setting, build = _CONSTRUCT[args.kind]
    missing = [f"--{name}" for name in required.split() if getattr(args, name) is None]
    if missing:
        raise UsageError(f"construct {args.kind} requires {' '.join(missing)}")
    ens = build(args)
    io.save_design(args.out, ens)
    if setting is None:
        print(f"wrote {args.out}: difference set mod {ens.modulus}, "
              f"{len(ens.elements)} elements, lambda = {ens.lam}")
    else:
        print(f"wrote {args.out}: {setting} ensemble, n = {ens.n}, d = {ens.d}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _etf_entry(ens, tol: float) -> dict:
    from .ffdesigns import verify_etf

    res = verify_etf(ens)
    entry = {"name": "etf", "method": res.method, "ok": bool(res), "exact": True}
    if res:
        entry["values"] = {k: v.to_int() for k, v in zip(("a", "b", "c"), res.params)}
    else:
        entry["counterexample"] = list(res.counterexample)
    return entry


def _design_entry(ens, tol: float) -> dict:
    from .ffdesigns import certify_tight_2design

    cert = certify_tight_2design(ens)
    entry = {
        "name": "design",
        "method": cert.method,
        "ok": cert.is_design,
        "exact": True,
        "cross_checks": list(cert.cross_checks),
    }
    if cert.design is not None:
        entry["values"] = {k: v.to_int() for k, v in zip(("a", "c1", "c2"), cert.design)}
    if cert.failures:
        entry["failures"] = list(cert.failures)
    return entry


def _tight_entry(ens, tol: float) -> dict:
    from .ffdesigns import check_tight_frame, tight_frame_route

    c = check_tight_frame(ens)
    entry = {"name": "tight", "method": tight_frame_route(ens), "ok": c is not None, "exact": True}
    if c is not None:
        entry["values"] = {"c": c.to_int()}
    return entry


def _weighted_2_design_entry(ens, tol: float) -> dict:
    from .cdesigns import check_weighted_2design, frame_potential, potential_bound

    resid = check_weighted_2design(ens)
    return {
        "name": "weighted-2-design",
        "method": "moment-matrix",
        "ok": resid <= tol,
        "tolerance": tol,
        "residuals": {"moment": resid},
        "values": {
            "n": ens.n,
            "d": ens.d,
            "frame_potential_t2": frame_potential(ens, 2),
            "bound_t2": potential_bound(ens.d, 2),
        },
    }


def _q_design_entry(ens, tol: float) -> dict:
    from .qdesigns import check_tight_q_design

    chk = check_tight_q_design(ens, tol=tol)
    entry = {
        "name": "q-design",
        "method": "moments+equiangularity",
        "ok": chk.ok,
        "tolerance": tol,
        "values": {"n": chk.n, "d": chk.d, "first": chk.first, "second": chk.second},
    }
    if chk.b is not None:
        entry["values"]["b"] = chk.b
    if not chk.ok:
        entry["reason"] = chk.reason
        if chk.witness:
            entry["witness"] = list(chk.witness)
    return entry


def _fusion_entry(ens, tol: float) -> dict:
    from .qdesigns import certify_fusion_frame

    cert = certify_fusion_frame(ens, tol=tol)
    entry = {
        "name": "fusion",
        "method": "cross-gramians",
        "ok": cert.isoclinic and cert.tight,
        "tolerance": tol,
        "values": {
            "n": cert.n,
            "d": cert.d,
            "r": cert.r,
            "ambient_dim": cert.ambient_dim,
            "potential": cert.potential,
            "target": cert.target,
        },
        "residuals": {k: v for k, v in cert.residuals.items() if k != "tol"},
    }
    if cert.alpha is not None:
        entry["values"]["alpha"] = cert.alpha
    if cert.witness:
        entry["witness"] = list(cert.witness)
    return entry


def _difference_set_entry(ds, tol: float) -> dict:
    # DifferenceSet.create verified the set when the file was loaded
    return {
        "name": "difference-set",
        "method": "exhaustive-differences",
        "ok": True,
        "exact": True,
        "values": {"modulus": ds.modulus, "size": len(ds.elements), "lambda": ds.lam},
    }


# loaded type name -> (the setting named in errors, claim name -> certificate entry)
_CLAIMS = {
    "FFEnsemble": (
        "finite ensembles",
        {"etf": _etf_entry, "design": _design_entry, "tight": _tight_entry},
    ),
    "CEnsemble": ("complex ensembles", {"weighted-2-design": _weighted_2_design_entry}),
    "QEnsemble": ("quaternion ensembles", {"q-design": _q_design_entry, "fusion": _fusion_entry}),
    "DifferenceSet": ("difference sets", {"difference-set": _difference_set_entry}),
}


def cmd_verify(args) -> int:
    from . import io

    started = time.time()
    ens = io.load_design(args.file)
    claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    if not claims:
        raise UsageError("no claims requested")
    setting, entries = _CLAIMS[type(ens).__name__]
    for claim in claims:
        if claim not in entries:
            raise UsageError(f"claim {claim!r} not defined for {setting}")
    results = [entries[claim](ens, args.tol) for claim in claims]
    cert = io.make_certificate(args.file, results, time.time() - started)
    cert_path = args.cert or (args.file + ".cert.json")
    io.save_json(cert_path, cert)
    all_ok = all(c["ok"] for c in results)
    for c in results:
        print(f"{c['name']}: {'ok' if c['ok'] else 'FAILED'}")
    print(f"certificate written to {cert_path}")
    return EXIT_OK if all_ok else EXIT_CLAIM


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    from .ffdesigns import param_search

    rows = param_search(args.p_max, args.k_max, args.r_max)
    header = ["d", "p", "k", "r", "design"]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([row.d, row.p, row.k, row.r, int(row.design)])
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        print(",".join(header))
        for row in rows:
            print(f"{row.d},{row.p},{row.k},{row.r},{int(row.design)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ebr
# ---------------------------------------------------------------------------


def cmd_ebr(args) -> int:
    import numpy as np

    from . import io
    from .cdesigns import (
        CEnsemble,
        NotADesign,
        UnsupportedDimension,
        design_to_kraus,
        ebr_bound_table,
        mub_ensemble,
        sic_catalog,
    )

    d = args.d
    table = [
        {"bound": row.bound, "rule": row.rule, "constructive": row.constructive}
        for row in ebr_bound_table(d)
    ]
    witness_entry = None
    ens = None
    provenance = None
    if args.witness:
        loaded = io.load_design(args.witness)
        if not isinstance(loaded, CEnsemble):
            raise UsageError("ebr witness must be a complex design file")
        if loaded.d != d:
            print(f"witness dimension {loaded.d} != requested d = {d}")
            return EXIT_CLAIM
        ens, provenance = loaded, "witness-file"
    elif d in (2, 3):
        ens, provenance = sic_catalog(d), "sic-catalog"
    else:
        try:
            ens, provenance = mub_ensemble(d), "mub-catalog"
        except UnsupportedDimension:
            ens = None
    if ens is not None:
        try:
            _kraus, cert = design_to_kraus(ens, tol=args.tol, provenance=provenance)
            witness_entry = {
                "bound": cert.bound,
                "provenance": cert.provenance,
                "residuals": cert.residuals,
                "ok": cert.ok,
            }
        except NotADesign as exc:
            if args.witness:
                print(f"witness failed verification: {exc}")
                return EXIT_CLAIM
    best_recorded = min(t["bound"] for t in table) if table else None
    best_constructive = witness_entry["bound"] if witness_entry else None
    doc = {
        "format": io.FORMAT_VERSION,
        "kind": "ebr-certificate",
        "d": d,
        "best_constructive": best_constructive,
        "best_recorded": best_recorded,
        "witness": witness_entry,
        "table": table,
    }
    if args.out:
        io.save_json(args.out, doc)
        print(f"wrote {args.out}")
    if witness_entry:
        print(f"d = {d}: constructive bound {witness_entry['bound']} via {witness_entry['provenance']}")
    else:
        print(f"d = {d}: no constructive witness available")
    for t in table:
        tag = "constructive" if t["constructive"] else "recorded"
        print(f"  {t['bound']:>6}  {tag:<12} {t['rule']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def cmd_optimize(args) -> int:
    from . import io
    from .qdesigns import optimize_design

    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    best = None
    rows = []
    for seed in range(args.seeds):
        res = optimize_design(args.d, args.n, seed=seed, iters=args.iters)
        rows.extend((seed, i, p) for i, p in enumerate(res.trace))
        if best is None or res.gap < best.gap:
            best = res
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "iteration", "potential"])
            w.writerows(rows)
    if args.out:
        io.save_design(args.out, best.ensemble)
        print(f"wrote {args.out}")
    print(
        f"best of {args.seeds} seed(s): seed {best.seed}, potential {best.potential:.15g}, "
        f"bound {best.bound:.15g}, gap {best.gap:.3e}, "
        f"{'converged' if best.converged else 'not converged'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    import numpy as np

    from . import io
    from .cdesigns import CEnsemble
    from .ffdesigns import DifferenceSet, FFEnsemble

    ens = io.load_design(args.file)
    if args.format == "json":
        io.save_design(args.out, ens)
        print(f"wrote {args.out}")
        return EXIT_OK
    # CSV: one row per vector, its real coordinates in the design file's layout
    if isinstance(ens, DifferenceSet):
        header, rows = ["element"], [[e] for e in ens.elements]
    else:
        n, d = ens.n, ens.d
        if isinstance(ens, FFEnsemble):
            names = [f"e{i}_c{j}" for i in range(d) for j in range(ens.ctx.deg)]
            coords = ens.data.reshape(n, len(names))
        elif isinstance(ens, CEnsemble):
            vectors = np.stack([ens.vectors.real, ens.vectors.imag], axis=-1).reshape(n, 2 * d)
            names = ["weight"] + [f"{part}{i}" for i in range(d) for part in ("re", "im")]
            coords = np.column_stack([ens.weights, vectors])
        else:
            names = [f"e{i}_{c}" for i in range(d) for c in "wxyz"]
            coords = ens.vectors.reshape(n, len(names))
        header = ["index"] + names
        rows = [[idx] + row for idx, row in enumerate(coords.tolist())]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designforge",
        description="Construct, verify, and export projective 2-designs "
        "over finite fields, the complex numbers, and the quaternions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a catalog design and write it to a file")
    c.add_argument("kind", choices=list(_CONSTRUCT))
    c.add_argument("--p", type=int, help="field characteristic (gabor, harmonic)")
    c.add_argument("--k", type=int, help="base extension degree (gabor, harmonic)")
    c.add_argument("--r", type=int, help="difference-set order (gabor, singer, harmonic)")
    c.add_argument("--d", type=int, help="dimension (mub, sic)")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="verify claims about a design file")
    v.add_argument("file")
    v.add_argument("--claims", required=True, help="comma-separated claim list")
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--cert", help="certificate output path (default: <file>.cert.json)")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("search", help="enumerate Gabor parameter triples")
    s.add_argument("--p-max", type=int, default=30, dest="p_max")
    s.add_argument("--k-max", type=int, default=600, dest="k_max")
    s.add_argument("--r-max", type=int, default=71, dest="r_max")
    s.add_argument("--csv", help="write CSV here instead of printing")
    s.set_defaults(fn=cmd_search)

    e = sub.add_parser("ebr", help="entanglement breaking rank bounds for depolarizing noise")
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--witness", help="complex design file to use as the constructive witness")
    e.add_argument("--tol", type=float, default=1e-9)
    e.add_argument("--out", help="write the ebr certificate JSON here")
    e.set_defaults(fn=cmd_ebr)

    o = sub.add_parser("optimize", help="search for quaternionic designs by gradient descent")
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--seeds", type=int, default=1)
    o.add_argument("--iters", type=int, default=2000)
    o.add_argument("--out", help="write the best ensemble here")
    o.add_argument("--trace", help="write the potential trace CSV here")
    o.set_defaults(fn=cmd_optimize)

    x = sub.add_parser("export", help="re-emit a design file as CSV or canonical JSON")
    x.add_argument("file")
    x.add_argument("--format", choices=["csv", "json"], default="csv")
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        from . import io
        from .cdesigns import CDesignError, NotADesign
        from .ffcore import FactorizationBudgetExceeded, FieldError, SizeBudgetExceeded
        from .fflinalg import BudgetExceeded, LinalgError
        from .ffdesigns import DesignError
        from .qdesigns import QDesignError

        if isinstance(exc, (BudgetExceeded, SizeBudgetExceeded, FactorizationBudgetExceeded)):
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        if isinstance(exc, NotADesign):
            print(f"claim failed: {exc}", file=sys.stderr)
            return EXIT_CLAIM
        if isinstance(
            exc,
            (io.IoError, FieldError, LinalgError, DesignError, CDesignError, QDesignError, ValueError),
        ):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        raise


if __name__ == "__main__":
    sys.exit(main())
