#!/usr/bin/env python3
"""Compare a parent revision with the working tree on the perfbench workloads.

Run from the repository root:

    python3 tools/bench_pairs.py --label pr6 --parent HEAD --seeds 91-100 \\
        --what "one-line description of the change"

The command, the run length and the workload names come from
BENCHMARK.json.  For each seed (one pair per seed) and each workload, the
benchmark command runs once with --trace 0 on each side: the parent, a
`git archive` export of --parent, and the change, a copy of the working
tree's files that git does not ignore.  The two sit in sibling directories
`parent` and `change` of one temporary directory, because peak RSS depends
on the length of the tree's path by more than 0.1 MB.  The side that goes
first alternates (the parent on even pairs).  Before every run the side's
__pycache__ directories are deleted and `python -m compileall -q` compiles
the side afresh (it writes bytecode even under PYTHONDONTWRITEBYTECODE=1),
so that both sides import the same kind of bytecode and no run pays for
compiling: with cached bytecode on one side only, peak RSS differs by up
to 0.6 MB, and what the compiler leaves in the heap moves it with the
length of the source text.
Each run's end-to-end metrics are read from the last line of its stdout.
The result goes to BENCH_<label>.json: per side and metric the median and
quartiles of the runs, how many pairs the change was lower in, and the
attempted and failed checks.  With --traced SEED each side also makes one
--trace 1 run per workload, and its per-layer metrics are stored as they are.

Standard library only; nothing under perfbench/ is written to except its
ignored out/ and __pycache__/ directories on each side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def export_rev(rev: str, dest: Path) -> None:
    """Write the committed files of `rev` to `dest` (no git metadata)."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files to `dest`."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def recompile(tree: Path) -> None:
    """Delete the tree's bytecode and compile every source in it afresh."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "."], cwd=tree, check=True)


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns its final JSON line plus the machine line."""
    recompile(tree)
    cmd = [
        *BENCH["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine "):
            result["machine"] = json.loads(line[len("machine "):])
    return result


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0], None, runs[0])
    return {
        "median": round(statistics.median(runs), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "runs": [round(r, 4) for r in sorted(runs)],
    }


def compare(parent: list, change: list) -> dict:
    """Median, quartiles and pair count lower for every end-to-end metric."""
    sides = (("change", change), ("parent", parent))
    out = {
        "attempted": {s: sum(r["attempted"] for r in runs) for s, runs in sides},
        "failed": {s: sum(r["failed"] for r in runs) for s, runs in sides},
    }
    for metric in sorted(parent[0]["metrics"]):
        p = [r["metrics"][metric]["value"] for r in parent]
        c = [r["metrics"][metric]["value"] for r in change]
        lower = sum(cv < pv for pv, cv in zip(p, c))
        ties = sum(cv == pv for pv, cv in zip(p, c))
        out[metric] = {
            "change": summary(c),
            "change_lower": f"{lower}/{len(p)} ties {ties}",
            "parent": summary(p),
        }
    return out


def cpu_description() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        kb = int(Path("/proc/meminfo").read_text().split()[1])
        memory = f", {round(kb / 2**20)} GB"
    except (OSError, ValueError, IndexError):
        memory = ""
    return f"{model}, {os.cpu_count()} CPU{memory}"


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seeds", default="91-100", help="one pair per seed: 'a-b' or 'a,b,c'")
    ap.add_argument("--traced", type=int, default=None, help="seed of one --trace 1 run per side")
    ap.add_argument("--what", default="", help="what the change is, for the file")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        export_rev(args.parent, sides["parent"])
        export_worktree(sides["change"])
        runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
        machine = {}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in WORKLOADS:
                for side in order:
                    result = run_once(sides[side], w, seed, 0)
                    machine = result.pop("machine", machine)
                    runs[w][side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"pair {i + 1}/{len(seeds)} seed {seed} {w} {side}: wall_s {wall:.4f}"
                          f" failed {result['failed']}", flush=True)
        machine.pop("blas_gflops", None)
        machine["cpu"] = cpu_description()
        doc = {
            "command": " ".join(BENCH["command"])
            + f" --workload <w> --seed <s> --seconds {BENCH['run_seconds']:g} --trace 0",
            "machine": dict(sorted(machine.items())),
            "untraced": {
                "note": "each value is the run's median over its closed-loop operations",
                "order": "alternating, parent first on even pairs",
                "pairs": len(seeds),
                "seeds": seeds,
                "workloads": {
                    w: compare(runs[w]["parent"], runs[w]["change"]) for w in sorted(WORKLOADS)
                },
            },
            "what": args.what,
        }
        if args.traced is not None:
            traced = {}
            for w in sorted(WORKLOADS):
                traced[w] = {}
                for side in ("change", "parent"):
                    result = run_once(sides[side], w, args.traced, 1)
                    traced[w][side] = {k: v["value"] for k, v in sorted(result["metrics"].items())}
                    print(f"traced {w} {side} done", flush=True)
            doc["traced"] = {
                "note": "one --trace 1 run per side", "seed": args.traced, "workloads": traced,
            }
        out = ROOT / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
