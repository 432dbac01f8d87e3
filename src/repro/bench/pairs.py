"""Alternating benchmark pairs of a change against its parent.

Host time on a shared machine drifts between runs and between
sessions, so a change is compared with its parent in *pairs*: both
trees run the same workload and seed back to back, and the side that
runs first alternates from pair to pair. This module runs
``perfbench/run.py`` in two trees that way and writes the comparison
as ``BENCH_<pr>.json``.

Usage (from the repository root)::

    python -m repro.bench.pairs --pr N --parent REV
    python -m repro.bench.pairs --pr N --parent REV --pairs 4 \\
        --seconds 3 --workload invoke-planes --out bench.json

The parent tree is built with ``git archive``; the change is the
working tree. Each
workload runs ``--pairs`` pairs on seeds 1..N, the parent first on odd
seeds. Per end-to-end metric of ``BENCHMARK.json`` the report gives
both sides' median and quartiles and a verdict (:func:`verdict`). It
also checks per seed that the simulated metrics and the outcome digest
are identical, and counts Python calls per request in each tree with
that tree's own ``tests/bench/test_call_budget.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Metrics that a seed determines exactly: equal in both trees unless
#: the change moves simulated behaviour.
EXACT = ("events_per_req", "sim_p50_ms", "sim_p99_ms", "goodput_rps",
         "ok_frac")

SIDES = ("parent", "change")

#: Share of pairs the change must win for a "better" verdict.
WIN_SHARE = 0.9

BETTER = "better (>=9/10 pairs, beyond parent IQR)"
IDENTICAL = "identical in every pair"
UNRESOLVED = "unresolved (parent IQR exceeds the bound)"
WITHIN = "within bound"
WORSE = "worse than bound"


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and inclusive quartiles of one side's runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "iqr": round(q3 - q1, 6), "n": len(values)}


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, Any]:
    """Compare one metric over pairs (``parent[i]`` with ``change[i]``).

    In order: every pair equal is *identical*; a parent IQR wider than
    ``bound`` times the parent median cannot resolve the bound, so the
    metric is *unresolved*, unless every change run reads better than
    every parent run; a median worse than the parent's by more than
    ``bound`` (relative) is *worse*; a change that wins at least nine
    pairs in ten (ties count for neither side) with medians further
    apart than the parent IQR is *better*; anything else is *within
    bound*.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = -1.0 if better == "lower" else 1.0
    p, c = summary(parent), summary(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    ties = sum(1 for a, b in zip(parent, change) if a == b)
    relative = (c["median"] - p["median"]) / p["median"] \
        if p["median"] else 0.0
    every_run_better = max(change) < min(parent) if better == "lower" \
        else min(change) > max(parent)
    if ties == len(parent):
        word = IDENTICAL
    elif p["iqr"] > bound * abs(p["median"]) and not every_run_better:
        word = UNRESOLVED
    elif -sign * relative > bound:
        word = WORSE
    elif wins >= WIN_SHARE * len(parent) and sign * relative > 0 \
            and abs(c["median"] - p["median"]) > p["iqr"]:
        word = BETTER
    else:
        word = WITHIN
    return {"parent": p, "change": c, "relative_change": round(relative, 6),
            "change_better_pairs": wins, "tied_pairs": ties,
            "verdict": word}


def run_once(tree: str, workload: str, seed: int,
             seconds: float) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run in ``tree``: its metric values,
    digest and whether every output check passed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    digest = next((line.split()[1] for line in lines
                   if line.startswith("digest ")), None)
    return {"ok": proc.returncode == 0 and bool(result.get("correct")),
            "digest": digest,
            "metrics": {name: m["value"]
                        for name, m in result.get("metrics", {}).items()}}


def calls_per_request(tree: str, workload: str) -> Optional[float]:
    """Python calls per request of ``workload`` in ``tree``, counted by
    that tree's own call-budget test run as a script (None when the
    tree has no such test)."""
    script = os.path.join(tree, "tests", "bench", "test_call_budget.py")
    if not os.path.isfile(script):
        return None
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, script, workload], cwd=tree,
                         env=env, capture_output=True, text=True)
    try:
        return round(float(out.stdout.strip().splitlines()[-1]), 4)
    except (IndexError, ValueError):
        return None


def archive(repo: str, rev: str, dest: str) -> str:
    """Extract the committed tree of ``rev`` into ``dest``."""
    blob = subprocess.run(["git", "-C", repo, "archive", "--format=tar",
                           rev], capture_output=True, check=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=blob, check=True)
    return dest


def compare_workload(pairs: Sequence[Tuple[Dict, Dict]],
                     metrics: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Verdicts per end-to-end metric from ``(parent, change)`` runs of
    one workload."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "bound": spec["bound"],
                     **verdict([a["metrics"][name] for a, _ in pairs],
                               [b["metrics"][name] for _, b in pairs],
                               spec["better"], spec["bound"])}
    return out


def deterministic(pairs: Sequence[Tuple[Dict, Dict]],
                  seeds: Sequence[int]) -> Dict[str, Any]:
    """Per-seed equality of the exact metrics and of the digest."""
    doc: Dict[str, Any] = {
        name: all(a["metrics"][name] == b["metrics"][name]
                  for a, b in pairs) for name in EXACT}
    doc["digest"] = all(a["digest"] == b["digest"] for a, b in pairs)
    doc["retained_bytes_per_seed_diff"] = [
        round(b["metrics"]["retained_bytes_per_req"]
              - a["metrics"]["retained_bytes_per_req"], 4)
        for a, b in pairs]
    doc["seeds"] = list(seeds)
    return doc


def planes_over_bare(planes: Dict[str, float],
                     bare: Dict[str, float]) -> Tuple[Dict, Dict]:
    """Per side, invoke-planes over invoke-warm and their difference."""
    return ({side: round(planes[side] / bare[side], 4) for side in SIDES},
            {side: round(planes[side] - bare[side], 2) for side in SIDES})


def measure(trees: Dict[str, str], workloads: Sequence[str],
            metrics: List[Dict[str, Any]], pairs: int,
            seconds: float) -> Dict[str, Any]:
    """Run every pair and fold the runs into the report's sections.

    A failed run is listed in ``failed_runs`` and its pair left out of
    the comparison.
    """
    report: Dict[str, Any] = {"workloads": {}, "failed_runs": [],
                              "deterministic_per_seed": {}}
    for workload in workloads:
        done, seeds = [], []
        for seed in range(1, pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            runs = {side: run_once(trees[side], workload, seed, seconds)
                    for side in order}
            shown = {side: runs[side]["metrics"].get("host_us_per_req")
                     for side in order}
            print(f"{workload} seed {seed}: host_us_per_req {shown}",
                  file=sys.stderr)
            failed = [side for side in order if not runs[side]["ok"]]
            for side in failed:
                report["failed_runs"].append(
                    {"side": side, "workload": workload, "seed": seed})
            if not failed:
                done.append((runs["parent"], runs["change"]))
                seeds.append(seed)
        if done:
            report["workloads"][workload] = compare_workload(done, metrics)
            report["deterministic_per_seed"][workload] = deterministic(
                done, seeds)
    calls = {side: {w: calls_per_request(trees[side], w)
                    for w in workloads} for side in SIDES}
    report["calls_per_req"] = {
        "note": "exact Python calls per request: seed 1, part 0 of each "
                "workload under sys.setprofile, counted by each tree's "
                "own tests/bench/test_call_budget.py (frames under "
                "src/repro, comprehension frames left out)",
        "repro_only": calls}
    planes = {side: calls[side].get("invoke-planes") for side in SIDES}
    bare = {side: calls[side].get("invoke-warm") for side in SIDES}
    if None not in planes.values() and None not in bare.values():
        over, minus = planes_over_bare(planes, bare)
        report["calls_per_req"].update(planes_over_bare=over,
                                       planes_minus_bare=minus)
    host = report["workloads"]
    if "invoke-planes" in host and "invoke-warm" in host:
        over, minus = planes_over_bare(*(
            {side: host[w]["host_us_per_req"][side]["median"]
             for side in SIDES} for w in ("invoke-planes", "invoke-warm")))
        report["invoke_planes_over_invoke_warm_host_us_per_req"] = over
        report["invoke_planes_minus_invoke_warm_host_us_per_req"] = minus
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point; exit status 1 when a run failed."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the change (names the output)")
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workload", action="append", default=None,
                        help="repeatable; default every workload")
    parser.add_argument("--note", default="",
                        help="one line on what the change does")
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC the change claims better")
    parser.add_argument("--out", default=None,
                        help="default: BENCH_<pr>.json in the repo")
    args = parser.parse_args(argv)
    repo = os.getcwd()
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in {
                m["name"] for m in bench["end_to_end"]}:
            parser.error(f"--claim {args.claim!r}: not a measured "
                         "WORKLOAD:METRIC")
        claim = {"workload": workload, "metric": metric}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {"parent": archive(repo, args.parent,
                                   os.path.join(scratch, "parent")),
                 "change": repo}
        report = measure(trees, workloads, bench["end_to_end"],
                         args.pairs, args.seconds)
    if claim is not None:
        measured = report["workloads"].get(claim["workload"])
        claim["verdict"] = measured[claim["metric"]]["verdict"] \
            if measured else "not measured (every pair failed)"
    doc = {
        "pr": args.pr,
        "change": args.note,
        "machine": f"{os.cpu_count()}-core host, Python "
                   f"{platform.python_version()}",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g}",
        "pairs": args.pairs,
        "seeds": list(range(1, args.pairs + 1)),
        "order": "alternating: parent first on odd seeds, change first "
                 "on even seeds",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over "
                     "each side's runs",
        **report,
        "claim": claim,
    }
    out = args.out or os.path.join(repo, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out}")
    return 1 if report["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
