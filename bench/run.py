"""Benchmark of ``gorlin verify``, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each instance is one inverse system from
``random_invsys(d, n, seed)`` (coefficient bound 5, the CLI default) taken
through the pipeline ``gorlin verify`` runs, ``build_resolution(phi,
"selfdual")`` then ``run_checks`` (all 8 checks), followed by the
``resolution_json`` export.  Load is one closed-loop client: one instance at a
time, never two processes working at once.  The number of instances in a run
is ``round(S / nominal_s)`` of the workload (at least 1), so a run does a fixed
amount of work for a given ``--seconds``; instance ``k`` of run seed ``N``
uses seed ``1000 * N + k``.

Every instance must pass the correctness gate (``worker.gate``): all 8 checks
pass, the Betti numbers equal the closed formula, and for pinned seeds the
sha256 of the JSON export equals ``pins.json``.  Failures are reported as
``failed`` out of ``attempted``; ``fail_ratio`` is their quotient.

``--trace 0`` prints the end-to-end metrics:
  verify_s     median over instances of the time from holding phi to all 8
               verdicts (build + checks)
  wall_s       wall time of the timed phase: every instance, export included,
               from starting the first worker process to the last one's exit
  setup_s      median over the run's fresh processes of the time from process
               start until gorlin is imported and the inputs are generated
  peak_rss_mb  largest peak resident set of a worker process (10^6 bytes)

``--trace 1`` runs the same instances twice in fresh processes, untraced and
then traced (``tracer.py``), and prints per-layer metrics from the traced
pass: ``<layer>.<function>.s`` is inclusive time, ``layer.<module>.self_s`` the
self time of the module's spans (span time minus child spans), and
``trace.overhead_s`` the traced wall time minus the untraced one (``trace.spans``
is the number of spans that cost it).  Per-layer
figures are totals over the run's instances; both passes count as attempted.

Worker processes get one BLAS thread and ``PYTHONHASHSEED=0``.  The last line
of output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from worker import CHECKS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
DEADLINE_S = 170
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    d: int
    n: int
    fresh_per_instance: bool
    nominal_s: float  # seconds one instance took when the benchmark was written


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "cold-les-d5n2": Workload(5, 2, fresh_per_instance=True, nominal_s=5.3),
    "sweep-direct-d4n3": Workload(4, 3, fresh_per_instance=False, nominal_s=8.0),
    "sweep-rational-d4n4": Workload(4, 4, fresh_per_instance=False, nominal_s=5.0),
}

END_TO_END = (("verify_s", "s"), ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SPAN_TIMES = (
    "exactness.rank_mod_p", "exactness.strand_certificate", "exactness.certify_exactness",
    "exactness.graded_piece", "exactness.ideal_dims", "exactness.rank_exact",
    "linalg.rref", "linalg.rank", "linalg.det_and_adjugate", "polymatrix.mul",
    "invsys.hf_value", "invsys.ann_degree", "invsys.delta_and_Q",
    "differentials.build_resolution", "differentials.canonical_skeleton",
    "hookbasis.skeleton_kos_blocks",
    *(f"verify.check_{c}" for c in CHECKS),
    "export.resolution_json",
)
SPAN_CALLS = (
    "exactness.rank_mod_p", "exactness.skeleton_block_failure", "exactness.rank_exact",
    "linalg.rref", "linalg.rank", "polymatrix.mul", "polymatrix.mod_x1", "invsys.hf_value",
)
# counter -> (metric, unit, better)
COUNTERS = {
    "rank_mod_p.nnz": ("exactness.rank_mod_p.nnz", "count", "lower"),
    "rank_mod_p.retries": ("exactness.rank_mod_p.retries", "count", "lower"),
    "rank_mod_p.warm_calls": ("exactness.rank_mod_p.warm_calls", "count", "lower"),
    "strand_certificate.cache_hits": ("exactness.strand_certificate.cache_hits", "count", "higher"),
    "strand_certificate.cache_misses": ("exactness.strand_certificate.cache_misses", "count", "lower"),
    "resolution_json.bytes": ("export.resolution_json.bytes", "bytes", "lower"),
}
# per-instance counts printed by a traced run
COUNT_COLUMNS = ("exactness.rank_mod_p", "polymatrix.mul", "invsys.hf_value",
                 "exactness.skeleton_block_failure", "linalg.rref", "strand_certificate.cache_hits")
MODULES = ("exactness", "linalg", "polymatrix", "invsys", "differentials", "hookbasis",
           "verify", "export", "other")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(f"{s}.s", "s", "lower") for s in SPAN_TIMES]
    spec += [(f"{s}.calls", "count", "lower") for s in SPAN_CALLS]
    spec += list(COUNTERS.values())
    spec += [("exactness.rank_mod_p.dense_mb_max", "MB", "lower"),
             ("exactness.rank_mod_p.density", "fraction", "higher")]
    spec += [(f"layer.{m}.self_s", "s", "lower") for m in MODULES]
    spec += [("trace.spans", "count", "lower"), ("trace.overhead_s", "s", "lower")]
    return spec


def instance_seeds(w: Workload, run_seed: int, seconds: float) -> list[int]:
    count = max(1, round(seconds / w.nominal_s))
    return [1000 * run_seed + k for k in range(count)]


class WorkerError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    spec = dict(spec, launched=time.clock_gettime(time.CLOCK_MONOTONIC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left before the {DEADLINE_S} s deadline")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(w: Workload, seeds: list[int], trace: bool, deadline: float):
    """Verify every seed once; returns (wall seconds, worker results)."""
    base = {"d": w.d, "n": w.n, "trace": int(trace), "setup_only": False}
    groups = [[s] for s in seeds] if w.fresh_per_instance else [seeds]
    t0 = time.monotonic()
    results = [launch(dict(base, seeds=g), deadline) for g in groups]
    return time.monotonic() - t0, results


def setup_probes(w: Workload, seeds: list[int], deadline: float) -> list[float]:
    """Set-up time of fresh processes that import and generate, then exit."""
    group = seeds[:1] if w.fresh_per_instance else seeds
    spec = {"d": w.d, "n": w.n, "seeds": group, "trace": 0, "setup_only": True}
    return [launch(spec, deadline)["setup_s"] for _ in range(SETUP_PROBES)]


def merge_traces(results: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for r in results:
        tr = r["trace"]
        for name, agg in tr["spans"].items():
            cur = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in cur:
                cur[k] += agg[k]
        for name, v in tr["counters"].items():
            counters[name] = max(counters.get(name, 0), v) if name.endswith("_max") \
                else counters.get(name, 0) + v
    return {"spans": spans, "counters": counters}


def layer_metrics(trace: dict, overhead_s: float) -> dict[str, float]:
    spans, counters = trace["spans"], trace["counters"]
    out = {}
    for s in SPAN_TIMES:
        out[f"{s}.s"] = spans.get(s, {}).get("incl_s", 0.0)
    for s in SPAN_CALLS:
        out[f"{s}.calls"] = spans.get(s, {}).get("calls", 0)
    for cname, (metric, _, _) in COUNTERS.items():
        out[metric] = counters.get(cname, 0)
    out["exactness.rank_mod_p.dense_mb_max"] = counters.get("rank_mod_p.dense_bytes_max", 0) / 1e6
    dense = counters.get("rank_mod_p.dense_entries", 0)
    out["exactness.rank_mod_p.density"] = counters.get("rank_mod_p.nnz", 0) / dense if dense else 0.0
    for m in MODULES:
        out[f"layer.{m}.self_s"] = 0.0
    for name, agg in spans.items():
        module = name.split(".")[0]
        out[f"layer.{module if module in MODULES else 'other'}.self_s"] += agg["self_s"]
    out["trace.spans"] = sum(agg["calls"] for agg in spans.values())
    out["trace.overhead_s"] = overhead_s
    return out


def source_identity() -> dict[str, str]:
    commit = "unknown"
    if (ROOT / ".git").exists():  # a plain checkout has none; never look above ROOT
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gorlin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def print_instances(label: str, results: list[dict]) -> None:
    print(f"{label}: seed verify_s export_s route verdict")
    for r in results:
        for rec in r["instances"]:
            verdict = "ok" + (" (pinned)" if rec.get("pinned") else "") \
                if rec["failure"] is None else f"FAIL {rec['failure']}"
            print(f"  {rec['seed']} {rec.get('verify_s', float('nan')):.4f} "
                  f"{rec.get('export_s', float('nan')):.4f} {rec.get('route', '?')} {verdict}")


def print_layers(trace: dict) -> None:
    print("traced spans, by self time: name calls incl_s self_s")
    rows = sorted(trace["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, agg in rows:
        print(f"  {name:40s} {agg['calls']:7d} {agg['incl_s']:9.4f} {agg['self_s']:9.4f}")


def print_counts(results: list[dict]) -> None:
    print("traced counts per instance: seed " + " ".join(COUNT_COLUMNS))
    for r in results:
        for k, counts in sorted(r["trace"]["per_instance"].items(), key=lambda kv: int(kv[0])):
            seed = r["instances"][int(k)]["seed"]
            print(f"  {seed} " + " ".join(str(counts.get(c, 0)) for c in COUNT_COLUMNS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gorlin" / "__init__.py").is_file():
        print(f"error: no gorlin source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    seeds = instance_seeds(w, args.seed, args.seconds)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            wall_u, untraced = run_pass(w, seeds, False, deadline)
            wall_t, results = run_pass(w, seeds, True, deadline)
            runs = untraced + results
        else:
            setups = setup_probes(w, seeds, deadline)
            wall_s, results = run_pass(w, seeds, False, deadline)
            runs = results
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(results[0]["env"], nproc=os.cpu_count(),
               threads={v: "1" for v in THREAD_VARS}, **source_identity())
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: d={w.d} n={w.n}, {len(seeds)} instances, seeds {seeds}")
    instances = [rec for r in runs for rec in r["instances"]]
    failed = sum(rec["failure"] is not None for rec in instances)
    if args.trace:
        print_instances("untraced pass", untraced)
        print_instances("traced pass", results)
        trace = merge_traces(results)
        print_counts(results)
        print_layers(trace)
        metrics = layer_metrics(trace, wall_t - wall_u)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        print(f"tracing overhead: {wall_t - wall_u:+.4f} s on {wall_u:.4f} s untraced wall time")
    else:
        print_instances("instances", results)
        verify_times = [rec["verify_s"] for rec in instances if "verify_s" in rec]
        if not verify_times:
            print("error: no instance completed", file=sys.stderr)
            return 1
        metrics = {
            "verify_s": statistics.median(verify_times),
            "wall_s": wall_s,
            "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in results) * 1024 / 1e6,
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed}/{len(instances)} = {failed / len(instances):.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(instances),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
