"""One fresh benchmark process: import gorlin, generate inputs, verify instances.

Run by ``run.py`` as ``python3 bench/worker.py '<spec json>'``; prints one JSON
line.  The spec gives ``d``, ``n``, the instance ``seeds``, ``trace`` (0 or 1),
``setup_only`` and ``launched``, the ``CLOCK_MONOTONIC`` reading taken by the
parent just before it started this process (the clock is system-wide, so the
difference is the process's set-up time).

Each instance runs the pipeline of ``gorlin verify`` followed by the JSON
export, and must pass the correctness gate (``gate``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"

CHECKS = ("complex", "betti", "euler", "ann", "skeleton", "duality", "exactness", "wlp")
# every check passes on every admissible inverse system
EXPECTED_FLAGS = tuple((name, True) for name in CHECKS)


def closed_form_betti(d: int, n: int) -> tuple[int, ...]:
    """beta_i = (2n+d-2)/(n+i-1) C(n+d-2, i-1) C(n+d-i-2, n-1), beta_0 = beta_d = 1."""
    inner = [Fraction(2 * n + d - 2, n + i - 1) * comb(n + d - 2, i - 1) * comb(n + d - i - 2, n - 1)
             for i in range(1, d)]
    assert all(b.denominator == 1 for b in inner)
    return (1, *(int(b) for b in inner), 1)


def pin_key(d: int, n: int, seed: int) -> str:
    return f"{d}-{n}-{seed}"


def gate(res, report, export_text: str, pins: dict[str, str], d: int, n: int, seed: int):
    """None when the instance is correct, else the reason it is not."""
    flags = tuple((r.name, r.passed) for r in report.results)
    if flags != EXPECTED_FLAGS:
        return f"check verdicts {flags}"
    if tuple(res.betti) != closed_form_betti(d, n):
        return f"betti {res.betti} != closed form {closed_form_betti(d, n)}"
    want = pins.get(pin_key(d, n, seed))
    if want is not None and hashlib.sha256(export_text.encode()).hexdigest() != want:
        return "resolution_json differs from the pinned sha256"
    return None


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no mode="dicts"; the version stays unknown
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def run(spec: dict) -> dict:
    from gorlin import differentials, export, invsys, verify

    d, n = spec["d"], spec["n"]
    phis = [invsys.random_invsys(d, n, s) for s in spec["seeds"]]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["launched"]
    out = {"setup_s": setup_s, "instances": []}
    if spec["setup_only"]:
        return out
    pins = json.loads(PINS.read_text())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        for k, (seed, phi) in enumerate(zip(spec["seeds"], phis)):
            rec = {"seed": seed}

            def instance():
                t0 = time.perf_counter()
                res = differentials.build_resolution(phi, "selfdual")
                report = verify.run_checks(res, phi)
                t1 = time.perf_counter()
                text = export.resolution_json(res)
                t2 = time.perf_counter()
                rec.update(verify_s=t1 - t0, export_s=t2 - t1)
                rec["route"] = next((r.summary.split(" via ")[-1].split(";")[0]
                                     for r in report.results if r.name == "exactness"), "")
                rec["failure"] = gate(res, report, text, pins, d, n, seed)
                rec["pinned"] = pin_key(d, n, seed) in pins

            try:
                if tracer is None:
                    instance()
                else:
                    tracer.run_instance(k, instance)
            except Exception:
                rec["failure"] = "exception: " + traceback.format_exc(limit=3)
            out["instances"].append(rec)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        out["trace"] = tracer.summary(warm_instances=set(range(1, len(phis))))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["env"] = environment()
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    import gorlin

    # the package under test must be the checkout's source, never an installed copy
    if Path(gorlin.__file__).resolve().parent != ROOT / "src" / "gorlin":
        print(f"gorlin imported from {gorlin.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
