"""Self-test of the benchmark on d=3, n=2 (well under a second of verification).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import worker
from tracer import ROOT as ROOT_SPAN, Tracer

sys.path.insert(0, str(run.ROOT / "src"))

from gorlin import differentials, export, invsys, verify  # noqa: E402

D, N = 3, 2


def _bindings() -> dict:
    """Every name bound in a gorlin module or class namespace, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gorlin" or name.startswith("gorlin.")):
            continue
        for key, value in list(vars(mod).items()):
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    out[(name, key, attr)] = id(member)
    return out


def _verify(phi):
    res = differentials.build_resolution(phi, "selfdual")
    report = verify.run_checks(res, phi)
    return res, report, export.resolution_json(res)


def test_closed_form_betti():
    assert worker.closed_form_betti(3, 2) == (1, 5, 5, 1)
    assert worker.closed_form_betti(5, 2) == (1, 14, 35, 35, 14, 1)
    assert worker.closed_form_betti(4, 3) == (1, 16, 30, 16, 1)
    assert worker.closed_form_betti(4, 4) == (1, 25, 48, 25, 1)


def test_gate_accepts_the_answer_and_rejects_a_wrong_pin():
    phi = invsys.random_invsys(D, N, 1)
    res, report, text = _verify(phi)
    sha = hashlib.sha256(text.encode()).hexdigest()
    key = worker.pin_key(D, N, 1)
    assert worker.gate(res, report, text, {key: sha}, D, N, 1) is None
    assert worker.gate(res, report, text, {}, D, N, 1) is None
    assert "pinned" in worker.gate(res, report, text, {key: "0" * 64}, D, N, 1)
    report.results[0].passed = False
    assert "verdicts" in worker.gate(res, report, text, {key: sha}, D, N, 1)


def test_spans_nest_and_wrappers_are_restored():
    before = _bindings()
    lru = vars(sys.modules["gorlin.exactness"])["strand_certificate"]
    lru.cache_clear()  # earlier tests in this process may have filled it
    phis = [invsys.random_invsys(D, N, seed) for seed in (1, 2)]
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.strand_certificate is not lru  # the name verify looks up is wrapped too
        for k, phi in enumerate(phis):
            tracer.run_instance(k, lambda: _verify(phi))
    finally:
        tracer.restore()
    assert _bindings() == before
    assert hasattr(lru, "cache_info")

    spans = tracer.spans
    assert [s[0] for s in spans if s[3] < 0] == [ROOT_SPAN, ROOT_SPAN]
    for k, (name, start, end, parent, inst) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert parent < k and p[1] <= start and end <= p[2] and p[4] == inst
    assert all(t >= -1e-9 for t in tracer.self_times())
    summary = tracer.summary(warm_instances={1})
    names = set(summary["spans"])
    assert {"exactness.rank_mod_p", "polymatrix.mul", "linalg.rref", "invsys.hf_value",
            "verify.check_exactness", "export.resolution_json"} <= names
    # the second instance reuses the first one's strand certificate
    first, second = summary["per_instance"]["0"], summary["per_instance"]["1"]
    assert first["strand_certificate.cache_misses"] >= 1
    assert second.get("strand_certificate.cache_misses", 0) == 0
    assert summary["counters"]["rank_mod_p.warm_calls"] == second.get("exactness.rank_mod_p", 0)


def test_counts_repeat_across_fresh_processes():
    spec = {"d": D, "n": N, "seeds": [1, 2], "trace": 1, "setup_only": False}
    runs = [run.launch(spec, time.monotonic() + 60) for _ in range(2)]
    for r in runs:
        assert all(rec["failure"] is None for rec in r["instances"])
    assert runs[0]["trace"]["per_instance"] == runs[1]["trace"]["per_instance"]
    assert runs[0]["trace"]["counters"] == runs[1]["trace"]["counters"]
    assert {k: v["calls"] for k, v in runs[0]["trace"]["spans"].items()} == \
        {k: v["calls"] for k, v in runs[1]["trace"]["spans"].items()}


def test_benchmark_json_names_the_metrics_run_prints():
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
