"""Spans and counters around gorlin's layer boundaries, installed from outside.

The tracer replaces selected functions and methods with timing wrappers
without editing the package.  Several layers are imported by name into other
modules (``verify`` binds ``certify_exactness``, ``hf_value`` and others), so a
function wrapper is installed under every name, in every ``gorlin`` module,
that is bound to the original object.  ``restore`` puts every original back.

A span is ``[name, start, end, parent, instance]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 for a
root), ``instance`` the id of the instance being verified.  Spans stay in
memory until ``summary`` is called.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("gorlin.exactness", "rank_mod_p", "exactness.rank_mod_p"),
    ("gorlin.exactness", "graded_piece", "exactness.graded_piece"),
    ("gorlin.exactness", "strand_certificate", "exactness.strand_certificate"),
    ("gorlin.exactness", "certify_exactness", "exactness.certify_exactness"),
    ("gorlin.exactness", "ideal_dims", "exactness.ideal_dims"),
    ("gorlin.exactness", "skeleton_block_failure", "exactness.skeleton_block_failure"),
    ("gorlin.exactness", "Piece.rank_exact", "exactness.rank_exact"),
    ("gorlin.polymatrix", "PolyMatrix.mul", "polymatrix.mul"),
    ("gorlin.polymatrix", "PolyMatrix.mod_x1", "polymatrix.mod_x1"),
    ("gorlin.invsys", "hf_value", "invsys.hf_value"),
    ("gorlin.invsys", "hilbert_function", "invsys.hilbert_function"),
    ("gorlin.invsys", "ann_degree", "invsys.ann_degree"),
    ("gorlin.invsys", "delta_and_Q", "invsys.delta_and_Q"),
    ("gorlin.differentials", "build_resolution", "differentials.build_resolution"),
    ("gorlin.differentials", "canonical_skeleton", "differentials.canonical_skeleton"),
    ("gorlin.hookbasis", "skeleton_kos_blocks", "hookbasis.skeleton_kos_blocks"),
    ("gorlin.verify", "check_complex", "verify.check_complex"),
    ("gorlin.verify", "check_betti_and_degrees", "verify.check_betti"),
    ("gorlin.verify", "check_euler_hilbert", "verify.check_euler"),
    ("gorlin.verify", "check_ann_match", "verify.check_ann"),
    ("gorlin.verify", "check_skeleton", "verify.check_skeleton"),
    ("gorlin.verify", "check_duality", "verify.check_duality"),
    ("gorlin.verify", "check_exactness_up_to", "verify.check_exactness"),
    ("gorlin.verify", "check_wlp", "verify.check_wlp"),
    ("gorlin.export", "resolution_json", "export.resolution_json"),
)
# every public function of this module is a span as well
ALL_PUBLIC = "gorlin.linalg"

ROOT = "instance"


def _gorlin_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "gorlin" or k.startswith("gorlin."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        # (instance, counter name) -> value
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.dense_bytes_max = 0
        self._undo: list[tuple[object, str, object]] = []
        self._first_prime = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def run_instance(self, instance: int, fn):
        """Call fn() inside a root span for one instance."""
        self.instance = instance
        idx = self._enter(ROOT)
        try:
            return fn()
        finally:
            self._exit(idx)

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[(self.instance, name)] += value

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def _hook_exactness_rank_mod_p(self, fn, args, kwargs):
        nrows, ncols, triples, p = args
        dense = nrows * ncols
        self._count("rank_mod_p.nnz", len(triples))
        self._count("rank_mod_p.dense_entries", dense)
        self._count("rank_mod_p.retries", p != self._first_prime)
        self.dense_bytes_max = max(self.dense_bytes_max, 8 * dense)
        return fn(*args, **kwargs)

    def _hook_exactness_strand_certificate(self, fn, args, kwargs):
        before = fn.cache_info()
        try:
            return fn(*args, **kwargs)
        finally:
            after = fn.cache_info()
            self._count("strand_certificate.cache_hits", after.hits - before.hits)
            self._count("strand_certificate.cache_misses", after.misses - before.misses)

    def _hook_export_resolution_json(self, fn, args, kwargs):
        text = fn(*args, **kwargs)
        self._count("resolution_json.bytes", len(text.encode()))
        return text

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target under every name that binds it."""
        mods = {m.__name__: m for m in _gorlin_modules()}
        self._first_prime = mods["gorlin.exactness"].PRIMES[0]
        targets = list(TARGETS)
        for attr, obj in vars(mods[ALL_PUBLIC]).items():
            if (callable(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == ALL_PUBLIC):
                targets.append((ALL_PUBLIC, attr, f"linalg.{attr}"))
        try:
            for modname, attr, name in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[modname], cls_name)
                    self._bind(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(mods[modname], attr)
                wrapper = self._wrap(name, orig)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._bind(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self, warm_instances) -> dict:
        """Totals per span name and counter, plus per-instance call counts.

        warm_instances: ids of instances that ran after another instance in
        the same process, i.e. with warm package caches.
        """
        selfs = self.self_times()
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        per_instance: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for (name, start, end, _, inst), self_s in zip(self.spans, selfs):
            agg = by_name[name]
            agg["calls"] += 1
            agg["incl_s"] += end - start  # no traced function calls itself
            agg["self_s"] += self_s
            per_instance[inst][name] += 1
        counters: dict[str, int] = defaultdict(int)
        for (inst, cname), v in self.counters.items():
            counters[cname] += v
            per_instance[inst][cname] += v
        counters["rank_mod_p.warm_calls"] = sum(
            c.get("exactness.rank_mod_p", 0) for i, c in per_instance.items() if i in warm_instances)
        counters["rank_mod_p.dense_bytes_max"] = self.dense_bytes_max
        return {
            "spans": dict(by_name),
            "counters": dict(counters),
            "per_instance": {str(i): dict(c) for i, c in per_instance.items()},
        }
