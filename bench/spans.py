"""Spans and counters around the library's public entry points.

Only the traced run installs these wrappers.  A wrapper replaces a function
in every `markovtraj` module that bound it (so `from .kernel import
comp_kernel` in another module is caught too), or a method on its class.
Each call opens a span whose parent is the innermost open span; when it
closes, its duration is added to its name's totals and to its parent's
child time, so self time is the span minus its children.  Spans are folded
into these totals as they close rather than kept, which bounds memory on
runs with millions of calls.  Inclusive time counts only the outermost
open span of a name, so recursion (partial_traj) is not counted twice.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# check-id prefix -> verify family reported as verify.<family>.s
VERIFY_FAMILIES = {
    "kernel-comp": "kernel-comp",
    "restrict": "restrict",
    "tower": "tower",
    "content-depth": "content",
    "content-additive": "content",
    "witness-member": "witness",
    "condexp": "condexp",
    "split": "split",
    "product-form": "product-form",
    "product-law": "product-law",
    "product-split": "product-split",
    "product-proj": "product-proj",
}

# trajectory query functions timed as trajectory.<name>.s
QUERIES = ("cylinder_from_constraints", "cylinder_content", "extract_witness",
           "cond_exp", "sample_trajectory")


class Tracer:
    def __init__(self):
        self._stack: list = []
        self._open: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._undo: list = []
        self._verify_mark = 0.0

    # ---- wrappers ----

    def span(self, name: str, fn):
        stack, open_, calls = self._stack, self._open, self.calls
        inclusive, self_time = self.inclusive, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
                if not open_[name]:
                    inclusive[name] += elapsed

        return wrapper

    def _patch_function(self, module: str, attr: str, make):
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "markovtraj" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        import markovtraj.cli  # noqa: F401  (binds every module)
        from markovtraj.measure import Dist
        from markovtraj.report import Report
        from markovtraj.trajectory import ChainModel

        counts = self.counts
        span = self.span

        def timed(module, attr, name):
            self._patch_function(module, attr, lambda fn: span(name, fn))

        timed("markovtraj.cli", "main", "cli.main")
        timed("markovtraj.model_io", "load_model", "model_io.load_model")
        for attr in QUERIES:
            timed("markovtraj.trajectory", attr, f"trajectory.{attr}")
        timed("markovtraj.kernel", "map_kernel", "kernel.map_kernel")
        timed("markovtraj.kernel", "prod_kernel", "kernel.prod_kernel")
        timed("markovtraj.measure", "product_dist", "measure.product_dist")
        timed("markovtraj.report", "canonical_kernel", "report.canonical_kernel")
        timed("markovtraj.product", "product_prefix_dist", "product.product_prefix_dist")

        def comp_kernel(fn):
            def counted(first, second):
                kern = fn(first, second)
                counts["kernel.comp_kernel.rows"] += len(kern.rows)
                return kern
            return span("kernel.comp_kernel", functools.wraps(fn)(counted))

        self._patch_function("markovtraj.kernel", "comp_kernel", comp_kernel)

        def memo_span(name, memo_attr, key):
            def make(fn):
                def counted(model, *args):
                    if key(*args) not in getattr(model, memo_attr):
                        counts[f"{name}.built"] += 1
                    return fn(model, *args)
                return span(name, functools.wraps(fn)(counted))
            return make

        self._patch_method(ChainModel, "partial_traj",
                           memo_span("trajectory.partial_traj", "_partial", lambda a, b: (a, b)))
        self._patch_method(ChainModel, "advance_kernel",
                           memo_span("trajectory.advance_kernel", "_advance", lambda d: d))

        def note_dist(dist):
            counts["measure.dist.built"] += 1
            counts["measure.dist.dense_slots"] += dist.space.size
            counts["measure.dist.support_entries"] += len(dist.support())

        def dist_init(fn):
            @functools.wraps(fn)
            def init(dist, *args, **kwargs):
                fn(dist, *args, **kwargs)
                note_dist(dist)
            return init

        def dist_from_support(method):
            fn = method.__func__

            @functools.wraps(fn)
            def build(cls, *args, **kwargs):
                dist = fn(cls, *args, **kwargs)
                note_dist(dist)
                return dist
            return classmethod(build)

        self._patch_method(Dist, "__init__", dist_init)
        self._patch_method(Dist, "from_support", dist_from_support)
        self._patch_method(Dist, "sample", lambda fn: span("measure.sample", fn))

        def fingerprint(fn):
            @functools.wraps(fn)
            def counted(text):
                counts["report.canonical_chars"] += len(text)
                return fn(text)
            return counted

        self._patch_function("markovtraj.report", "fingerprint", fingerprint)

        def run_verify(fn):
            @functools.wraps(fn)
            def marked(loaded):
                self._verify_mark = perf_counter()
                return fn(loaded)
            return span("verify.run_verify", marked)

        self._patch_function("markovtraj.verify", "run_verify", run_verify)

        def report_add(fn):
            # The work between two adds produced the check added second.
            @functools.wraps(fn)
            def charged(report, check_id, *args, **kwargs):
                now = perf_counter()
                prefix = check_id.split(":")[0]
                family = VERIFY_FAMILIES.get(prefix, prefix)
                self.inclusive[f"verify.{family}"] += now - self._verify_mark
                self._verify_mark = now
                return fn(report, check_id, *args, **kwargs)
            return charged

        self._patch_method(Report, "add", report_add)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # ---- results ----

    def layer_metrics(self, ops: int) -> dict:
        """Per-op means of the traced phase, keyed by metric name."""
        inc, own, calls, counts = self.inclusive, self.self_time, self.calls, self.counts
        slots = counts["measure.dist.dense_slots"]
        entries = counts["measure.dist.support_entries"]
        per_op = {
            "cli.main.self_s": own["cli.main"],
            "model_io.load_model.calls": calls["model_io.load_model"],
            "model_io.load_model.s": inc["model_io.load_model"],
            "trajectory.partial_traj.calls": calls["trajectory.partial_traj"],
            "trajectory.partial_traj.built": counts["trajectory.partial_traj.built"],
            "trajectory.partial_traj.self_s": own["trajectory.partial_traj"],
            "trajectory.advance_kernel.built": counts["trajectory.advance_kernel.built"],
            "trajectory.advance_kernel.s": inc["trajectory.advance_kernel"],
            "kernel.comp_kernel.calls": calls["kernel.comp_kernel"],
            "kernel.comp_kernel.self_s": own["kernel.comp_kernel"],
            "kernel.comp_kernel.rows": counts["kernel.comp_kernel.rows"],
            "kernel.map_kernel.s": inc["kernel.map_kernel"],
            "kernel.prod_kernel.s": inc["kernel.prod_kernel"],
            "measure.dist.built": counts["measure.dist.built"],
            "measure.dist.dense_slots": slots,
            "measure.dist.support_entries": entries,
            "measure.product_dist.s": inc["measure.product_dist"],
            "measure.sample.calls": calls["measure.sample"],
            "measure.sample.s": inc["measure.sample"],
            "report.canonical_kernel.calls": calls["report.canonical_kernel"],
            "report.canonical_kernel.s": inc["report.canonical_kernel"],
            "report.canonical_chars": counts["report.canonical_chars"],
            "verify.run_verify.s": inc["verify.run_verify"],
            "product.product_prefix_dist.s": inc["product.product_prefix_dist"],
        }
        for attr in QUERIES:
            per_op[f"trajectory.{attr}.s"] = inc[f"trajectory.{attr}"]
        for family in sorted(set(VERIFY_FAMILIES.values())):
            per_op[f"verify.{family}.s"] = inc[f"verify.{family}"]
        metrics = {name: value / ops for name, value in per_op.items()}
        metrics["measure.dist.support_ratio"] = entries / slots if slots else 0.0
        return metrics
