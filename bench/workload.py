"""One workload in its own process; started by run.py, not by hand.

Prints one JSON object on its last stdout line: attempted and failed op
counts, the metric values by name, and extras for the human-readable
report.  run.py attaches the units that BENCHMARK.json declares.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from family import query_family, verify_family, write_model
from ops import cold_query_ops, session_ops, verify_ops
from oracle import Oracle
from spans import Tracer
from speed import SETUP_PROBE_S, SpeedProbe

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import markovtraj.cli; "
    "print(time.perf_counter() - t)"
)


def _import_library(root: Path):
    start = perf_counter()
    import markovtraj
    import markovtraj.cli
    elapsed = perf_counter() - start
    src = (root / "src").resolve()
    if src not in Path(markovtraj.__file__).resolve().parents:
        raise SystemExit(f"markovtraj was imported from {markovtraj.__file__}, not {src}")
    return markovtraj, elapsed


def _fresh_import_s() -> float:
    """Import time of the library in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def _process_s(argv: list) -> float:
    """Wall time of a whole child process."""
    start = perf_counter()
    subprocess.run(argv, capture_output=True, timeout=60, check=True)
    return perf_counter() - start


class Workload:
    """Builds its models and op list from the seed; `setup` may run repeatedly.

    A set-up that runs long may run the speed probe between its steps; the
    probe's own time is taken out of the set-up time.
    """

    setup_reps = 9
    # Each op stands for a fresh CLI process, so it starts from a collected
    # heap and pays only for the garbage collections it triggers itself.
    collect_between_ops = True

    def __init__(self, root: Path, workdir: Path, seed: int, lib):
        self.root, self.workdir, self.seed, self.lib = root, workdir, seed, lib

    def setup(self, probe: SpeedProbe) -> list:
        raise NotImplementedError

    def _write(self, family: list) -> list:
        """Write each model file: (name, doc, *rest) -> (name, path, oracle, *rest)."""
        return [(name, write_model(self.workdir, name, doc), Oracle(doc), *rest)
                for name, doc, *rest in family]


class ColdQuery(Workload):
    def setup(self, probe: SpeedProbe) -> list:
        rng = random.Random(self.seed)
        models = self._write(query_family(rng, self.root))
        ops = cold_query_ops(rng, self.lib.cli, models)
        rng.shuffle(ops)
        return ops


class Session(Workload):
    setup_reps = 3
    # A library session keeps its heap, and its collector state, across ops.
    collect_between_ops = False

    def setup(self, probe: SpeedProbe) -> list:
        rng = random.Random(self.seed)
        models = self._write(query_family(rng, self.root))
        chains = {name: self.lib.load_model(path).chain for name, path, _ in models}
        ops = session_ops(rng, self.lib, models, chains)
        rng.shuffle(ops)
        # The untimed first pass fills the partial_traj memo of every model.
        # An op that fails here fails again, and is counted, when timed.
        previous = 0.0
        for op in ops:
            probe.before_op(previous)
            start = perf_counter()
            try:
                op.call()
            except (Exception, SystemExit):
                pass
            previous = perf_counter() - start
        return ops


class Verify(Workload):
    def setup(self, probe: SpeedProbe) -> list:
        rng = random.Random(self.seed)
        ops = verify_ops(self.lib.cli, self._write(verify_family(rng, self.root)))
        rng.shuffle(ops)
        return ops


WORKLOADS = {"cold-query": ColdQuery, "session": Session, "verify": Verify}


# Labels of failed ops already reported on stderr, so each is named once.
_REPORTED: set = set()


def run_passes(ops: list, collect: bool, probe: SpeedProbe, min_seconds: float,
               min_ops: int = 0, passes: int = 0):
    """Whole passes over `ops`, one op at a time, each checked untimed.

    Stops after `passes` passes if given, else once both `min_seconds` of
    wall time and `min_ops` ops are reached.  Whole passes keep the op mix
    of every run identical, so percentiles do not drift with run length.
    With `collect`, a full garbage collection runs before each op, untimed.
    The speed probe runs just before each op and after the last.  Returns the (start, wall
    seconds) of every op, the number that failed, and the passes made.
    """
    timed, failed, done = [], 0, 0
    previous = 0.0
    start = perf_counter()
    while True:
        for op in ops:
            if collect:
                gc.collect()
            probe.before_op(previous)
            t0 = perf_counter()
            try:
                result = op.call()
            except (Exception, SystemExit) as exc:
                previous = perf_counter() - t0
                ok, why = False, repr(exc)
            else:
                previous = perf_counter() - t0
                try:
                    ok, why = op.check(result), "wrong answer"
                except Exception as exc:
                    ok, why = False, repr(exc)
            timed.append((t0, previous))
            if not ok:
                failed += 1
                if op.label not in _REPORTED:
                    _REPORTED.add(op.label)
                    print(f"op failed: {op.label}: {why}", file=sys.stderr)
        done += 1
        if passes:
            if done == passes:
                break
        elif perf_counter() - start >= min_seconds and len(timed) >= min_ops:
            break
    probe.before_op(previous)  # chunks after the last op, too
    return timed, failed, done


def latency_metrics(latencies: list, per_pass: int) -> dict:
    """Rate over the whole run; percentiles over each op's typical time.

    `latencies` come in whole passes of `per_pass` ops in one order.  Every
    op counts once per pass, as in a percentile over all samples, but at its
    median time over the passes: a burst of host noise that hits single ops
    then moves neither percentile.
    """
    passes = len(latencies) // per_pass
    typical = [statistics.median(latencies[i::per_pass]) for i in range(per_pass)]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_s_p50": statistics.median(typical),
        "op_s_p90": statistics.quantiles(typical * passes, n=10)[8],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.run(SETUP_PROBE_S)
    start = perf_counter()
    lib, import_s = _import_library(args.root)
    workload = WORKLOADS[args.workload](args.root, args.workdir, args.seed, lib)
    reps = 1 if args.trace else workload.setup_reps
    # Each set-up is an import (the first in this process, later ones in
    # fresh interpreters) plus the workload's set-up; its wall time and its
    # time scaled to reference speed are kept.
    spans, ops = [], None
    for rep in range(reps):
        if rep:
            probe.run(SETUP_PROBE_S)
            start = perf_counter()
            import_s = _fresh_import_s()
        ops = None  # free the previous set-up's models first
        setup_start, probe_start = perf_counter(), probe.spent
        ops = workload.setup(probe)
        end = perf_counter()
        spans.append((start, end, import_s + end - setup_start - (probe.spent - probe_start)))
    probe.run(SETUP_PROBE_S)
    setup_wall = [wall for _, _, wall in spans]
    setup_scaled = [wall * probe.factor(a, b) for a, b, wall in spans]

    extra = {"ops_per_pass": len(ops)}
    collect = workload.collect_between_ops
    if not args.trace:
        timed, failed, passes = run_passes(ops, collect, probe, args.seconds, min_ops=100)
        metrics = latency_metrics([probe.scaled(t0, wall) for t0, wall in timed], len(ops))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(setup_scaled)
        extra["wall"] = latency_metrics([wall for _, wall in timed], len(ops))
        extra["wall"]["setup_s"] = statistics.median(setup_wall)
        attempted = len(timed)
    else:
        # A first pass warms the allocator and checks the answers.  Untraced
        # and traced passes then alternate, so drift in machine speed falls
        # on both sides of trace.overhead_ratio alike.
        _, failed, _ = run_passes(ops, collect, probe, 0, passes=1)
        tracer = Tracer()
        plain, traced = [], []
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            timed, plain_failed, _ = run_passes(ops, collect, probe, 0, passes=1)
            tracer.install()
            try:
                traced_timed, traced_failed, _ = run_passes(ops, collect, probe, 0, passes=1)
            finally:
                tracer.uninstall()
            plain += timed
            traced += traced_timed
            failed += plain_failed + traced_failed
        passes = len(plain) // len(ops)
        attempted = (2 * passes + 1) * len(ops)
        metrics = tracer.layer_metrics(len(traced))
        metrics["rational.denom_bits_max"] = max(op.denom_bits for op in ops)
        metrics["trace.overhead_ratio"] = (sum(probe.scaled(*t) for t in plain)
                                           / sum(probe.scaled(*t) for t in traced))
        validate = [sys.executable, "-m", "markovtraj.cli", "validate",
                    "--model", str(args.root / "models" / "coin.json")]
        metrics["cli.process_s"] = statistics.median(_process_s(validate) for _ in range(5))
    extra["median_chunk_s"] = probe.median_chunk_s()
    extra.update(passes=passes, ops_failed_ratio=failed / attempted)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
