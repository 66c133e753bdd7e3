"""Benchmark of the markovtraj library: one workload per run.

    python3 bench/run.py --workload cold-query --seed 1 --seconds 30 --trace 0

Workloads (see bench/spec.json for their model families and op mixes):
  cold-query  one in-process CLI query per op, each with a fresh load
  session     library queries on models loaded and warmed once
  verify      one in-process `verify` per op, each with a fresh load

Run from a checkout of the repository: the library is imported from its
src/ directory and the shipped models from models/.  The workload runs in a
child process with a capped address space, so a memory blow-up shows as
failed ops instead of taking the machine down.  The load is a closed loop
with one client; every answer is checked against a brute-force oracle
outside the timed region.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced rerun of the same ops.  Exit code 0 with a result line, else 1 (the
run failed) or 2 (not a checkout of the repository).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cold-query", "session", "verify")
REQUIRED = ("src/markovtraj/__init__.py", "models/coin.json", "models/drift.json",
            "models/weather.json", "BENCHMARK.json")

# Address-space cap of the workload process: five times the largest peak
# RSS measured at the commit that added this benchmark (session, 0.21 GB),
# since Python reserves more address space than it touches.  A blow-up
# fails ops long before the machine runs short of memory.
ADDRESS_SPACE_CAP = 1 << 30

# Each run must end within 180 s; leave room for set-up and clean-up.
CHILD_TIMEOUT_S = 170


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _run_child(args, workdir: Path) -> dict:
    argv = [sys.executable, str(BENCH / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", str(ROOT), "--workdir", str(workdir)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, preexec_fn=_cap_address_space)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: {ROOT} is not a markovtraj checkout; missing {missing}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        result = _run_child(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    if set(result["metrics"]) != set(declared):
        print(f"error: metrics {sorted(result['metrics'])} differ from BENCHMARK.json "
              f"{sorted(declared)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": declared[name]}
               for name, value in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    extra = result["extra"]
    print(f"{args.workload} ops_failed_ratio {extra['ops_failed_ratio']!r} ratio")
    print(f"{args.workload} ops {result['attempted']} in {extra['passes']} passes "
          f"of {extra['ops_per_pass']}")
    for name, value in extra.get("wall", {}).items():
        print(f"{args.workload} wall {name} {value!r}")
    print(f"{args.workload} median_chunk_s {extra['median_chunk_s']!r} s")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
