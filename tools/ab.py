"""Paired A/B timing of two source trees, one ``run_scenario`` call per side per pair.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC [--workload golden|small_n|large_n|all]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
tree runs in its own worker process (``PYTHONPATH`` set to the tree, 1 BLAS
thread), warmed by 5 calls.  A pair makes one ``vikit.cli.run_scenario`` call
per side on the same input, the order of the two sides random, and times each
call's ``perf_counter`` and ``process_time`` spans in the worker.  The pairs
of a run are split over 6 starts of fresh workers (5 restarts), so no single
process's memory layout decides the result; the two workers are spawned and
warmed in one order at even starts and in the other at odd ones, since the
worker spawned second ran about 0.5% faster in an A/A run of one tree.  The
A/B run of the parent against the change alternates, start by start, with an
A/A run of the parent against itself, whose interval should hold 1.

The inputs are perfbench's ``golden``, ``small_n`` and ``large_n`` files at
seed 1 (the bundled goldens read from CHANGE_SRC).  For each workload and
each comparison this prints, for wall and for CPU time, the median per-pair
ratio second/first (change/parent, or parent/parent), its 95% bootstrap
interval, and the pairs the second side won.  Needs numpy and perfbench's
``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

WORKLOAD_SEED = 1
WARMUP_CALLS = 5
PAIRS = {"golden": 400, "small_n": 200, "large_n": 60}
RESTARTS = 5
BOOTSTRAP_RESAMPLES = 2000


def serve(out_dir: str) -> None:
    """Worker loop: read ``[path, seed]`` lines, answer ``[exit code, wall s, cpu s]``."""
    from vikit import cli

    replies, sys.stdout = sys.stdout, sys.stderr  # vikit's own prints stay off the channel
    for line in sys.stdin:
        path, seed = json.loads(line)
        wall, cpu = perf_counter(), process_time()
        code = cli.run_scenario(path, out_dir, seed=seed)
        wall, cpu = perf_counter() - wall, process_time() - cpu
        replies.write(json.dumps([code, wall, cpu]) + "\n")
        replies.flush()


class Worker:
    """One worker process running ``src``'s vikit, its outputs under ``out_dir``."""

    def __init__(self, src: Path, out_dir: Path):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(out_dir)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, entry) -> tuple[int, float, float]:
        self.proc.stdin.write(json.dumps([entry.path, entry.seed_override]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return tuple(json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def segment(trees, entries, pairs: int, first: int, rng: random.Random, work: Path,
            spawn: list[int]) -> list:
    """``pairs`` pairs on fresh workers spawned in the side order ``spawn``, inputs
    ``entries[first:]`` round robin: one (exit codes, wall ratio, cpu ratio) per
    pair, each ratio second/first tree."""
    work.mkdir(parents=True)
    workers = {side: Worker(trees[side], work / f"out{side}") for side in spawn}
    try:
        for worker in workers.values():
            for i in range(WARMUP_CALLS):
                worker.call(entries[i % len(entries)])
        results = []
        for k in range(first, first + pairs):
            entry = entries[k % len(entries)]
            order = [0, 1] if rng.random() < 0.5 else [1, 0]
            timed = {side: workers[side].call(entry) for side in order}
            (code_a, wall_a, cpu_a), (code_b, wall_b, cpu_b) = timed[0], timed[1]
            results.append(((code_a, code_b), wall_b / wall_a, cpu_b / cpu_a))
        return results
    finally:
        for worker in workers.values():
            worker.close()


def summary(ratios: list[float], rng: np.random.Generator) -> str:
    """Median ratio, its 95% percentile-bootstrap interval, and the pairs below 1."""
    values = np.asarray(ratios)
    medians = np.median(rng.choice(values, (BOOTSTRAP_RESAMPLES, values.size)), axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    wins = int(np.count_nonzero(values < 1.0))
    return f"{np.median(values):.3f} [{low:.3f}, {high:.3f}]  wins {wins}/{values.size}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    parser.add_argument("--workload", default="all", choices=[*PAIRS, "all"])
    args = parser.parse_args(argv)

    parent, change = args.parent_src.resolve(), args.change_src.resolve()
    comparisons = {"change/parent": (parent, change), "parent/parent": (parent, parent)}
    names = list(PAIRS) if args.workload == "all" else [args.workload]
    rng, boot_rng = random.Random(), np.random.default_rng()
    with tempfile.TemporaryDirectory(prefix="ab.") as tmp:
        for name in names:
            (Path(tmp) / name).mkdir()
            entries = workloads.WORKLOADS[name](WORKLOAD_SEED, Path(tmp) / name,
                                                change / "vikit" / "scenarios")
            pairs, starts = PAIRS[name], RESTARTS + 1
            results = {label: [] for label in comparisons}
            for start in range(starts):
                count = pairs // starts + (start < pairs % starts)
                for label, trees in comparisons.items():
                    work = Path(tmp) / "runs" / f"{name}-{label.replace('/', '-')}-{start}"
                    spawn = [0, 1] if start % 2 == 0 else [1, 0]
                    results[label] += segment(trees, entries, count, len(results[label]),
                                              rng, work, spawn)
            print(f"{name}: {pairs} pairs per comparison over {starts} worker starts, "
                  f"{len(entries)} inputs")
            for label, rows in results.items():
                mixed = sum(codes[0] != codes[1] for codes, _, _ in rows)
                print(f"  {label}  wall {summary([r[1] for r in rows], boot_rng)}"
                      f"   cpu {summary([r[2] for r in rows], boot_rng)}"
                      + (f"   exit codes differ in {mixed} pairs" if mixed else ""))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        serve(sys.argv[2])
    else:
        sys.exit(main())
