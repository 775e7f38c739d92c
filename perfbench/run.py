"""Scenario benchmark for vikit.

    python3 perfbench/run.py --workload golden|small_n|large_n|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's scenario files
from --seed, measures set-up time with fresh interpreters, then runs the
scenarios in one closed loop (one client, one worker process) through
`vikit.cli.run_scenario` and checks every call's outputs.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs each scenario once
untraced and once traced and reports the per-layer metrics.

It prints a readable summary, then, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  Work files go to
.bench_work/ in the checkout; the result and the spans of each run stay
there.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 120
WORKER_GRACE_S = 120

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "scenario_s_p50": "s",
    "scenario_s_p90": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if "us_per_" in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("frac"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env: dict, cwd: Path) -> list[float]:
    """Wall time of fresh interpreters that import vikit.cli, as `vikit run`
    pays it.  The first, untimed, run writes the bytecode cache.  The wait
    blocks (a timer kills a hung child): `subprocess.run(timeout=...)` polls
    at up to 50 ms intervals, which would quantize the samples."""
    cmd = [sys.executable, "-c", "import vikit.cli"]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd)
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times[1:]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One measured run; returns (result line, summary lines)."""
    run_dir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    try:
        entries = workloads.WORKLOADS[workload](seed, run_dir / "inputs", SRC / "vikit" / "scenarios")
        manifest = run_dir / "manifest.json"
        manifest.write_text(json.dumps([asdict(e) for e in entries]))
        env = child_env()
        setup = [] if trace else measure_setup(env, run_dir)
        result_path = run_dir / "result.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--manifest", str(manifest), "--out", str(run_dir / "out"),
            "--result", str(result_path), "--spans", str(spans_path),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        subprocess.run(cmd, env=env, cwd=run_dir, check=True, timeout=seconds + WORKER_GRACE_S)
        raw = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = raw["samples"]
    times = [s[1] for s in samples]
    failures = [s for s in samples if s[2] is not None]
    if raw["warmup_failure"] is not None:
        failures.append(["warm-up", 0.0, raw["warmup_failure"]])
    attempted = len(samples) + 1
    failed = len(failures)
    env_rec = raw["env"]
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
        f"closed loop, 1 client, 1 process, {len(entries)} scenario files round robin",
        "env " + "  ".join(f"{k} {v}" for k, v in env_rec.items()) + f"  vikit {raw['vikit']}",
    ]
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in raw["per_layer"].items()}
        lines.append(f"traced {raw['traced_scenarios']} scenario runs in {raw['passes']} passes, "
                     f"{raw['spans']} spans written to {spans_path.relative_to(ROOT)}")
        lines.append(f"box goldens: brute_force_vi share of run_scenario time "
                     f"{raw['box_golden_brute_force_share']:.4f}")
    else:
        p90 = statistics.quantiles(times, n=10)[8]
        per_pass = len(entries)
        pass_rates = [per_pass / sum(times[i:i + per_pass]) for i in range(0, len(times), per_pass)]
        values = {
            "scenarios_per_s": statistics.median(pass_rates),
            "scenario_s_p50": statistics.median(times),
            "scenario_s_p90": p90,
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes = {
            "scenarios_per_s": f"median of {len(pass_rates)} passes of {per_pass} runs; "
                               f"{sum(times):.2f} s in run_scenario",
            "scenario_s_p50": f"{len(times)} samples",
            "scenario_s_p90": f"{len(times)} samples, {sum(t > p90 for t in times)} above",
            "ok_frac": f"failed_frac {failed / attempted:.4f} = {failed} of {attempted}",
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "peak_rss_mb": "worker process ru_maxrss",
        }
        lines += [f"{k:<16} {m['value']:>12.6g} {m['unit']:<6} ({notes[k]})"
                  for k, m in metrics.items()]
    for name, _, reason in failures[:5]:
        lines.append(f"FAILED {name}: {reason}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env_rec, "samples": len(times), "setup_samples": setup,
              "scenario_s": {e.name: [s[1] for s in samples if s[0] == e.name] for e in entries},
              "failures": failures, "metrics": metrics}
    (WORK / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vikit scenario benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vikit" / "cli.py").is_file():
        print(f"error: no vikit sources at {SRC}; run from a vikit checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            line, lines = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        if len(names) == 1:
            combined = line
            break
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
