"""Closed-loop scenario runner: one client, one process.

Started by run.py with vikit's `src` directory on PYTHONPATH.  It loads a
manifest of generated scenario files, runs them in order, round robin,
through `vikit.cli.run_scenario`, checks every call's outputs, and writes the
samples to a JSON result file.

Calls run back to back in whole passes over the manifest, so every scenario
is sampled equally often, until another pass would end after `--seconds`.
With `--trace 1` each scenario runs once untraced and once traced per pass,
and the per-layer metrics come from the traced calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from checks import check_run
from tracing import Tracer, per_layer_metrics, share_of_scenario

from vikit import cli

BOX_GOLDENS = ("box_diag#", "box_identity#", "box_rotation#")


def _call(entry: dict, out_dir: Path) -> tuple[float, str | None]:
    start = perf_counter()
    try:
        code = cli.run_scenario(entry["path"], out_dir, seed=entry["seed_override"])
    except Exception as exc:  # a crash is a failed run, never a lost one
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        return elapsed, check_run(entry, code, out_dir)
    except (KeyError, TypeError, ValueError) as exc:  # outputs missing a documented field
        return elapsed, f"malformed output: {exc!r}"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _output_bytes(entry: dict, out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob(f"{entry['name']}.*"))


def run_passes(entries, out_dir, seconds, tracer=None):
    """Whole passes over the manifest until another pass would end after
    `seconds`; at least one.  With a tracer, each scenario runs once untraced
    and once traced per pass, the order alternating."""
    samples, plain_s, traced_s, output_bytes = [], 0.0, 0.0, 0
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for i, entry in enumerate(entries):
            if tracer is None:
                modes = (False,)
            else:
                modes = (False, True) if (i + passes) % 2 == 0 else (True, False)
            for traced in modes:
                if traced:
                    tracer.scenario = f"{entry['name']}#{passes}"
                    tracer.install()
                try:
                    elapsed, failure = _call(entry, out_dir)
                finally:
                    if traced:
                        tracer.uninstall()
                samples.append([entry["name"], elapsed, failure])
                if traced:
                    traced_s += elapsed
                    output_bytes += _output_bytes(entry, out_dir)
                else:
                    plain_s += elapsed
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return samples, passes, plain_s, traced_s, output_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    entries = json.loads(args.manifest.read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    # Let lazy set-up finish (imports, BLAS buffers) before timing.
    _, warmup_failure = _call(entries[0], args.out)
    tracer = Tracer() if args.trace else None
    samples, passes, plain_s, traced_s, output_bytes = run_passes(
        entries, args.out, args.seconds, tracer)
    extra = {}
    if tracer is not None:
        spans = tracer.export()
        args.spans.write_text(json.dumps(spans))
        extra = {
            "per_layer": per_layer_metrics(spans, output_bytes, traced_s / plain_s - 1.0),
            "traced_scenarios": passes * len(entries),
            "spans": len(spans),
            "box_golden_brute_force_share": share_of_scenario(
                spans, "verification.brute_force_vi", BOX_GOLDENS),
        }
    result = {
        "samples": samples,
        "passes": passes,
        "warmup_failure": warmup_failure,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vikit": str(Path(cli.__file__).resolve()),
        "env": environment(),
        **extra,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
