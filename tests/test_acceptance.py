"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from vikit import cli
from vikit.geometry import AffineSubspace, Ball, Box, Halfspace, Simplex, project
from vikit.operators import AffineOperator, certify_moduli, sample_pairs
from vikit.solvers import (
    Identity,
    compare_stopping,
    natural_residual_factor,
    solve_halpern,
    solve_projected_gradient,
)
from vikit.verification import BruteForceGrid, brute_force_vi, lemma_cocoercive_expansive

from oracles import (
    contains,
    diameter,
    gram_spectral,
    random_monotone_operator,
    sample_in_set,
    sampled_lemma_cocoercive_expansive,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_expansiveness_from_cocoercivity():
    # 20 random operators, dims 1-10, v - m*eps^2 > 0: the exact check passes
    # for all pairs, and so does its sampled cross-check on 1e4 pairs each
    # (slack >= -1e-9); total runtime < 5 s
    rng = np.random.default_rng(20260101)
    start = time.perf_counter()
    worst = sampled_worst = -np.inf
    for k in range(20):
        dim = int(rng.integers(1, 11))
        op = random_monotone_operator(rng, dim)
        certified = certify_moduli(op)
        v, eps = certified.strong_monotonicity, certified.lipschitz
        m = float(rng.uniform(0.0, 0.75)) * v / eps**2
        report, gamma = lemma_cocoercive_expansive(op, m, v, eps)
        assert gamma > 0.0
        pairs = sample_pairs(dim, count=10_000, seed=k)
        sampled, _ = sampled_lemma_cocoercive_expansive(op, m, v, eps, pairs)
        worst = max(worst, report.max_violation)
        sampled_worst = max(sampled_worst, sampled.max_violation)
        for r in (report, sampled):
            if r.status != "Pass":
                _report(1, "lemma22-expansiveness", False, f"violation {r.max_violation:g}")
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and sampled_worst <= 0.0 and elapsed < 5.0
    _report(1, "lemma22-expansiveness", ok,
            f"worst deficit {worst:.3g} exact, {sampled_worst:.3g} sampled, {elapsed:.2f}s")


def test_criterion_2_singleton_certification():
    # golden 2-D box instances at h = 1e-2 certify a singleton; the
    # zero-operator control recovers the full box. Runtime < 10 s.
    from conftest import GOLDEN_BOX_NAMES, load_golden

    start = time.perf_counter()
    threshold = 2.0 * 0.01 * np.sqrt(2.0)
    ok = True
    details = []
    for name in GOLDEN_BOX_NAMES:
        scenario = load_golden(name)
        assert certify_moduli(scenario.operator).expansiveness > 0.0
        grid = BruteForceGrid(set_=scenario.set_, h=0.01,
                              vi_tolerance=scenario.grid.vi_tolerance)
        solutions = brute_force_vi(scenario.operator, grid)
        diam = diameter(solutions) if solutions.shape[0] else np.inf
        details.append(f"{name} diam {diam:.3g}")
        ok = ok and solutions.shape[0] >= 1 and diam <= threshold

    zero_op = AffineOperator(matrix=np.zeros((2, 2)), offset=[0.0, 0.0])
    box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
    control = brute_force_vi(zero_op, BruteForceGrid(set_=box, h=0.01))
    control_diam = diameter(control)
    ok = ok and abs(control_diam - np.sqrt(2.0)) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(2, "singleton-certification", ok,
            "; ".join(details) + f"; control diam {control_diam:.15g}; {elapsed:.2f}s")


def test_criterion_3_shortcut_bound_soundness(golden_scenarios):
    # |x_n - x*| <= s_n / gamma + 1e-9 at every iteration, zero violations
    violations = 0
    rows = 0
    for sc in golden_scenarios:
        trace = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0,
                                         x_ref=sc.x_star)
        assert trace.shortcut_bounds is not None
        distances = trace.distances_to(sc.x_star)
        violations += int(np.sum(distances > trace.shortcut_bounds + 1e-9))
        rows += trace.rows
    _report(3, "shortcut-bound-soundness", violations == 0,
            f"{violations} violations over {rows} iterations")


def _perfbench_small_n(seed: int, directory: Path, monkeypatch) -> list:
    """(scenario, x_star) for each file of perfbench's ``small_n`` workload at ``seed``,
    its generator executed without writing bytecode beside it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclass looks it up
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    entries = module.small_n(seed, directory, cli.golden_dir())
    return [(cli.Scenario.from_dict(json.loads(Path(e.path).read_text())), e.x_star)
            for e in entries]


def test_natural_residual_bound_soundness(golden_scenarios, tmp_path, monkeypatch):
    # |x_n - x*| <= C r_n with C = (1 + lam L)/(lam mu), zero violations on every
    # compare_stopping row of the goldens and of a seed's small_n scenarios
    cases = [(sc, sc.x_star) for sc in golden_scenarios]
    cases += _perfbench_small_n(401, tmp_path, monkeypatch)
    violations = rows = 0
    for sc, x_star in cases:
        trace = compare_stopping(sc.operator, sc.set_, sc.config, sc.x0, x_star, sc.delta).trace
        bound = natural_residual_factor(sc.operator, sc.config.step) * trace.natural_residuals
        violations += int(np.sum(trace.distances_to(x_star) > bound))
        rows += trace.rows
    _report(3, "natural-residual-bound-soundness",
            violations == 0 and len(cases) > len(golden_scenarios),
            f"{violations} violations over {rows} rows of {len(cases)} scenarios")


def test_criterion_4_solver_oracle_agreement(golden_scenarios, golden_oracle):
    ok = True
    details = []
    for sc in golden_scenarios:
        pg = solve_projected_gradient(sc.operator, sc.set_, sc.config, sc.x0)
        if isinstance(sc.set_, Box):
            grid = golden_oracle[sc.name]["grid"]
            solutions = golden_oracle[sc.name]["solutions"]
            gap = float(np.min(np.linalg.norm(solutions - pg.final[None, :], axis=1)))
            ok = ok and gap <= grid.h * np.sqrt(sc.set_.dim) + 1e-6
            details.append(f"{sc.name} oracle gap {gap:.2g}")
        halpern = solve_halpern(sc.operator, sc.set_, Identity(), sc.config, sc.x0,
                                anchor=sc.x0)
        scheme_gap = float(np.linalg.norm(halpern.final - pg.final))
        ok = ok and scheme_gap <= 1e-6
        details.append(f"{sc.name} scheme gap {scheme_gap:.2g}")
    _report(4, "solver-oracle-agreement", ok, "; ".join(details))


def test_criterion_5_projection_correctness():
    rng = np.random.default_rng(7)
    dim = 3
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:2]
    variants = {
        "box": Box(lower=-np.ones(dim), upper=2.0 * np.ones(dim)),
        "ball": Ball(center=rng.uniform(-1, 1, dim), radius=1.5),
        "halfspace": Halfspace(normal=rng.normal(size=dim), offset=0.7),
        "simplex": Simplex(dim),
        "affine": AffineSubspace(basepoint=rng.uniform(-1, 1, dim), orthonormal_basis=basis),
    }
    trials = 10_000
    ok = True
    for label, set_ in variants.items():
        xs = rng.uniform(-10.0, 10.0, size=(trials, dim))
        ys = rng.uniform(-10.0, 10.0, size=(trials, dim))
        members = sample_in_set(set_, rng, trials)
        for i in range(trials):
            px = project(set_, xs[i])
            if np.linalg.norm(project(set_, px) - px) > 1e-12:
                ok = False
                break
            py = project(set_, ys[i])
            if np.linalg.norm(px - py) > np.linalg.norm(xs[i] - ys[i]) + 1e-12:
                ok = False
                break
            if float((xs[i] - px) @ (members[i] - px)) > 1e-9:
                ok = False
                break
        if not ok:
            _report(5, "projection-correctness", False, f"variant {label}, trial {i}")
    _report(5, "projection-correctness", ok, f"{trials} trials x {len(variants)} variants")


def test_criterion_6_moduli_certificates():
    # certified moduli match a dense Gram-eigendecomposition oracle to 1e-8
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 11))
        matrix = rng.uniform(-2.0, 2.0, size=(dim, dim))
        op = AffineOperator(matrix=matrix, offset=np.zeros(dim))
        certified = certify_moduli(op)
        smax, smin, sym_min = gram_spectral(matrix)
        worst = max(
            worst,
            abs(certified.lipschitz - smax),
            abs(certified.expansiveness - smin),
            abs(certified.strong_monotonicity - sym_min),
        )
    _report(6, "moduli-certificates", worst <= 1e-8, f"worst gap {worst:.3g}")


def test_criterion_7_trace_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    scenario = cli.golden_path("box_identity")
    assert cli.run_scenario(scenario, out_a) == 0
    assert cli.run_scenario(scenario, out_b) == 0
    names = [
        "box_identity.solve_pg.trace.csv",
        "box_identity.solve_halpern.trace.csv",
        "box_identity.compare_stopping.trace.csv",
    ]
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    _report(7, "trace-determinism", identical, f"{len(names)} trace files compared")
