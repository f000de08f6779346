"""Release gate: twelve numbered end-to-end checks.

Each test prints one pass/fail line directly to the terminal (bypassing
capture) so the test log shows every verdict inline, then asserts. The
checks exercise the closed forms, the showcase scenarios, the large
random-draw oracles and the determinism contracts at full size, so this
file is slower than the per-module suites.
"""

import math
import warnings
from itertools import combinations
from time import perf_counter

import numpy as np

from conftest import (
    SHOWCASE_IC_SETTLING,
    SHOWCASE_IC_CYCLE_HIGH,
    SHOWCASE_IC_CYCLE_LOW,
    draw_basic_admissible,
    draw_box_admissible,
    draw_extended_admissible,
    showcase_params,
)
from hematodyn import (
    AxisSpec,
    IntegrationConfig,
    ModelParameters,
    PLAUSIBLE_INTERVALS,
    SweepSpec,
    axis_for,
    beta_gamma,
    bifurcation_bracket,
    char_poly_E2,
    check_constellations,
    classify,
    hopf_point,
    hurwitz_classify,
    hurwitz_factored,
    hurwitz_value,
    integrate,
    invariant_box,
    jacobian,
    run_sweep,
    steady_state_E2,
)
from hematodyn.cli import main


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_01_hopf_point_closed_form(capsys):
    t0 = perf_counter()
    for _ in range(100):
        report = hopf_point(0.7, 0.5, 0.1337, 1.0)
    per_call = (perf_counter() - t0) / 100.0
    error = abs(report.p2_star - 0.3937)
    ok = error <= 5e-4 and per_call < 1e-3
    announce(
        capsys, 1, ok,
        f"p2* = {report.p2_star:.6f} (|err| = {error:.1e} vs 5e-4 budget, "
        f"{per_call * 1e6:.0f} us/call)",
    )
    assert ok


def test_criterion_02_phase_portrait_dichotomy(capsys):
    t0 = perf_counter()
    settled = classify(showcase_params(0.5), SHOWCASE_IC_SETTLING, 3000.0)
    cycle_a = classify(showcase_params(0.3), SHOWCASE_IC_CYCLE_HIGH)
    cycle_b = classify(showcase_params(0.3), SHOWCASE_IC_CYCLE_LOW)
    elapsed = perf_counter() - t0

    problems = []
    if not (settled.kind == "equilibrium" and settled.label == "E2"):
        problems.append(f"p2=0.5 gave {settled.kind}")
    if not settled.final_distance < 1e-3:
        problems.append(f"final distance {settled.final_distance:.2e}")
    if cycle_a.kind != "limit_cycle" or cycle_b.kind != "limit_cycle":
        problems.append(f"p2=0.3 gave {cycle_a.kind}/{cycle_b.kind}")
    else:
        spread = abs(cycle_a.period - cycle_b.period)
        if spread > 0.02 * cycle_a.period:
            problems.append(f"periods disagree: {cycle_a.period} vs {cycle_b.period}")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    ok = not problems
    announce(
        capsys, 2, ok,
        f"settle dist {settled.final_distance:.1e}, cycle periods "
        f"{cycle_a.period:.2f}/{cycle_b.period:.2f} d, {elapsed:.1f}s"
        if ok else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_03_near_critical_period(capsys):
    report = hopf_point(0.7, 0.5, 0.1337, 1.0)
    target = 2.0 * math.pi / report.omega
    verdict = classify(
        showcase_params(0.98 * report.p2_star), SHOWCASE_IC_CYCLE_HIGH, 16000.0
    )
    ok = verdict.kind == "limit_cycle" and abs(verdict.period - target) <= 0.1 * target
    announce(
        capsys, 3, ok,
        f"period {verdict.period:.2f} vs 2*pi/omega = {target:.2f} "
        f"({abs(verdict.period - target) / target:.1%} off)"
        if verdict.period else f"verdict {verdict.kind}",
    )
    assert ok


def test_criterion_04_no_oscillation_baseline(capsys):
    names = tuple(PLAUSIBLE_INTERVALS)
    specs = [SweepSpec(varied=(axis_for(name),)) for name in names]
    specs += [
        SweepSpec(varied=(axis_for(a), axis_for(b)))
        for a, b in combinations(names, 2)
    ]
    t0 = perf_counter()
    unstable = 0
    points = 0
    for spec in specs:
        result = run_sweep(spec)
        unstable += result.counts["unstable"]
        points += result.n_points
    elapsed = perf_counter() - t0
    ok = unstable == 0 and points == 210_700 and elapsed < 60.0
    announce(
        capsys, 4, ok,
        f"{len(specs)} sweeps, {points} points, {unstable} unstable, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_constellation_suite(capsys):
    t0 = perf_counter()
    reports = check_constellations(run_classify=True)
    elapsed = perf_counter() - t0

    failures = []
    reference = reports[0]
    if not (
        reference.e2_exists
        and reference.classification == "stable"
        and reference.verdict.kind == "equilibrium"
    ):
        failures.append(
            f"reference: {reference.classification}/{reference.verdict.kind}"
        )
    for report in reports[1:]:
        problems = []
        if not report.e2_exists:
            problems.append("positive state missing")
        if report.hurwitz is None or not report.hurwitz < 0.0:
            problems.append(f"hurwitz {report.hurwitz:+.2e} not < 0")
        if report.verdict is None or report.verdict.kind != "limit_cycle":
            kind = report.verdict.kind if report.verdict else None
            problems.append(f"verdict {kind}")
        if problems:
            failures.append(f"set {report.index}: " + ", ".join(problems))
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s (budget 120s)")
    ok = not failures
    announce(
        capsys, 5, ok,
        f"reference stable, all nine sets cycling, {elapsed:.1f}s"
        if ok else " | ".join(failures),
    )
    assert ok, failures


def test_criterion_06_hurwitz_eigenvalue_equivalence(capsys):
    rng = np.random.default_rng(2024)
    mismatches = 0
    near_marginal = 0
    worst_b1 = 0.0
    worst_b3 = 0.0
    n = 10_000
    for i in range(n):
        params = (
            draw_basic_admissible(rng) if i % 2 == 0 else draw_extended_admissible(rng)
        )
        coeffs = char_poly_E2(params)
        jac = jacobian(params, steady_state_E2(params).state)
        b1 = -float(np.trace(jac))
        b3 = -float(np.linalg.det(jac))
        worst_b1 = max(worst_b1, abs(b1 - coeffs.b1) / max(1.0, abs(coeffs.b1)))
        worst_b3 = max(worst_b3, abs(b3 - coeffs.b3) / max(1.0, abs(coeffs.b3)))
        verdict = hurwitz_classify(coeffs)
        eigs = np.linalg.eigvals(jac)
        top = float(max(e.real for e in eigs))
        scale = float(max(abs(e) for e in eigs))
        if verdict == "marginal" or abs(top) <= 1e-10 * scale:
            near_marginal += 1
        elif (verdict == "stable") != (top < 0.0):
            mismatches += 1
    ok = mismatches == 0 and worst_b1 <= 1e-9 and worst_b3 <= 1e-9 and near_marginal < 5
    announce(
        capsys, 6, ok,
        f"{n} draws, {mismatches} sign mismatches, coeff errors "
        f"{worst_b1:.1e}/{worst_b3:.1e}, {near_marginal} marginal",
    )
    assert ok


def test_criterion_07_factored_identity(capsys):
    rng = np.random.default_rng(2025)
    worst = 0.0
    n = 10_000
    for _ in range(n):
        params = draw_basic_admissible(rng)  # rescaled form, p1 = 1
        coeffs = char_poly_E2(params)
        raw = hurwitz_value(coeffs)
        factored = hurwitz_factored(params.a1, params.a2, params.p2, params.d3)
        allowed = max(1e-10 * max(abs(raw), abs(factored)), 1e-14)
        worst = max(worst, abs(factored - raw) / allowed)
    ok = worst <= 1.0
    announce(capsys, 7, ok, f"{n} draws, worst deviation {worst:.3f}x the 1e-10 budget")
    assert ok


def _fd_pair_slope(params, star, step):
    res = []
    for p2 in (star + step, star - step):
        q = params.with_(p2=p2)
        eigs = np.linalg.eigvals(jacobian(q, steady_state_E2(q).state))
        res.append(max(e.real for e in eigs))
    return (res[0] - res[1]) / (2.0 * step)


def test_criterion_08_transversality(capsys):
    report = hopf_point(0.7, 0.5, 0.1337, 1.0)
    slope = _fd_pair_slope(showcase_params(0.4), report.p2_star, 1e-5)
    worst = abs(slope - report.mu_prime) / abs(report.mu_prime)
    ok = worst <= 1e-3 and report.mu_prime < 0.0

    rng = np.random.default_rng(2026)
    done = 0
    while done < 100:
        a1 = rng.uniform(0.55, 0.95)
        a2 = rng.uniform(0.05, a1 - 0.05)
        bg = beta_gamma(a1, a2)
        d3 = rng.uniform(0.2, 0.9) / (bg.beta * bg.gamma)
        h = hopf_point(a1, a2, d3, 1.0)
        params = ModelParameters(a1=a1, a2=a2, p1=1.0, p2=h.p2_star, d3=d3, k=1e-9)
        slope = _fd_pair_slope(params, h.p2_star, 1e-5 * max(h.p2_star, 1.0))
        rel = abs(slope - h.mu_prime) / abs(h.mu_prime)
        worst = max(worst, rel)
        if rel > 1e-3 or not h.mu_prime < 0.0:
            ok = False
        done += 1
    announce(
        capsys, 8, ok,
        f"slope of the crossing pair matches closed form on showcase point "
        f"+ 100 draws (worst rel {worst:.1e})",
    )
    assert ok


def test_criterion_09_boundedness(capsys):
    rng = np.random.default_rng(2027)
    violations = 0
    worst_ratio = 0.0
    n = 1_000
    for i in range(n):
        params, initial = draw_box_admissible(rng, extended=bool(i % 2))
        box = invariant_box(params, initial)
        traj = integrate(
            params, initial, IntegrationConfig(t_end=150.0 / params.p1)
        )
        bounds = np.array([box.c1, box.c2, box.c3])
        ratio = float((traj.states / bounds[None, :]).max())
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            violations += 1
    ok = violations == 0
    announce(
        capsys, 9, ok,
        f"{n} trajectories (half with d1,d2 > 0), {violations} bound "
        f"violations, worst fill {worst_ratio:.3f}",
    )
    assert ok


def test_criterion_10_bounded_instability_region(capsys):
    bases = [(0.7, 0.5), (0.85, 0.841), (0.95, 0.15), (0.62, 0.3)]
    total_unstable = 0
    escaped = 0
    worst = (0.0, 0.0)
    for a1, a2 in bases:
        fixed = ModelParameters(a1=a1, a2=a2, p1=1.0, p2=0.5, d3=0.5, k=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            axes = (
                AxisSpec(name="p2", low=0.01, high=3.0, count=100, nudge=0.0),
                AxisSpec(name="d3", low=0.1, high=3.0, count=100, nudge=0.0),
            )
        result = run_sweep(SweepSpec(varied=axes, fixed=fixed))
        pts = result.unstable_points
        total_unstable += len(pts)
        for p2, d3 in pts:
            if not (p2 < 2.0 and d3 < 2.0):
                escaped += 1
            if p2 * d3 > worst[0] * worst[1]:
                worst = (p2, d3)
    ok = escaped == 0 and total_unstable > 0
    announce(
        capsys, 10, ok,
        f"{total_unstable} unstable points over {len(bases)} unit-rate grids, "
        f"{escaped} outside p2 < 2, d3 < 2 (extreme point {worst[0]:.2f}, {worst[1]:.2f})",
    )
    assert ok


def test_criterion_11_feedback_strength_invariance(capsys):
    ks = (1e-10, 1.75e-9, 3.5e-8, 1e-6)
    cases = {
        "oscillatory": showcase_params(0.3),
        "settled": showcase_params(0.5),
        "with death rates": ModelParameters(
            a1=0.85, a2=0.841, p1=1.0, p2=0.4, d2=0.5592, d3=0.36765, k=3.5e-8
        ),
    }
    ok = True
    notes = []
    for name, params in cases.items():
        margins = {
            k: hurwitz_value(char_poly_E2(params.with_(k=k))) for k in ks
        }
        classes = {
            k: hurwitz_classify(char_poly_E2(params.with_(k=k))) for k in ks
        }
        if len(set(margins.values())) != 1 or len(set(classes.values())) != 1:
            ok = False
            notes.append(f"{name}: margins {margins}")
    roots = {k: bifurcation_bracket(showcase_params(0.4).with_(k=k), 0.3, 0.5) for k in ks}
    if len(set(roots.values())) != 1:
        ok = False
        notes.append(f"bifurcation point moved with k: {roots}")
    announce(
        capsys, 11, ok,
        "margins, classifications and the located crossing are bit-identical "
        f"across k in {ks}" if ok else "; ".join(notes),
    )
    assert ok, notes


def test_criterion_12_sweep_determinism(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "a1 = 0.7\na2 = 0.5\np1 = 1.0\nd3 = 0.1337\nk = 8.75e-9\n"
        "vary = p2:0.3:0.5:64;d3:0.11:0.29:50\n",
        encoding="utf-8",
    )
    # 3200 points in blocks of 7 (not a divisor), of 1000, and of the
    # default 8192 (the whole grid in one block)
    chunks = (7, 1000, 8192)
    outputs = {}
    summaries = {}
    for chunk in chunks:
        monkeypatch.setattr("hematodyn.sweep._CHUNK", chunk)
        out = tmp_path / f"c{chunk}.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        outputs[chunk] = out.read_bytes()
        summaries[chunk] = captured.out
    ok = (
        len(set(outputs.values())) == 1
        and len(set(summaries.values())) == 1
    )
    announce(
        capsys, 12, ok,
        f"{len(outputs[7])} CSV bytes and the JSON summary identical for "
        f"chunk sizes {', '.join(map(str, chunks))}",
    )
    assert ok
