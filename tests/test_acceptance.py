"""Release gate: thirteen numbered end-to-end checks.

Each test prints one pass/fail line directly to the terminal (bypassing
capture) so the test log shows every verdict inline, then asserts. The
checks exercise the closed forms, the showcase scenarios, the large
random-draw oracles and the determinism contracts at full size, so this
file is slower than the per-module suites. Criterion 5's constellation
audit, the slowest part, runs once; an unnumbered test pins the bytes
`hematodyn constellations` prints from it.
"""

import hashlib
import json
import math
import random
import warnings
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

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
    CharPolyCoeffs,
    IntegrationConfig,
    ModelParameters,
    PLAUSIBLE_INTERVALS,
    SweepSpec,
    axis_for,
    beta_gamma,
    bifurcation_bracket,
    char_poly_E2,
    char_poly_at,
    check_constellations,
    classify,
    constellation_report_to_dict,
    dumps,
    e2_conditions,
    hopf_point,
    hurwitz_classify,
    hurwitz_factored,
    hurwitz_value,
    instability_region_bounds,
    integrate,
    invariant_box,
    jacobian,
    run_sweep,
    steady_state_E2,
    verdict_to_dict,
)
from hematodyn.cli import main
from hematodyn.model import _e2_counts
from hematodyn.stability import (
    _basic_coeffs_rescaled,
    _char_poly_E2,
    _extended_coeffs,
    _hopf_rescaled,
    _hurwitz_factored,
    _shape_constants,
)


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


@pytest.fixture(scope="module")
def constellation_audit():
    """check_constellations(run_classify=True) and its wall time, run once."""
    t0 = perf_counter()
    reports = check_constellations(run_classify=True)
    return reports, perf_counter() - t0


def test_criterion_05_constellation_suite(capsys, constellation_audit):
    reports, elapsed = constellation_audit
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


def test_constellations_stdout_is_pinned(constellation_audit):
    # the audit serialized as `hematodyn constellations` prints it, against
    # the command's stdout since a set undecided over its default horizon
    # is classified once more from the same start over 8 times that horizon
    # (only set 6 is, and decides over 160,000 d)
    reports, _ = constellation_audit
    payload = {
        "reference" if report.index == 0 else f"constellation_{report.index}":
            constellation_report_to_dict(report)
        for report in reports
    }
    digest = hashlib.sha256(dumps(payload).encode("utf-8")).hexdigest()
    assert digest == "ff56a2a4787094bb05adda95eb38313230ee15577fc644d96428e7016fc3a59d"


def test_slow_cycle_with_immature_death(constellation_audit, tmp_path, capsys):
    # weakly unstable override set 6 (margin ~ -3e-3): starting 25% above
    # the positive steady state, the spiral needs a long horizon to grow
    # out to the cycle. This is the audit's retry of set 6, 160,000 d from
    # the same start, so `hematodyn classify` prints the audit's verdict
    # byte for byte. Its period of about 412 d is the known sampling alias
    # of the 36.47 d cycle (README, "Known defect"), which direction 1 of
    # the ROADMAP corrects.
    reports, _ = constellation_audit
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "p2 = 0.01\na2 = 0.99\nd2 = 0.5287\n"
        "u1 = 851821478873.2395\nu2 = 161619718309.85918\nu3 = 5.0e8\n"
        "horizon = 160000\n",
        encoding="utf-8",
    )
    assert main(["classify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out == dumps(verdict_to_dict(reports[6].verdict))
    payload = json.loads(out)
    assert payload["kind"] == "limit_cycle"
    assert 380.0 < payload["period"] < 440.0


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
    # p1 = 1, so grid rates are the rescaled ones: a point must read unstable
    # exactly where p2/p2_cut + d3/d3_cut < 1, inside the closed-form triangle
    bases = [(0.7, 0.5), (0.85, 0.841), (0.95, 0.15), (0.62, 0.3)]
    total_unstable = 0
    off = 0
    largest = 0.0
    for a1, a2 in bases:
        fixed = ModelParameters(a1=a1, a2=a2, p1=1.0, p2=0.5, d3=0.5, k=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            axes = (
                AxisSpec(name="p2", low=0.01, high=3.0, count=100, nudge=0.0),
                AxisSpec(name="d3", low=0.1, high=3.0, count=100, nudge=0.0),
            )
        result = run_sweep(SweepSpec(varied=axes, fixed=fixed))
        d3_cut, p2_cut = instability_region_bounds(a1, a2)
        p2, d3 = np.meshgrid(axes[0].grid(), axes[1].grid(), indexing="ij")
        reach = (p2 / p2_cut + d3 / d3_cut).ravel()
        unstable = result.class_codes == 1
        total_unstable += int(np.count_nonzero(unstable))
        off += int(np.count_nonzero(unstable != (reach < 1.0)))
        largest = max(largest, float(reach[unstable].max(initial=0.0)))
    ok = off == 0 and total_unstable > 0
    announce(
        capsys, 10, ok,
        f"{total_unstable} unstable points over {len(bases)} unit-rate grids, "
        f"{off} off the closed-form triangle (largest p2/p2_cut + d3/d3_cut {largest:.5f})",
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
    # 3200 points evaluated and written in blocks of 7 (not a divisor), of
    # 1000, and of 8192 (the whole grid in one block)
    chunks = (7, 1000, 8192)
    outputs = {}
    summaries = {}
    for chunk in chunks:
        monkeypatch.setattr("hematodyn.sweep._CHUNK", chunk)
        monkeypatch.setattr("hematodyn.sweep._CSV_BLOCK", chunk)
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


EXTENDED_RATES = ("a1", "a2", "p1", "p2", "d1", "d2", "d3")
# the box of criterion 13's rational draws
RATE_BOXES = dict(a1=(0.5, 1), a2=(0, 1), p1=(0, 2), p2=(0, 2), d1=(0, 1), d2=(0, 2), d3=(0, 3))


def _uniform(rng, low, high):
    # a uniform draw from the rationals with denominator 1e12 in (low, high)
    return Fraction(rng.randrange(int(low * 10**12) + 1, int(high * 10**12)), 10**12)


def _rational_points(rng, basic, n):
    """n points, uniform on a box of rationals with denominator 1e12 (k:
    1e22, from 1e-10 to 1e-8), where E2 exists; each is a namespace that
    the kernels read as parameters, with E2's s, a2*s and excess."""
    while n:
        rates = {name: _uniform(rng, low, high) for name, (low, high) in RATE_BOXES.items()}
        rates["k"] = Fraction(rng.randrange(10**12, 10**14), 10**22)
        if basic:
            rates.update(d1=Fraction(0), d2=Fraction(0))
        s, a2s, excess, exists = e2_conditions(*(rates[name] for name in EXTENDED_RATES[:6]))
        if exists:
            n -= 1
            yield SimpleNamespace(**rates, is_basic=basic, s=s, a2s=a2s, excess=excess)


def _state_E2(point):
    # E2's counts as a namespace that char_poly_at reads as a CellState
    u1, u2, u3 = _e2_counts(point, point.s, point.a2s, point.excess)
    return SimpleNamespace(u1=u1, u2=u2, u3=u3)


def _extended_margin(point, **changes):
    # b1*b2 - b3 of the extended closed form, with some rates changed
    rates = {name: changes.get(name, getattr(point, name)) for name in EXTENDED_RATES}
    return hurwitz_value(CharPolyCoeffs(*_extended_coeffs(**rates)))


def _newton_top(xs, ys):
    """Top row of the divided-difference table of the points (xs, ys): the
    coefficients of their Lagrange polynomial in Newton form, so entry m is
    0 exactly when the polynomial through the first m + 1 points has degree
    below m."""
    column, top = list(ys), [ys[0]]
    for gap in range(1, len(xs)):
        column = [(b - a) / (xs[i + gap] - xs[i]) for i, (a, b) in enumerate(zip(column, column[1:]))]
        top.append(column[0])
    return top


def test_criterion_13_exact_closed_forms(capsys):
    # Every closed form is a rational function of the rates, so each identity
    # below, checked with == on random rationals, holds exactly: a false one
    # would be a nonzero polynomial of degree D in the cleared denominators,
    # and vanishes at a uniform draw from 1e12 values per rate with chance at
    # most D/1e12 (Schwartz-Zippel), a bound that the existence filter
    # loosens by the share of the box it keeps
    rng = random.Random(1313)
    failed = {}
    values = []

    def check(name, ok):
        if not ok:
            failed[name] = failed.get(name, 0) + 1

    t0 = perf_counter()
    points = [*_rational_points(rng, True, 150), *_rational_points(rng, False, 150)]
    for point in points:
        coeffs = _char_poly_E2(point)
        at_state = char_poly_at(point, _state_E2(point))
        check("closed coefficients = charpoly(J at E2)", coeffs == at_state)
        other_k = SimpleNamespace(**{**vars(point), "k": point.k * _uniform(rng, 1, 100)})
        check("charpoly(J at E2) does not depend on k",
              char_poly_at(other_k, _state_E2(other_k)) == at_state)
        values += [coeffs.b1, coeffs.b2, coeffs.b3, at_state.b1, at_state.b2, at_state.b3]

        if point.is_basic:
            check("basic = extended at d1 = d2 = 0",
                  coeffs == CharPolyCoeffs(*_extended_coeffs(
                      point.a1, point.a2, point.p1, point.p2, 0, 0, point.d3)))
            # rescaled units from here on: p1 = 1
            r, p2, d3 = point.a2 / point.a1, point.p2 / point.p1, point.d3 / point.p1
            rescaled = CharPolyCoeffs(*_basic_coeffs_rescaled(point.a1, point.a2, p2, d3))
            factored = _hurwitz_factored(point.a1, r, p2, d3)
            check("factored = b1*b2 - b3", factored == hurwitz_value(rescaled))
            p2_star, lambda3, omega_sq = _hopf_rescaled(r, *_shape_constants(point.a1, r), d3)
            b1, b2, b3 = _basic_coeffs_rescaled(point.a1, point.a2, p2_star, d3)
            check("h = 0 at p2*", b1 * b2 - b3 == 0)
            check("b2 = omega^2 at p2*", b2 == omega_sq)
            check("b1 = -lambda3 at p2*", b1 == -lambda3)
            values += [factored, p2_star, lambda3, omega_sq, b1, b2, b3]
        else:
            # h is quadratic in p2 and in d2, and h/d3 affine in d3: the fit
            # through the point's own rate and `degree` more meets one more
            # point (the next divided difference is 0), and has that degree
            # exactly; basic points, on d1 = d2 = 0, would add nothing
            h = hurwitz_value(coeffs)
            for name, degree in (("p2", 2), ("d2", 2), ("d3", 1)):
                xs = [getattr(point, name)] + [_uniform(rng, 0, 2) for _ in range(degree + 1)]
                ys = [h] + [_extended_margin(point, **{name: x}) for x in xs[1:]]
                if name == "d3":
                    ys = [y / x for x, y in zip(xs, ys)]
                top = _newton_top(xs, ys)
                check(f"degree {degree} along {name}", top[degree] != 0 and top[degree + 1] == 0)
                values += ys
    elapsed = perf_counter() - t0
    not_exact = sorted({type(value).__name__ for value in values} - {"Fraction"})
    # about 0.4-0.6 s on a 2-core Xeon; the budget leaves room for slow spells
    ok = not failed and not not_exact and elapsed < 3.0
    announce(
        capsys, 13, ok,
        f"{len(points)} rational draws (150 basic, 150 extended) where E2 exists: "
        f"every identity exact, {elapsed:.2f}s"
        if ok else f"failed {failed}, non-Fraction results {not_exact}, {elapsed:.2f}s",
    )
    assert ok, (failed, not_exact, elapsed)
