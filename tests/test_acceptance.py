"""End-to-end acceptance battery.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with -s to see them).  The
criteria cover the classical limit, normalization, the weighted Laguerre
integral identity, ODE residuals with negative controls, oracle
equivalence, closed-form table reproduction, figure-content properties,
and the certification command's runtime budget.
"""
import math
import time

import numpy as np
import pytest

from confhydro.calculus import conf_integral
from confhydro.hydrogen import (
    ModelParams,
    QuantumNumbers,
    energy_level,
    full_wavefunction,
    probability_density_radial,
    radial_wavefunction,
)
from confhydro.reference import (
    PSI_CLOSED_FORMS,
    RADIAL_CLOSED_FORMS,
    TEXTBOOK_RADIAL,
    textbook_spherical_harmonic,
)
from confhydro.special import (
    LaguerreParams,
    conf_laguerre,
    conf_laguerre_rodrigues_oracle,
    laguerre_orthogonality_constant,
)
from confhydro.verification import (
    angular_ode_residual,
    radial_ode_residual,
    run_verification,
    u_ode_residual,
)


def _announce(num, label, detail):
    print(f"PASS criterion {num}: {label} ({detail})")


def test_criterion_1_classical_limit():
    t0 = time.time()
    worst_e = max(
        abs(energy_level(n, 1.0) - (-13.6 / (n * n))) for n in range(1, 11)
    )
    assert worst_e <= 1e-12
    params = ModelParams(1.0)
    r = np.geomspace(1e-3, 20.0, 200)
    worst_w = 0.0
    for (n, l), ref in TEXTBOOK_RADIAL.items():
        got = radial_wavefunction(QuantumNumbers(n, l), params, r)
        worst_w = max(worst_w, float(np.max(np.abs(got - ref(r)))))
        for m_l in range(-l, l + 1):
            qn = QuantumNumbers(n, l, m_l)
            want = ref(r) * textbook_spherical_harmonic(l, m_l, 1.1, 0.7)
            psi = full_wavefunction(qn, params, r, 1.1, 0.7)
            worst_w = max(worst_w, float(np.max(np.abs(psi - want))))
    assert worst_w <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(
        1,
        "classical limit",
        f"energy dev {worst_e:.2e}, wavefunction dev {worst_w:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_normalization():
    t0 = time.time()
    worst = 0.0
    for alpha in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        params = ModelParams(alpha)
        for n in range(1, 6):
            for l in range(n):
                qn = QuantumNumbers(n, l)

                def integrand(r):
                    R = np.asarray(radial_wavefunction(qn, params, r), dtype=float)
                    return r ** (2.0 * alpha) * R * R

                worst = max(
                    worst, abs(conf_integral(integrand, alpha, 0.0, math.inf) - 1.0)
                )
    assert worst <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _announce(2, "normalization", f"worst |integral-1| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_integral_identity():
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        for s in range(4):
            for m in range(6):
                lp = LaguerreParams(s, m)

                def integrand(x):
                    v = np.asarray(conf_laguerre(lp, alpha, x), dtype=float)
                    return np.exp(-(x**alpha) / alpha) * x ** ((m + 1) * alpha) * v * v

                lhs = conf_integral(integrand, alpha, 0.0, math.inf)
                rhs = laguerre_orthogonality_constant(lp, alpha)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-8
    _announce(3, "integral identity", f"worst relative dev {worst:.2e}")


def test_criterion_4_ode_residuals():
    worst_r = worst_u = 0.0
    for alpha in (0.5, 0.75, 1.0):
        params = ModelParams(alpha)
        for n in range(1, 5):
            for l in range(n):
                qn = QuantumNumbers(n, l)
                worst_r = max(
                    worst_r, radial_ode_residual(qn, params).max_rel_residual
                )
                worst_u = max(worst_u, u_ode_residual(qn, params).max_rel_residual)
    assert worst_r <= 1e-6
    assert worst_u <= 1e-6
    worst_a = 0.0
    for alpha in (0.5, 0.75, 1.0):
        for l in range(3):
            for m_l in range(l + 1):
                worst_a = max(
                    worst_a, angular_ode_residual(l, m_l, alpha).max_rel_residual
                )
    assert worst_a <= 1e-5
    control = radial_ode_residual(
        QuantumNumbers(2, 0),
        ModelParams(0.75),
        inject_fault=True,
    ).max_rel_residual
    assert control >= 100.0 * max(worst_r, 1e-12)
    _announce(
        4,
        "ODE residuals",
        f"radial {worst_r:.2e}, scaled {worst_u:.2e}, angular {worst_a:.2e}, "
        f"control {control:.2e}",
    )


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        for s in range(4):
            for m in range(6):
                lp = LaguerreParams(s, m)
                for x in (0.5, 1.0, 2.0, 5.0):
                    worst = max(
                        worst,
                        abs(
                            conf_laguerre(lp, alpha, x)
                            - conf_laguerre_rodrigues_oracle(lp, alpha, x)
                        ),
                    )
    assert worst <= 1e-5
    _announce(5, "oracle equivalence", f"worst dev {worst:.2e}")


def test_criterion_6_table_reproduction():
    grid = np.linspace(0.2, 15.0, 50)
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        params = ModelParams(alpha)
        theta = 1.1 ** (1.0 / alpha)
        phi = 0.7 ** (1.0 / alpha)
        for (n, l), closed in RADIAL_CLOSED_FORMS.items():
            got = radial_wavefunction(QuantumNumbers(n, l), params, grid)
            want = np.asarray(closed(alpha, 1.0, grid), dtype=float)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        for (n, l, m_l), closed in PSI_CLOSED_FORMS.items():
            qn = QuantumNumbers(n, l, m_l)
            got = full_wavefunction(qn, params, grid, theta, phi)
            want = np.asarray(closed(alpha, 1.0, grid, theta, phi), dtype=complex)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    assert worst <= 1e-12
    _announce(6, "table reproduction", f"worst dev {worst:.2e} over 10 closed forms")


def test_criterion_7_figure_content():
    grid = np.linspace(0.05, 20.0, 400)
    for n, l in ((1, 0), (2, 1), (3, 2)):
        qn = QuantumNumbers(n, l)
        ref = probability_density_radial(qn, ModelParams(1.0), grid).values
        gaps = [
            float(
                np.max(
                    np.abs(
                        probability_density_radial(
                            qn, ModelParams(a), grid
                        ).values
                        - ref
                    )
                )
            )
            for a in (0.6, 0.8, 0.9)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
    for alpha in (0.5, 0.7, 0.9, 1.0):
        levels = [energy_level(n, alpha) for n in range(1, 11)]
        assert all(b > c for c, b in zip(levels, levels[1:]))
    # ordering across alpha at fixed n matches direct formula evaluation
    alphas = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    for n in (1, 2, 5, 10):
        table_order = np.argsort([energy_level(n, a) for a in alphas])
        direct = [
            -(13.6**a) / (2.0 ** (1.0 - a) * a * a * n * n) for a in alphas
        ]
        assert list(table_order) == list(np.argsort(direct))
    _announce(7, "figure content", "density convergence and energy ordering hold")


def test_criterion_8_verify_budget():
    t0 = time.time()
    report = run_verification("full")
    elapsed = time.time() - t0
    assert report["passed"] is True
    assert elapsed < 120.0
    broken = run_verification("quick", inject_fault=True)
    assert broken["passed"] is False
    _announce(
        8,
        "certification budget",
        f"full suite passed in {elapsed:.1f}s, perturbed build fails",
    )
