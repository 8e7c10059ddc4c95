"""Certifying the closed-form solution numerically.

Shows the individual residual certifiers (radial equation, scaled
equation, angular equation), the normalization integral, and the full
verification battery including a deliberately broken solution that the
battery must reject.

Run:  python3 demos/demo_verification.py
"""
from confhydro import (
    ModelParams,
    QuantumNumbers,
    angular_ode_residual,
    normalization_report,
    radial_ode_residual,
    run_verification,
    u_ode_residual,
)

p = ModelParams(0.75)
qn = QuantumNumbers(3, 1)

print("residuals of the governing equations for (n=3, l=1), alpha=0.75:")
for label, rep in [
    ("radial", radial_ode_residual(qn, p)),
    ("scaled", u_ode_residual(qn, p)),
    ("angular", angular_ode_residual(1, 0, 0.75)),
]:
    print(
        f"  {label:8s} max relative residual {rep.max_rel_residual:.2e} "
        f"on {rep.grid_size} points (worst at {rep.worst_point:.3f})"
    )

print()
norm = normalization_report(qn, p)
print(f"normalization integral: {norm:.15f} (target 1)")

print()
print("full battery:")
report = run_verification("quick")
for check in report["checks"]:
    flag = "ok " if check["passed"] else "FAIL"
    print(
        f"  [{flag}] {check['name']:32s} measured {check['measured']:.3e} "
        f"{check['comparison']} {check['threshold']:.0e}"
    )
print(f"overall: passed={report['passed']} in {report['elapsed_seconds']}s")

print()
print("negative control: multiply the radial solution by (1 + 0.01 r)")
broken = run_verification("quick", inject_fault=True)
print(f"perturbed battery passed={broken['passed']} (must be False)")
