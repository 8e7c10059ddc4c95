"""Radial probability densities and their classical limit.

Evaluates the density r^(2 alpha) |R|^2 for a few states and derivative
orders, locates the most probable radius, and confirms the curves drift
toward the classical alpha = 1 shape as the order approaches 1.

Run:  python3 demos/demo_density_curves.py
"""
import numpy as np

from confhydro import ModelParams, QuantumNumbers, probability_density_radial

grid = np.linspace(0.05, 20.0, 800)
states = [(1, 0), (2, 1), (3, 2)]
alphas = [0.6, 0.8, 0.9, 1.0]

print("most probable radius (argmax of the density):")
print("state      " + "".join(f"alpha={a:<8.1f}" for a in alphas))
for n, l in states:
    qn = QuantumNumbers(n, l)
    row = f"(n={n},l={l})  "
    for a in alphas:
        curve = probability_density_radial(qn, ModelParams(a), grid)
        row += f"{grid[np.argmax(curve.values)]:<14.3f}"
    print(row)

print()
print("max-norm distance to the classical curve (should shrink toward 0):")
for n, l in states:
    qn = QuantumNumbers(n, l)
    ref = probability_density_radial(qn, ModelParams(1.0), grid).values
    gaps = []
    for a in alphas[:-1]:
        cur = probability_density_radial(qn, ModelParams(a), grid).values
        gaps.append(float(np.max(np.abs(cur - ref))))
    print(f"  (n={n},l={l}): " + "  ".join(f"{g:.4f}" for g in gaps))

print()
print("A coarse ASCII sketch of the ground-state density:")
sketch_grid = np.linspace(0.1, 6.0, 30)
for a in (0.6, 1.0):
    curve = probability_density_radial(
        QuantumNumbers(1, 0), ModelParams(a), sketch_grid
    )
    scaled = (curve.values / curve.values.max() * 40).astype(int)
    print(f"alpha = {a}")
    for r, w in zip(sketch_grid, scaled):
        print(f"  r={r:5.2f} |" + "#" * w)
