"""The four workloads: their inputs, operations, gates and summary metrics.

Every workload is a closed loop with one client: one CLI subprocess or one
library call at a time.  ``ops(seed, i)`` returns the operations of pass
``i``; the same (seed, i) always gives the same inputs, and the program
only ever sees those generated inputs.

The operations stay inside the range the program handles correctly today, so
none fails.  Its known defects are shown by fixed probes instead
(``Workload.defects``), which every run makes once, untimed, and reports.
"""
from __future__ import annotations

import math
import random
import statistics
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import gates

EXPORT_ALPHAS = ["0.5", "0.6", "0.7", "0.8", "0.9", "1.0"]
TABLE_ALPHAS = ["0.5", "0.75", "1.0"]
DENSITY_R_MAX = 20.0
DENSITY_POINTS = 400
SLICE_POINTS = 150
GRID_POINTS = 10**6
GRID_R = (1e-3, 60.0)
GRID_N_MAX = 10
GRID_CHUNK = 10**5
# the default quadrature fails above n = 12 today (ROADMAP item 3), so the
# timed states stop there; NORM_DEFECTS shows the failures
SUPPORTED_N_MAX = 12
NORM_BANDS = ((1, 4), (5, 8), (9, SUPPORTED_N_MAX))
NORM_PER_BAND = 8
PAIRS = 6
# one state per band above SUPPORTED_N_MAX that raises ConvergenceError
# today, and (60, 59, 0.5), which converges to a silently wrong 7.9e-18
NORM_DEFECTS = ((15, 3, 1.0), (20, 10, 0.5), (40, 5, 0.6), (60, 0, 1.0), (60, 59, 0.5))
# for m != 0 the program forms sin(theta^alpha) as sqrt(1 - cos^2), which
# cancels near the poles: psi_211 misses its closed form by up to ~4e-9 at
# theta^alpha = 1e-8 from a pole, but by less than 2e-14 wherever
# sin(theta^alpha) >= 1e-3.  The grid compares psi_211 there; the probe
# below shows the pole zone.
POLE_ZONE_SIN = 1e-3
POLE_DEFECT_X = (1e-8, math.pi - 1e-8)
POLE_DEFECT_ALPHAS = (0.5, 0.75, 1.0)


@dataclass
class Op:
    """One operation: a CLI command (``argv``) or a library call (``call``)."""

    kind: str
    label: str
    gate: Callable[[Any], list]
    argv: Optional[list] = None
    call: Optional[Callable[[Any], Any]] = None
    prepare: Callable[[], Any] = lambda: None
    points: int = 0
    integrals: int = 0


@dataclass
class Record:
    kind: str
    label: str
    seconds: float
    problems: list = field(default_factory=list)
    points: int = 0
    integrals: int = 0
    probe_s: float = 0.0  # host speed around the operation
    bytes_out: int = 0
    rows_out: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _median_of(records, kind) -> float:
    return statistics.median(r.seconds for r in records if r.kind == kind)


@dataclass
class Workload:
    name: str
    why: str
    cli: bool
    sizes: dict
    warmup: str  # Python run after ``import confhydro`` in the set-up child
    ops: Callable[[int, int], list] = field(repr=False)
    # records -> {metric: (value, unit)}
    summary: Callable[[list], dict] = field(repr=False)
    # () -> [(label, problems)]: fixed probes of known defects
    defects: Callable[[], list] = field(repr=False, default=lambda: [])


# -- verify -----------------------------------------------------------------

VERIFY_ARGV = {
    "verify_full": (["verify", "--level", "full"], 0),
    "verify_quick": (["verify", "--level", "quick"], 0),
    "verify_fault": (["verify", "--level", "quick", "--inject-fault"], 2),
}


def verify_ops(seed: int, i: int) -> list:
    ops = []
    for kind, (argv, code) in VERIFY_ARGV.items():
        ops.append(
            Op(
                kind=kind,
                label=" ".join(argv),
                argv=argv,
                gate=lambda out, code=code: gates.verify(out[0], out[1], code),
            )
        )
    random.Random(f"verify:{seed}:{i}").shuffle(ops)
    return ops


def verify_summary(records) -> dict:
    return {f"{k}_s": (_median_of(records, k), "s") for k in VERIFY_ARGV}


# -- export -----------------------------------------------------------------


def export_ops(seed: int, i: int) -> list:
    from confhydro import ModelParams, QuantumNumbers, probability_density_radial

    rng = random.Random(f"export:{seed}:{i}")
    n = rng.randint(1, 6)
    l = rng.randint(0, n - 1)
    m = rng.randint(-l, l)
    alpha = repr(rng.uniform(0.5, 1.0))
    grid = np.linspace(0.0, DENSITY_R_MAX, DENSITY_POINTS + 1)[1:]
    ref = probability_density_radial(
        QuantumNumbers(n, l), ModelParams.natural(float(alpha)), grid
    ).values
    state = ["--n", str(n), "--l", str(l)]
    ops = [
        Op(
            kind="energy",
            label="energy",
            argv=["energy", "--n-max", "10", "--alpha-list", *EXPORT_ALPHAS],
            gate=lambda out: gates.energy(
                out[0], out[1], [float(a) for a in EXPORT_ALPHAS], 10
            ),
        )
    ]
    for fmt in ("csv", "json"):
        ops.append(
            Op(
                kind="density",
                label=f"density {n} {l} {alpha} {fmt}",
                argv=["density", *state, "--alpha-list", alpha, "--format", fmt],
                gate=lambda out, fmt=fmt: gates.density(out[0], out[1], fmt, grid, ref),
            )
        )
    for which in ("radial", "psi"):
        ops.append(
            Op(
                kind="table",
                label=f"table {which}",
                argv=["table", "--which", which, "--alpha-list", *TABLE_ALPHAS],
                gate=lambda out, which=which: gates.table(
                    out[0], out[1], which, len(TABLE_ALPHAS)
                ),
            )
        )
    ops.append(
        Op(
            kind="slice",
            label=f"slice {n} {l} {m} {alpha}",
            argv=[
                "slice", *state, "--m", str(m), "--alpha", alpha,
                "--points", str(SLICE_POINTS),
            ],
            gate=lambda out: gates.slice_(out[0], out[1], SLICE_POINTS),
        )
    )
    return ops


def export_summary(records) -> dict:
    return {f"{k}_s": (_median_of(records, k), "s") for k in ("energy", "density", "table", "slice")}


# -- grid -------------------------------------------------------------------


def _grid_state(seed: int, i: int, n: int, l: int, m: int, alpha: float) -> Op:
    import confhydro
    from confhydro import reference

    qn = confhydro.QuantumNumbers(n, l, m)
    params = confhydro.ModelParams.natural(alpha)

    def prepare():
        rng = np.random.default_rng([seed, i, n])
        # theta^alpha uniform in (0, pi), phi^alpha uniform in [0, 2 pi)
        x = rng.uniform(np.nextafter(0.0, 1.0), math.pi, GRID_POINTS)
        y = rng.uniform(0.0, 2.0 * math.pi, GRID_POINTS)
        r = np.geomspace(GRID_R[0], GRID_R[1], GRID_POINTS)
        return r, x ** (1.0 / alpha), y ** (1.0 / alpha)

    def call(inputs):
        r, theta, phi = inputs
        return inputs, {
            "radial": confhydro.radial_wavefunction(qn, params, r),
            "density": confhydro.probability_density_radial(qn, params, r).values,
            "psi": confhydro.full_wavefunction(qn, params, r, theta, phi),
        }

    def reference_chunks(r, theta, phi):
        # chunked, so that the check does not raise the process's peak
        # memory above the program's own
        for lo in range(0, GRID_POINTS, GRID_CHUNK):
            sl = slice(lo, lo + GRID_CHUNK)
            refs = {}
            if (n, l) in reference.RADIAL_CLOSED_FORMS:
                rad = reference.RADIAL_CLOSED_FORMS[(n, l)](alpha, 1.0, r[sl])
                refs["radial"] = rad
                refs["density"] = r[sl] ** (2.0 * alpha) * rad * rad
            if (n, l, m) in reference.PSI_CLOSED_FORMS and m == 0:
                refs["psi"] = reference.PSI_CLOSED_FORMS[(n, l, m)](
                    alpha, 1.0, r[sl], theta[sl], phi[sl]
                )
            yield sl, refs
            if (n, l, m) in reference.PSI_CLOSED_FORMS and m != 0:
                # outside the pole zone (see POLE_ZONE_SIN)
                idx = lo + np.flatnonzero(np.abs(np.sin(theta[sl] ** alpha)) >= POLE_ZONE_SIN)
                yield idx, {"psi": reference.PSI_CLOSED_FORMS[(n, l, m)](
                    alpha, 1.0, r[idx], theta[idx], phi[idx]
                )}

    def gate(out):
        inputs, arrays = out
        return gates.grid(arrays, reference_chunks(*inputs))

    return Op(
        kind="grid",
        label=f"grid {n} {l} {m} {alpha!r}",
        call=call,
        prepare=prepare,
        gate=gate,
        points=3 * GRID_POINTS,
    )


def grid_ops(seed: int, i: int) -> list:
    # one state per n keeps the mix of n, and so of recurrence depth, alike
    # in every pass
    rng = random.Random(f"grid:{seed}:{i}")
    ops = []
    for n in range(1, GRID_N_MAX + 1):
        l = rng.randint(0, n - 1)
        ops.append(_grid_state(seed, i, n, l, rng.randint(-l, l), rng.uniform(0.5, 1.0)))
    return ops


def grid_defects() -> list:
    """psi_211 against its closed form 1e-8 from each pole."""
    import confhydro
    from confhydro import reference

    qn = confhydro.QuantumNumbers(2, 1, 1)
    found = []
    for alpha in POLE_DEFECT_ALPHAS:
        x = np.array(POLE_DEFECT_X)
        r = np.full_like(x, (4.0 * alpha * alpha) ** (1.0 / alpha))  # radial peak
        theta, phi = x ** (1.0 / alpha), np.full_like(x, 0.3 ** (1.0 / alpha))
        psi = confhydro.full_wavefunction(qn, confhydro.ModelParams.natural(alpha), r, theta, phi)
        ref = reference.PSI_CLOSED_FORMS[(2, 1, 1)](alpha, 1.0, r, theta, phi)
        problems = gates.grid({"psi": psi}, [(slice(None), {"psi": ref})])
        found.append((f"psi 2 1 1 {alpha!r} at the poles", problems))
    return found


def grid_summary(records) -> dict:
    ok_points = sum(r.points for r in records if r.ok)
    return {"points_per_s": (ok_points / sum(r.seconds for r in records), "1/s")}


# -- normalize ----------------------------------------------------------------


def _norm_state(n: int, l: int, alpha: float) -> Op:
    import confhydro

    qn = confhydro.QuantumNumbers(n, l)
    params = confhydro.ModelParams.natural(alpha)
    return Op(
        kind="normalization",
        label=f"normalization {n} {l} {alpha!r}",
        call=lambda _: confhydro.normalization_report(qn, params),
        gate=gates.normalization,
        integrals=1,
    )


def _split_pair(n: int, l: int, alpha: float, c: float) -> Op:
    import confhydro

    qn = confhydro.QuantumNumbers(n, l)
    params = confhydro.ModelParams.natural(alpha)
    # the density peaks near r^alpha ~ alpha^2 n^2; c in [1/4, 2] puts the
    # split on either side of the peak
    split = (c * alpha * alpha * n * n) ** (1.0 / alpha)

    def integrand(r):
        R = confhydro.radial_wavefunction(qn, params, r)
        return r ** (2.0 * alpha) * R * R

    def call(_):
        return (
            confhydro.conf_integral(integrand, alpha, 0.0, split),
            confhydro.conf_integral(integrand, alpha, split, math.inf),
        )

    return Op(
        kind="split_pair",
        label=f"split pair {n} {l} {alpha!r} R={split!r}",
        call=call,
        gate=lambda out: gates.split_pair(*out),
        integrals=2,
    )


def normalize_ops(seed: int, i: int) -> list:
    rng = random.Random(f"normalize:{seed}:{i}")
    ops = []
    for band, (lo, hi) in enumerate(NORM_BANDS):
        for j in range(NORM_PER_BAND):
            n = rng.randint(lo, hi)
            last = band == len(NORM_BANDS) - 1 and j == 0
            l = n - 1 if last else rng.randint(0, n - 1)
            ops.append(_norm_state(n, l, rng.uniform(0.5, 1.0)))
    for _ in range(PAIRS):
        n = rng.randint(1, SUPPORTED_N_MAX)
        ops.append(
            _split_pair(n, rng.randint(0, n - 1), rng.uniform(0.5, 1.0), rng.uniform(0.25, 2.0))
        )
    return ops


def normalize_defects() -> list:
    """normalization_report on the states of NORM_DEFECTS."""
    import confhydro

    found = []
    for n, l, alpha in NORM_DEFECTS:
        try:
            with warnings.catch_warnings():
                # scipy's Laguerre recurrence overflows at large n
                warnings.simplefilter("ignore", RuntimeWarning)
                value = confhydro.normalization_report(
                    confhydro.QuantumNumbers(n, l), confhydro.ModelParams.natural(alpha)
                )
            problems = gates.normalization(value)
        except Exception as exc:  # the program failed
            problems = [f"{type(exc).__name__}: {exc}"]
        found.append((f"normalization {n} {l} {alpha!r}", problems))
    return found


def normalize_summary(records) -> dict:
    ok_integrals = sum(r.integrals for r in records if r.ok)
    return {"integrals_per_s": (ok_integrals / sum(r.seconds for r in records), "1/s")}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify",
            why="CLI certification battery: per-point scalar calls through the certifiers",
            cli=True,
            sizes={"commands": [" ".join(a) for a, _ in VERIFY_ARGV.values()]},
            warmup=(
                "import confhydro.cli\n"
                "q, p = confhydro.QuantumNumbers(2, 1), confhydro.ModelParams.natural(0.75)\n"
                "confhydro.radial_ode_residual(q, p)\n"
                "confhydro.normalization_report(q, p)\n"
            ),
            ops=verify_ops,
            summary=verify_summary,
        ),
        Workload(
            name="export",
            why="CLI exports: start-up, import, formatting and the per-point slice loop",
            cli=True,
            sizes={
                "energy_n_max": 10,
                "density_points": DENSITY_POINTS,
                "table_alphas": len(TABLE_ALPHAS),
                "slice_points": SLICE_POINTS,
            },
            warmup=(
                "import confhydro.cli\n"
                "confhydro.cli.main(['energy', '--n-max', '1', '--output', OUT])\n"
            ),
            ops=export_ops,
            summary=export_summary,
        ),
        Workload(
            name="grid",
            why="library array kernels: 1e6-point grids, few calls, no certifier or quadrature",
            cli=False,
            sizes={
                "points": GRID_POINTS,
                "states_per_pass": GRID_N_MAX,
                "n_max": GRID_N_MAX,
                "psi_211_pole_zone_sin": POLE_ZONE_SIN,
            },
            warmup=(
                "import numpy as np\n"
                "q, p = confhydro.QuantumNumbers(2, 1, 1), confhydro.ModelParams.natural(0.75)\n"
                "r = np.geomspace(1e-3, 60.0, 1000)\n"
                "confhydro.full_wavefunction(q, p, r, 1.0, 0.5)\n"
                "confhydro.probability_density_radial(q, p, r)\n"
            ),
            ops=grid_ops,
            summary=grid_summary,
            defects=grid_defects,
        ),
        Workload(
            name="normalize",
            why="quadrature: normalisation integrals over n bands up to 12 and split finite ranges",
            cli=False,
            sizes={
                "bands": NORM_BANDS,
                "states_per_band": NORM_PER_BAND,
                "known_defect_states": NORM_DEFECTS,
                "split_pairs": PAIRS,
                "supported_n_max": SUPPORTED_N_MAX,
            },
            warmup=(
                "confhydro.normalization_report(confhydro.QuantumNumbers(2, 1),"
                " confhydro.ModelParams.natural(0.75))\n"
            ),
            ops=normalize_ops,
            summary=normalize_summary,
            defects=normalize_defects,
        ),
    )
}
