"""Tracer wrapping, span structure checks, and the benchmark's own contract."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import confhydro
import run
import tracing
import workloads
from confhydro import ModelParams, QuantumNumbers, calculus, hydrogen, special, verification

BENCH_DIR = Path(run.__file__).resolve().parent
REPO = BENCH_DIR.parent


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (
        hydrogen.laguerre_assoc,
        special.laguerre_assoc,
        verification.conf_derivative,
        confhydro.radial_wavefunction,
        calculus.roots_laguerre,
    )
    with tracing.Tracer():
        assert hydrogen.laguerre_assoc is special.laguerre_assoc
        assert hydrogen.laguerre_assoc.__wrapped__ is originals[0]
        assert verification.conf_derivative.__wrapped__ is originals[2]
        assert confhydro.radial_wavefunction is hydrogen.radial_wavefunction
        assert calculus.roots_laguerre.__wrapped__ is originals[4]
    assert (
        hydrogen.laguerre_assoc,
        special.laguerre_assoc,
        verification.conf_derivative,
        confhydro.radial_wavefunction,
        calculus.roots_laguerre,
    ) == originals


def traced_normalization():
    tracer = tracing.Tracer()
    with tracer:
        with tracer.spans.span("op.test"):
            confhydro.normalization_report(QuantumNumbers(3, 1), ModelParams.natural(0.8))
    return tracer.spans


def test_spans_nest_and_counts_repeat():
    first, second = traced_normalization(), traced_normalization()
    assert tracing.sanity_problems(first) == []
    assert tracing.count_mismatches(first, second) == []
    summary = tracing.summarize(first)
    assert summary["verification.normalization_report"]["calls"] == 1
    assert summary["calculus.conf_integral"]["calls"] == 1
    # coarse and fine Gauss-Laguerre rules: two calls, two distinct sizes
    assert summary["calculus.nodes"]["calls"] == 2
    assert summary["calculus.nodes"]["distinct"] == 2
    assert summary["hydrogen.radial_wavefunction"]["calls"] == 2
    assert summary["special.laguerre_assoc"]["points"] > 0
    parent = summary["calculus.conf_integral"]
    assert 0.0 <= parent["self_s"] <= parent["s"]
    values = tracing.layer_values(summary)
    assert values["calculus.nodes.useful_ratio"] == 1.0
    assert values["cli.cmd_verify.s"] == 0.0


def test_failed_calls_are_counted():
    tracer = tracing.Tracer()
    with tracer:
        try:
            confhydro.normalization_report(QuantumNumbers(30, 1), ModelParams.natural(0.6))
        except confhydro.ConvergenceError:
            pass
    assert tracing.summarize(tracer.spans)["calculus.conf_integral"]["failed"] == 1


def test_sanity_flags_child_outside_parent_and_count_change():
    spans = tracing.Spans()
    outer, inner = spans.name_id("outer"), spans.name_id("inner")
    p = spans.open(outer)
    c = spans.open(inner)
    spans.stack.clear()
    spans.start[p], spans.end[p] = 1.0, 2.0
    spans.start[c], spans.end[c] = 1.0, 2.5
    assert any("outside" in msg for msg in tracing.sanity_problems(spans))
    assert any("negative self" in msg for msg in tracing.sanity_problems(spans))
    assert tracing.count_mismatches(spans, traced_normalization())


def test_layer_metric_names_match_benchmark_json():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _, _ in tracing.layer_metrics()]
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(run.E2E_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_seed_and_pass():
    for w in workloads.WORKLOADS.values():
        labels = [op.label for op in w.ops(7, 3)]
        assert labels == [op.label for op in w.ops(7, 3)]
        if w.name != "verify":  # verify only reorders its three commands
            assert labels != [op.label for op in w.ops(8, 3)]
    grid = [op.label for op in workloads.grid_ops(7, 0)]
    assert [int(label.split()[1]) for label in grid] == list(range(1, 11))


def test_normalize_pass_covers_bands_inside_the_supported_range():
    ops = workloads.normalize_ops(3, 0)
    states = [op for op in ops if op.kind == "normalization"]
    ns = [int(op.label.split()[1]) for op in states]
    for lo, hi in workloads.NORM_BANDS:
        assert sum(lo <= n <= hi for n in ns) >= workloads.NORM_PER_BAND
    assert max(ns) <= workloads.SUPPORTED_N_MAX
    last_band = [op.label.split()[1:3] for op in states if int(op.label.split()[1]) > 8]
    assert any(int(l) == int(n) - 1 for n, l in last_band)


def test_known_defects_are_probed_and_fail_today():
    norm = dict(workloads.normalize_defects())
    assert list(norm) == [f"normalization {n} {l} {a!r}" for n, l, a in workloads.NORM_DEFECTS]
    assert all(norm.values())
    assert "ConvergenceError" in norm["normalization 20 10 0.5"][0]
    assert "7.86" in norm["normalization 60 59 0.5"][0]
    pole = workloads.grid_defects()
    assert len(pole) == len(workloads.POLE_DEFECT_ALPHAS)
    assert all(p[0].startswith("psi: differs from the closed form") for _, p in pole)
    assert workloads.WORKLOADS["verify"].defects() == []


def test_grid_compares_psi_211_outside_the_pole_zone(tmp_path):
    op = workloads._grid_state(1, 0, 2, 1, 1, 0.7)
    rec = run.Runner(in_process=True, tmp=tmp_path).run_op(op)
    assert rec.ok and rec.points == 3 * workloads.GRID_POINTS
    (r, theta, phi), arrays = op.call(op.prepare())
    arrays["psi"][np.argmax(np.sin(theta ** 0.7))] += 1e-9
    assert op.gate(((r, theta, phi), arrays))


def test_runner_counts_a_raising_call_as_failed(tmp_path):
    runner = run.Runner(in_process=True, tmp=tmp_path)
    rec = runner.run_op(workloads._norm_state(20, 3, 0.7))
    assert not rec.ok and "ConvergenceError" in rec.problems[0]
    rec = runner.run_op(workloads._norm_state(4, 2, 0.7))
    assert rec.ok and rec.integrals == 1


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
