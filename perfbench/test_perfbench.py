"""Smoke tests of the benchmark's own code, at tiny sizes.

    python -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from mqca.lattice import Topology  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import Circuits, CompileCold, Dense24, Verify  # noqa: E402

TINY = {
    "circuits": lambda rec, wd: Circuits(1, rec, wd,
                                         profile=((20, False), (60, False))),
    "compile-cold": lambda rec, wd: CompileCold(1, rec, wd, rows=(4,)),
    "verify": lambda rec, wd: Verify(1, rec, wd, lattices=((1, 2), (2, 2))),
    "dense-24": lambda rec, wd: Dense24(1, rec, wd, lattices=(
        (1, 2, Topology.TORUS), (1, 3, Topology.PLANAR))),
}


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_tiny(name, tmp_path, trace=False):
    rec = Recorder()
    wl = TINY[name](rec, str(tmp_path))
    measured = {"gates.build_tau_s": 0.0, **wl.setup()}
    spent, counts = run.run_rounds(wl, rec, wl.make_round(), 0, trace)
    return wl, rec, spent, counts, measured


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes_its_checks(name, tmp_path):
    wl, rec, spent, _, _ = _run_tiny(name, tmp_path)
    assert rec.latency and not rec.failed and rec.unit_errors == 0
    metrics = run.end_to_end(wl, rec, spent, setup_s=0.1)
    assert metrics["pass_frac"] == 1.0
    assert all(v > 0 for v in metrics.values())


def _corrupt_output_register(monkeypatch):
    real = workloads.factored.output_register
    monkeypatch.setattr(workloads.factored, "output_register",
                        lambda state, **kw: np.roll(real(state, **kw), 1))


def _corrupt_program_file(monkeypatch):
    real = CompileCold._spawn

    def spawn(self, argv, stderr_path):
        code, usage = real(self, argv, stderr_path)
        path = argv[-1]
        with open(path, encoding="utf-8") as fh:
            prog = json.load(fh)
        prog["columns"] = ["0" * len(c) for c in prog["columns"]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(prog, fh)
        return code, usage

    monkeypatch.setattr(CompileCold, "_spawn", spawn)


def _corrupt_to_dense(monkeypatch):
    real = workloads.factored.to_dense

    def to_dense(state):
        out = real(state)
        out.amplitudes = np.roll(out.amplitudes, 1)
        return out

    monkeypatch.setattr(workloads.factored, "to_dense", to_dense)


def _corrupt_marginal(monkeypatch):
    real = workloads.dense.column_marginal
    monkeypatch.setattr(workloads.dense, "column_marginal",
                        lambda state, x: np.roll(real(state, x), 1, (0, 1)))


def _corrupt_wavefront(monkeypatch):
    """A last cut rank below the one before it from t = 1 on, where only
    the rising-ranks check of `mqca verify` looks at the last cut."""
    real = workloads.verify.wavefront_profile

    def wavefront_profile(state):
        profile = list(real(state))
        if state.t >= 1:
            profile[-1] = 0
        return profile

    monkeypatch.setattr(workloads.verify, "wavefront_profile",
                        wavefront_profile)


@pytest.mark.parametrize("name, corrupt", [
    ("circuits", _corrupt_output_register),
    ("compile-cold", _corrupt_program_file),
    ("verify", _corrupt_to_dense),
    ("verify", _corrupt_wavefront),
    ("dense-24", _corrupt_marginal),
])
def test_corrupted_output_counts_as_failure(name, corrupt, tmp_path,
                                            monkeypatch):
    corrupt(monkeypatch)
    wl, rec, spent, _, _ = _run_tiny(name, tmp_path)
    assert rec.failed
    assert run.end_to_end(wl, rec, spent, setup_s=0.1)["pass_frac"] < 1.0


def test_op_that_raises_counts_as_failure(tmp_path, monkeypatch):
    def boom(*args, **kw):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads.dense, "init_state", boom)
    wl, rec, spent, _, _ = _run_tiny("dense-24", tmp_path)
    assert rec.unit_errors == 2 and not rec.latency


@pytest.mark.parametrize("pool_size", [(0, 0), Circuits.POOL])
def test_draw_keeps_the_profile_length(pool_size, tmp_path, monkeypatch):
    monkeypatch.setattr(Circuits, "POOL", pool_size)
    wl = Circuits(3, Recorder(), str(tmp_path))
    circuit = wl._draw(wl._pool(), 180, long_range=True)
    assert workloads.compiler.compile_circuit(circuit, 2)[1] == 180
    assert any(g.name == "CNOT" and abs(g.qubits[0] - g.qubits[1]) >= 2
               for g in circuit.gates)


def test_same_seed_gives_same_inputs(tmp_path):
    rounds = []
    for _ in range(2):
        wl = Circuits(5, Recorder(), str(tmp_path))
        pool = wl._pool()
        rounds.append([wl._draw(pool, r, lr) for r, lr in wl.PROFILE])
    assert rounds[0] == rounds[1]


@pytest.mark.parametrize("name", ["circuits", "verify", "dense-24"])
def test_register_updates_are_counted_from_the_program(name, tmp_path):
    _, rec, _, _, _ = _run_tiny(name, tmp_path)
    updates = rec.counts["factored.register_updates"]
    assert updates >= rec.counts["factored.useful_updates"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_match_benchmark_json(name, tmp_path):
    wl, rec, spent, counts, measured = _run_tiny(name, tmp_path, trace=True)
    rec.tracer.enabled = True
    measured.update(wl.trace_extras())
    metrics = run.per_layer(wl, rec, spent, counts, measured)
    declared = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert list(metrics) and set(metrics) == set(declared)
    assert dict(run.PER_LAYER) == declared
    assert rec.tracer.spans and metrics["op.total_s"] > 0


def test_benchmark_json_schema():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in every]
    assert len(names) == len(set(names))
    assert all(name_re.match(m["name"]) and unit_re.match(m["unit"])
               and m["better"] in ("higher", "lower") for m in every)
    assert dict(run.END_TO_END) == {m["name"]: m["unit"]
                                    for m in bench["end_to_end"]}
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_command_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-cold",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _bench()["end_to_end"]}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "circuits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
