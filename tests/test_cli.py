import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqca.cli import main
from mqca.gates import build_tau, parse_tau_dump


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.fixture
def small_program(tmp_path):
    path = tmp_path / "prog.json"
    write_json(path, {"s": 1, "r": 2, "columns": ["10", "01"]})
    return path


class TestCompileCommand:
    def test_empty_circuit(self, tmp_path, capsys):
        circ = tmp_path / "c.json"
        out = tmp_path / "p.json"
        write_json(circ, {"rows": 2, "gates": []})
        assert main(["compile", str(circ), "--out", str(out)]) == 0
        prog = json.loads(out.read_text())
        assert prog["r"] == 20
        assert all(c == "00" for c in prog["columns"])

    def test_t_gate_column(self, tmp_path):
        circ = tmp_path / "c.json"
        out = tmp_path / "p.json"
        write_json(circ, {"rows": 2, "gates": [{"g": "T", "q": 0}]})
        assert main(["compile", str(circ), "--out", str(out)]) == 0
        prog = json.loads(out.read_text())
        assert prog["columns"][0] == "10"

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["compile", str(bad)]) == 2

    def test_non_adjacent_cz_exit_3(self, tmp_path):
        circ = tmp_path / "c.json"
        write_json(circ, {"rows": 4, "gates": [{"g": "CZ", "a": 0, "b": 2}]})
        assert main(["compile", str(circ)]) == 3


class TestRunCommand:
    def test_identity_like_program(self, small_program, tmp_path):
        out = tmp_path / "out.json"
        assert main(["run", str(small_program), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        amps = np.array([complex(re, im) for re, im in result["amplitudes"]])
        assert abs(np.linalg.norm(amps) - 1) < 1e-10
        assert result["metadata"]["t"] == 2

    def test_backends_agree(self, small_program, tmp_path):
        out_f = tmp_path / "f.json"
        out_d = tmp_path / "d.json"
        assert main(["run", str(small_program), "--backend", "factored",
                     "--out", str(out_f)]) == 0
        assert main(["run", str(small_program), "--backend", "dense",
                     "--out", str(out_d)]) == 0
        a = np.array([complex(re, im) for re, im in
                      json.loads(out_f.read_text())["amplitudes"]])
        b = np.array([complex(re, im) for re, im in
                      json.loads(out_d.read_text())["amplitudes"]])
        assert abs(np.vdot(a, b)) >= 1 - 1e-10

    def test_sampling_deterministic(self, small_program, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert main(["run", str(small_program), "--backend", "dense",
                         "--samples", "50", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text())["samples"])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("data", [5, [None], [[1]], {"0": "10"}, ["101"]])
    def test_malformed_data_exit_2(self, tmp_path, data):
        prog = tmp_path / "p.json"
        write_json(prog, {"s": 1, "r": 2, "columns": ["10", "01"],
                          "data": data})
        assert main(["run", str(prog)]) == 2

    def test_factored_planar_exit_3(self, small_program):
        assert main(["run", str(small_program), "--backend", "factored",
                     "--topology", "planar"]) == 3

    def test_memory_guard_exit_4(self, tmp_path):
        prog = tmp_path / "big.json"
        write_json(prog, {"s": 2, "r": 4, "columns": ["0000"] * 4})
        assert main(["run", str(prog), "--backend", "dense"]) == 4


def run_json(tmp_path, args):
    out = tmp_path / "out.json"
    assert main(["run", *map(str, args), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def amplitudes(result):
    return np.array([complex(re, im) for re, im in result["amplitudes"]])


class TestSampling:
    @pytest.mark.parametrize("backend", ["dense", "factored"])
    def test_basis_register_sampled_exactly(self, tmp_path, backend):
        prog = tmp_path / "p.json"
        write_json(prog, {"s": 1, "r": 2, "columns": ["11", "01"],
                          "data": ["10", "01"]})
        result = run_json(tmp_path, [prog, "--backend", backend, "--steps",
                                     0, "--samples", 20, "--seed", 42])
        assert result["samples"] == ["10"] * 20

    def test_seed_determinism(self, tmp_path):
        prog = tmp_path / "p.json"
        write_json(prog, {"s": 1, "r": 2, "columns": ["00", "00"],
                          "data": [[[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]]})
        args = [prog, "--backend", "dense", "--steps", 0, "--samples", 30,
                "--seed", 7]
        first = run_json(tmp_path, args)["samples"]
        assert len(set(first)) > 1
        assert run_json(tmp_path, args)["samples"] == first

    def test_same_seed_same_samples_after_evolution(self, tmp_path):
        prog = tmp_path / "p.json"
        write_json(prog, {"s": 1, "r": 2, "columns": ["11", "01"],
                          "data": [[[0.6, 0], [0, 0.8], [0, 0], [0, 0]]]})
        args = [prog, "--backend", "dense", "--steps", 2, "--samples", 30,
                "--seed", 99]
        first = run_json(tmp_path, args)["samples"]
        assert len(set(first)) > 1
        assert run_json(tmp_path, args)["samples"] == first

    @given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_backends_agree_at_every_step(self, tmp_path_factory, r, seed):
        tmp_path = tmp_path_factory.mktemp("agree")
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        prog = tmp_path / "p.json"
        write_json(prog, {
            "s": 1, "r": r,
            "columns": ["".join(str(b) for b in rng.integers(0, 2, 2))
                        for _ in range(r)],
            "data": [[[z.real, z.imag] for z in v]]})
        for steps in range(2 * r + 1):
            runs = {b: [prog, "--backend", b, "--steps", steps]
                    for b in ("dense", "factored")}
            a, b = (amplitudes(run_json(tmp_path, x)) for x in runs.values())
            assert abs(np.vdot(a, b)) >= 1 - 1e-10
            a, b = (run_json(tmp_path, x + ["--samples", 20, "--seed", seed])
                    ["samples"] for x in runs.values())
            assert a == b


class TestVerifyCommand:
    def test_stock_program_passes(self, small_program, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", str(small_program), "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert {r["check"] for r in reports} == {
            "occupancy", "cross-backend", "torus-schmidt-rank",
            "planar-wavefront"}
        assert all(r["pass"] for r in reports)

    def test_planar_small_case_passes(self, tmp_path):
        prog = tmp_path / "p.json"
        write_json(prog, {"s": 1, "r": 3,
                          "columns": ["11", "01", "10"]})
        out = tmp_path / "rep.json"
        assert main(["verify", str(prog), "--out", str(out)]) == 0


class TestTauCommand:
    def test_dump_parses_to_unitary(self, capsys):
        assert main(["tau"]) == 0
        text = capsys.readouterr().out
        m = parse_tau_dump(text)
        assert m.shape == (16, 16)
        assert np.max(np.abs(m.conj().T @ m - np.eye(16))) <= 1e-12
        assert np.allclose(m, build_tau(), atol=1e-15)

    def test_dump_byte_identical(self, capsys):
        main(["tau"])
        first = capsys.readouterr().out
        main(["tau"])
        assert capsys.readouterr().out == first
