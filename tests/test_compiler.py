import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_register, zero_register
from mqca import factored
from mqca.compiler import (H_SEQ, IDENT_SEQ, T_SEQ, WINDOW_STEPS, CircuitIR,
                           CompileError, LogicalGate, WindowSpec,
                           circuit_from_json, circuit_to_json, compile_circuit,
                           derive_two_qubit_windows, distance_up_to_phase,
                           layers_to_program, reference_simulate,
                           sequence_unitary, window_columns, window_unitary)
from mqca.dense import ColumnAssignment
from mqca.gates import H, T_GATE, u_of_p
from mqca.lattice import LatticeSpec, Topology
from mqca.linalg import apply_unitary, operator_matrix

SQ2 = 1.0 / np.sqrt(2.0)


class TestSequenceUnitary:
    def test_identity_sequence(self):
        assert np.allclose(sequence_unitary(IDENT_SEQ), np.eye(2), atol=1e-12)

    def test_phase_sequence(self):
        assert np.allclose(sequence_unitary(T_SEQ), T_GATE, atol=1e-12)

    def test_hadamard_sequence_has_minus_i_phase(self):
        assert np.allclose(sequence_unitary(H_SEQ), -1j * H, atol=1e-12)

    def test_reversed_order_reading_fails(self):
        # applying the phase-sequence bits rightmost-first would yield
        # H.T.H rather than T, so leftmost-first is forced
        u = sequence_unitary(tuple(reversed(T_SEQ)))
        assert distance_up_to_phase(u, T_GATE) > 1e-3

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            sequence_unitary((0,) * 9)


class TestReferenceSimulate:
    def test_h(self):
        c = CircuitIR(2, (LogicalGate("H", (0,)),))
        out = reference_simulate(c, zero_register(2))
        assert np.allclose(out, [SQ2, SQ2, 0, 0], atol=1e-12)

    def test_cnot(self):
        c = CircuitIR(2, (LogicalGate("CNOT", (0, 1)),))
        out = reference_simulate(c, zero_register(2, index=0b01))
        assert np.allclose(out, zero_register(2, index=0b11), atol=1e-12)

    def test_cz(self):
        c = CircuitIR(2, (LogicalGate("CZ", (0, 1)),))
        out = reference_simulate(c, zero_register(2, index=0b11))
        assert np.allclose(out, -zero_register(2, index=0b11), atol=1e-12)

    def test_swap(self):
        c = CircuitIR(2, (LogicalGate("SWAP", (0, 1)),))
        out = reference_simulate(c, zero_register(2, index=0b01))
        assert np.allclose(out, zero_register(2, index=0b10), atol=1e-12)


class TestWindowLibrary:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_closure(self, q):
        # every derived window list composes to its logical target
        lib = derive_two_qubit_windows(q)
        two_s = q + 2 if (q + 2) % 2 == 0 else q + 3
        targets = {
            "CZ": [LogicalGate("CZ", (q, q + 1))],
            "CNOT+": [LogicalGate("CNOT", (q, q + 1))],
            "CNOT-": [LogicalGate("CNOT", (q + 1, q))],
        }
        dim = 2 ** two_s
        for name, windows in lib.items():
            u = np.eye(dim, dtype=complex)
            for w in windows:
                u = window_unitary(w, two_s) @ u
            circuit = CircuitIR(two_s, tuple(targets[name]))
            target = np.array([reference_simulate(circuit, col)
                               for col in np.eye(dim, dtype=complex)]).T
            assert distance_up_to_phase(u, target) <= 1e-10

    @given(st.sampled_from([2, 4]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_single_row_window_is_its_sequence(self, two_s, data):
        # the column-action product over a window's columns equals the
        # row's bit-sequence unitary; idle rows see ten H's, the identity
        q = data.draw(st.integers(0, two_s - 1))
        seq = data.draw(st.tuples(*[st.integers(0, 1)] * 10))
        u = window_unitary(WindowSpec(p3={q: seq}), two_s)
        expect = operator_matrix(
            lambda v: apply_unitary(v, sequence_unitary(seq), [q]), 2 ** two_s)
        assert np.allclose(u, expect, atol=1e-12)


class TestCompile:
    def test_empty_circuit_gives_one_zero_window(self):
        layers, r = compile_circuit(CircuitIR(2, ()), 1)
        assert r == WINDOW_STEPS
        cols = layers_to_program(layers)
        assert all(p.to_string() == "00" for p in cols)

    def test_t_gate_placement(self):
        layers, r = compile_circuit(
            CircuitIR(2, (LogicalGate("T", (0,)),)), 1)
        cols = layers_to_program(layers)
        assert cols[0].to_string() == "10"
        assert all(p.to_string() == "00" for p in cols[1:])

    def test_double_hadamard_is_identity(self):
        circuit = CircuitIR(2, (LogicalGate("H", (0,)),
                                LogicalGate("H", (0,))))
        layers, r = compile_circuit(circuit, 1)
        assert r == 2 * WINDOW_STEPS
        rng = np.random.default_rng(0)
        psi = random_register(rng, 2)
        out = _run_program(layers, 1, psi)
        assert abs(np.vdot(psi, out)) >= 1 - 1e-10

    def test_parallel_single_qubit_macros_share_a_window(self):
        circuit = CircuitIR(4, (LogicalGate("H", (0,)),
                                LogicalGate("T", (3,))))
        layers, r = compile_circuit(circuit, 2)
        assert r == WINDOW_STEPS

    def test_each_row_has_ten_opportunities_per_window(self):
        circuit = CircuitIR(4, (LogicalGate("H", (1,)),
                                LogicalGate("CZ", (2, 3)),))
        layers, r = compile_circuit(circuit, 2)
        # every cell's top row gets the mandatory H of U(p, phi)
        counts = [0] * 4
        for k, p in enumerate(layers_to_program(layers)):
            for g in u_of_p(p, k % 2, 2):
                if g.name == "h":
                    counts[g.rows[0]] += 1
        windows = r // WINDOW_STEPS
        assert counts == [10 * windows] * 4

    def test_program_is_the_windows_columns(self):
        circuit = CircuitIR(4, (LogicalGate("CNOT", (1, 2)),
                                LogicalGate("T", (0,))))
        layers, r = compile_circuit(circuit, 2)
        cols = layers_to_program(layers)
        assert len(cols) == r == WINDOW_STEPS * len(layers.windows)
        assert cols == [p for w in layers.windows
                        for p in window_columns(w, 4)]

    def test_non_adjacent_cz_rejected(self):
        with pytest.raises(CompileError):
            CircuitIR(4, (LogicalGate("CZ", (0, 2)),))

    def test_width_mismatch_rejected(self):
        with pytest.raises(CompileError):
            compile_circuit(CircuitIR(4, ()), 1)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_single_qubit_layers(self, seed):
        rng = np.random.default_rng(seed)
        names = ["H", "T", "I"]
        gates = tuple(LogicalGate(str(rng.choice(names)), (q,))
                      for q in range(4) for _ in range(rng.integers(0, 2)))
        circuit = CircuitIR(4, gates)
        psi = random_register(rng, 4)
        layers, _ = compile_circuit(circuit, 2)
        out = _run_program(layers, 2, psi)
        ref = reference_simulate(circuit, psi)
        assert abs(np.vdot(ref, out)) >= 1 - 1e-9


class TestCircuitJson:
    def test_roundtrip(self):
        circuit = CircuitIR(4, (LogicalGate("H", (0,)),
                                LogicalGate("CNOT", (1, 0)),
                                LogicalGate("CZ", (2, 3)),
                                LogicalGate("SWAP", (0, 1))))
        assert circuit_from_json(circuit_to_json(circuit)) == circuit

    def test_malformed_rejected(self):
        with pytest.raises(CompileError):
            circuit_from_json({"rows": 2})


def _run_program(layers, s, psi):
    """Evolve psi through the compiled program on the factored backend."""
    cols = layers_to_program(layers)
    r = len(cols)
    spec = LatticeSpec(s, r, Topology.TORUS)
    data = [psi] + [zero_register(2 * s) for _ in range(r - 1)]
    state = factored.init_factored(ColumnAssignment(data, cols), spec)
    return factored.output_register(factored.frun(state, r))
