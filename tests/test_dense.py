import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_assignment, random_programs
from mqca import dense
from mqca.dense import (ColumnAssignment, MemoryGuardError, column_marginal,
                        dump_state, init_state, inverse_step, load_state,
                        run, schmidt_rank_at_cut, step, zero_assignment)
from mqca.lattice import LatticeSpec, Topology

SQ2 = 1.0 / np.sqrt(2.0)
TORUS_12 = LatticeSpec(1, 2, Topology.TORUS)


class TestInitState:
    def test_all_zero_is_single_basis_state(self):
        state = init_state(zero_assignment(TORUS_12), TORUS_12)
        assert state.t == 0
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_bell_data_register(self):
        bell = np.array([SQ2, 0, 0, SQ2], dtype=complex)
        assign = zero_assignment(TORUS_12)
        assign.data[0] = bell
        state = init_state(assign, TORUS_12)
        nz = np.nonzero(state.amplitudes)[0]
        assert len(nz) == 2
        assert np.allclose(state.amplitudes[nz], SQ2)

    def test_normalized(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            assign = random_assignment(rng, TORUS_12)
            assert abs(init_state(assign, TORUS_12).norm() - 1.0) < 1e-10

    def test_guard(self):
        big = LatticeSpec(2, 4, Topology.TORUS)  # 32 qubits
        with pytest.raises(MemoryGuardError):
            init_state(zero_assignment(big), big)

    def test_dimension_mismatch(self):
        assign = zero_assignment(TORUS_12)
        assign.data[0] = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            init_state(assign, TORUS_12)


class TestStep:
    def test_first_step_puts_plus_on_column_one(self):
        state = step(init_state(zero_assignment(TORUS_12), TORUS_12))
        rho = column_marginal(state, 1)
        plus = np.array([SQ2, SQ2, 0, 0])  # (|0>+|1>)/sqrt2 on row 0
        assert np.allclose(rho, np.outer(plus, plus), atol=1e-10)

    def test_program_marginals_stay_classical(self):
        rng = np.random.default_rng(7)
        programs = random_programs(rng, TORUS_12)
        assign = random_assignment(rng, TORUS_12)
        assign = ColumnAssignment(assign.data, programs)
        state = init_state(assign, TORUS_12)
        for t in range(4):
            state = step(state)
            # at time t the program from list slot (i+t) mod r is at
            # column 2i+t+1
            for i in range(TORUS_12.r):
                p = programs[(i + state.t) % TORUS_12.r]
                col = (2 * i + state.t + 1) % TORUS_12.n_cols
                rho = column_marginal(state, col)
                k = p.basis_index()
                assert abs(rho[k, k] - 1.0) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        state = init_state(random_assignment(rng, TORUS_12), TORUS_12)
        for _ in range(8):
            state = step(state)
            assert abs(state.norm() - 1.0) < 1e-10


class TestInverseStep:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        state = init_state(random_assignment(rng, TORUS_12), TORUS_12)
        back = inverse_step(step(state))
        fid = abs(np.vdot(back.amplitudes, state.amplitudes))
        assert fid >= 1 - 1e-12
        assert back.t == 0

    def test_forward_after_backward(self):
        rng = np.random.default_rng(5)
        state = run(init_state(random_assignment(rng, TORUS_12), TORUS_12), 2)
        again = step(inverse_step(state))
        assert abs(np.vdot(again.amplitudes, state.amplitudes)) >= 1 - 1e-12

    def test_t_zero_rejected(self):
        state = init_state(zero_assignment(TORUS_12), TORUS_12)
        with pytest.raises(ValueError):
            inverse_step(state)


class TestRun:
    def test_zero_steps_identity(self):
        state = init_state(zero_assignment(TORUS_12), TORUS_12)
        assert run(state, 0) is state

    def test_full_cycle_restores_columns(self):
        rng = np.random.default_rng(13)
        programs = random_programs(rng, TORUS_12)
        assign = ColumnAssignment(zero_assignment(TORUS_12).data, programs)
        state = run(init_state(assign, TORUS_12), 2 * TORUS_12.r)
        # programs are back on their home (odd) columns
        for i in range(TORUS_12.r):
            rho = column_marginal(state, 2 * i + 1)
            k = programs[i].basis_index()
            assert abs(rho[k, k] - 1.0) < 1e-10


class TestColumnMarginal:
    def test_trace_one_and_psd(self):
        rng = np.random.default_rng(17)
        state = run(init_state(random_assignment(rng, TORUS_12), TORUS_12), 3)
        for x in range(TORUS_12.n_cols):
            rho = column_marginal(state, x)
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_every_marginal_pure_on_torus(self):
        rng = np.random.default_rng(19)
        state = run(init_state(random_assignment(rng, TORUS_12), TORUS_12), 3)
        for x in range(TORUS_12.n_cols):
            evals = np.linalg.eigvalsh(column_marginal(state, x))
            assert evals[-1] > 1 - 1e-8


class TestSchmidtRank:
    def test_product_state_rank_one(self):
        state = init_state(zero_assignment(TORUS_12), TORUS_12)
        for c in range(TORUS_12.n_cols - 1):
            rank, _ = schmidt_rank_at_cut(state, c)
            assert rank == 1

    def test_bell_pair_rank_two(self):
        # entangle columns 0 and 1 by hand
        spec = TORUS_12
        amps = np.zeros(2 ** spec.n_qubits, dtype=complex)
        amps[0] = SQ2
        amps[0b0101] = SQ2  # row 0 of columns 0 and 1 both set
        state = dense.StateVector(amps, spec, 0)
        rank, svals = schmidt_rank_at_cut(state, 0)
        assert rank == 2
        assert np.allclose(svals[:2], SQ2, atol=1e-12)

    def test_torus_evolution_stays_rank_one(self):
        rng = np.random.default_rng(29)
        state = init_state(random_assignment(rng, TORUS_12), TORUS_12)
        for _ in range(4):
            state = step(state)
            for c in range(TORUS_12.n_cols - 1):
                assert schmidt_rank_at_cut(state, c)[0] == 1


class TestDump:
    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        state = run(init_state(random_assignment(rng, TORUS_12), TORUS_12), 1)
        loaded = load_state(dump_state(state))
        assert loaded.t == state.t
        assert loaded.spec == state.spec
        assert np.allclose(loaded.amplitudes, state.amplitudes, atol=1e-14)
