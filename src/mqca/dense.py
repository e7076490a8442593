"""Full state-vector backend.

Holds all 4sr lattice qubits as one amplitude vector and applies the
cell transition to every cell of the current partition.  Practical to
about 26 qubits; a guard refuses anything larger.
"""

from dataclasses import dataclass

import numpy as np

from . import lattice
from .gates import SWAP, ProgramColumn, build_tau
from .lattice import CellKind, LatticeSpec, Topology
from .linalg import apply_unitary, kron_all

MAX_QUBITS = 26
NORM_TOL = 1e-10
RANK_TOL = 1e-8
SAMPLER_NAME = "numpy-pcg64"


class MemoryGuardError(MemoryError):
    pass


def _check_guard(spec):
    if spec.n_qubits > MAX_QUBITS:
        raise MemoryGuardError(
            f"{spec.n_qubits} qubits exceed the dense backend guard "
            f"({MAX_QUBITS})")


@dataclass
class StateVector:
    amplitudes: np.ndarray
    spec: LatticeSpec
    t: int = 0

    def copy(self):
        return StateVector(self.amplitudes.copy(), self.spec, self.t)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class ColumnAssignment:
    """Initial content: r data column states and r program columns."""
    data: list
    programs: list


def _program_vector(p, two_s):
    v = np.zeros(2 ** two_s, dtype=np.complex128)
    v[p.basis_index()] = 1.0
    return v


def init_state(assign, spec):
    """Tensor product with data register i on column 2i and program
    p_(i+1) on column 2i+1; t = 0."""
    _check_guard(spec)
    if len(assign.data) != spec.r or len(assign.programs) != spec.r:
        raise ValueError(f"need {spec.r} data states and {spec.r} programs")
    dim = 2 ** spec.n_rows
    factors = []  # most significant column first
    for i in reversed(range(spec.r)):
        d = np.asarray(assign.data[i], dtype=np.complex128)
        if d.size != dim:
            raise ValueError(f"data register {i} has wrong dimension")
        if abs(np.linalg.norm(d) - 1.0) > NORM_TOL:
            raise ValueError(f"data register {i} is not normalized")
        p = assign.programs[i]
        if len(p) != spec.n_rows:
            raise ValueError(f"program column {i} has wrong length")
        factors.append(_program_vector(p, spec.n_rows))
        factors.append(d)
    return StateVector(kron_all(factors), spec, 0)


def _apply_cells(amps, cells, tau):
    for cell in cells:
        if cell.kind is CellKind.TAU:
            amps = apply_unitary(amps, tau, list(cell.sites))
        elif cell.kind is CellKind.SWAP:
            amps = apply_unitary(amps, SWAP, list(cell.sites))
    return amps


def step(state):
    """One global transition; cells are disjoint so order is irrelevant."""
    _check_guard(state.spec)
    cells = lattice.cells_of_step(state.t, state.spec)
    amps = _apply_cells(state.amplitudes, cells, build_tau())
    return StateVector(amps, state.spec, state.t + 1)


def inverse_step(state):
    """Exact inverse of the transition that produced this state."""
    if state.t == 0:
        raise ValueError("cannot invert past t = 0")
    cells = lattice.cells_of_step(state.t - 1, state.spec)
    amps = _apply_cells(state.amplitudes, cells, build_tau().conj().T)
    return StateVector(amps, state.spec, state.t - 1)


def run(state, steps):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        state = step(state)
    return state


def column_marginal(state, x):
    """Reduced density operator of column x (partial trace over the rest)."""
    spec = state.spec
    if not (0 <= x < spec.n_cols):
        raise ValueError(f"column {x} out of range")
    two_s = spec.n_rows
    low = 2 ** (x * two_s)
    mid = 2 ** two_s
    high = state.amplitudes.size // (low * mid)
    psi = state.amplitudes.reshape(high, mid, low)
    return np.einsum("acb,adb->cd", psi, psi.conj())


def schmidt_rank_at_cut(state, c, tol=RANK_TOL):
    """Singular values across the bipartition {columns 0..c} vs the rest.

    Returns (rank, singular values descending); rank counts values
    above tol.
    """
    spec = state.spec
    if not (0 <= c < spec.n_cols - 1):
        raise ValueError(f"cut {c} out of range")
    left_bits = (c + 1) * spec.n_rows
    m = state.amplitudes.reshape(-1, 2 ** left_bits)
    svals = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(svals > tol))
    return rank, svals


def dump_state(state, threshold=1e-14):
    """Text dump: header then one nonzero amplitude per line."""
    spec = state.spec
    lines = [f"qca-state {spec.s} {spec.r} {spec.topology.value} {state.t}"]
    for idx in np.nonzero(np.abs(state.amplitudes) > threshold)[0]:
        z = state.amplitudes[idx]
        lines.append(f"{idx} {z.real:.17g} {z.imag:.17g}")
    return "\n".join(lines) + "\n"


def load_state(text):
    lines = text.strip().splitlines()
    tag, s, r, topo, t = lines[0].split()
    assert tag == "qca-state"
    spec = LatticeSpec(int(s), int(r), Topology(topo))
    amps = np.zeros(2 ** spec.n_qubits, dtype=np.complex128)
    for line in lines[1:]:
        idx, re, im = line.split()
        amps[int(idx)] = complex(float(re), float(im))
    return StateVector(amps, spec, int(t))


def zero_assignment(spec, programs=None):
    """All-|0...0> data with the given (default all-zero) programs."""
    dim = 2 ** spec.n_rows
    data = []
    for _ in range(spec.r):
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        data.append(v)
    if programs is None:
        programs = [ProgramColumn.zeros(spec.n_rows) for _ in range(spec.r)]
    return ColumnAssignment(data, programs)
