"""Elementary gates, the 16x16 cell transition unitary, and the
classically controlled column action it induces.

Cell-local basis ordering is |q1 q2 q3 q4> with q1 the most significant
bit.  Within a column register, row y is bit y of the register index
(row 0 least significant), matching the lattice bit layout.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import apply_unitary, as_unitary, operator_matrix

SQ2 = 1.0 / np.sqrt(2.0)

H = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=np.complex128)
# pi/4-phase gate exp(-i pi/8 Z); equals the conventional T up to phase.
T_GATE = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=np.complex128)


@dataclass(frozen=True)
class ProgramColumn:
    """2s classical bits, indexed by row (row 0 first)."""
    bits: tuple

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("program column bits must be 0 or 1")

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, row):
        return self.bits[row]

    @classmethod
    def zeros(cls, two_s):
        return cls((0,) * two_s)

    @classmethod
    def from_string(cls, text):
        return cls(tuple(int(c) for c in text))

    def to_string(self):
        return "".join(str(b) for b in self.bits)

    def basis_index(self):
        return sum(b << y for y, b in enumerate(self.bits))


@lru_cache(maxsize=None)
def build_tau():
    """The elementary cell transition: CCZ on (q1,q2) controlled by q4,
    then a q3-controlled pi/4-phase on q1, then H on q1, then the swaps
    moving data right and program left."""
    n = 4
    dim = 2 ** n

    ccz = np.eye(dim, dtype=np.complex128)
    cphase = np.eye(dim, dtype=np.complex128)
    for idx in range(dim):
        q1 = (idx >> 3) & 1
        q2 = (idx >> 2) & 1
        q3 = (idx >> 1) & 1
        q4 = idx & 1
        if q1 and q2 and q4:
            ccz[idx, idx] = -1.0
        if q3:
            cphase[idx, idx] = np.exp(1j * np.pi / 8 * (1 if q1 else -1))

    def on(u, bits):
        return operator_matrix(lambda v: apply_unitary(v, u, bits), dim)

    h1 = on(H, [3])            # q1 is bit 3
    s13 = on(SWAP, [3, 1])     # q1 <-> q3
    s24 = on(SWAP, [2, 0])     # q2 <-> q4

    return as_unitary(s13 @ s24 @ h1 @ cphase @ ccz)


@dataclass(frozen=True)
class Gate:
    """One gate of a column action, on register rows."""
    name: str
    rows: tuple
    matrix: np.ndarray = None

    def __post_init__(self):
        if self.matrix is None:
            object.__setattr__(self, "matrix",
                               {"cz": CZ, "t": T_GATE, "h": H}[self.name])


def u_of_p(p, phi, s):
    """Ordered gate list of the column unitary U(p, phi) on 2s rows.

    For each cell (rows a = (2j+phi) mod 2s, b = a+1 mod 2s): CZ(a, b)
    if p[b], then the pi/4-phase on row a if p[a], then H on row a.
    Gates are listed in application order.
    """
    two_s = 2 * s
    if len(p) != two_s:
        raise ValueError(f"program column must have {two_s} bits, got {len(p)}")
    gates = []
    for j in range(s):
        a = (2 * j + phi) % two_s
        b = (a + 1) % two_s
        if p[b]:
            gates.append(Gate("cz", (a, b)))
        if p[a]:
            gates.append(Gate("t", (a,)))
        gates.append(Gate("h", (a,)))
    return gates


def apply_gates(amps, gates):
    """Apply a gate list to a column register (row y = bit y)."""
    for g in gates:
        # matrix convention: first listed row is the most significant
        # qubit of g.matrix, so bit positions go in the same order.
        amps = apply_unitary(amps, g.matrix, list(g.rows))
    return amps


def column_unitary(p, phi, s):
    """Dense 2^(2s) x 2^(2s) matrix of U(p, phi)."""
    gates = u_of_p(p, phi, s)
    return operator_matrix(lambda v: apply_gates(v, gates), 4 ** s)


def tau_consistency_check(tau=None, tol=1e-12):
    """Exhaustively verify that the cell transition acts on classical
    program inputs as: program moves to slots (1,2) unchanged, data moves
    to slots (3,4) with U(p) applied.

    Returns (ok, failures) with the offending basis inputs listed.
    """
    if tau is None:
        tau = build_tau()
    failures = []
    for p3 in (0, 1):
        for p4 in (0, 1):
            p = ProgramColumn((p3, p4))
            u = column_unitary(p, 0, 1)
            for d0 in (0, 1):
                for d1 in (0, 1):
                    idx = (d0 << 3) | (d1 << 2) | (p3 << 1) | p4
                    got = tau[:, idx]
                    expect = np.zeros(16, dtype=np.complex128)
                    out = u[:, d0 + 2 * d1]  # register index: row 0 = LSB
                    for e in range(4):
                        e0, e1 = e & 1, (e >> 1) & 1
                        expect[(p3 << 3) | (p4 << 2) | (e0 << 1) | e1] += out[e]
                    if np.max(np.abs(got - expect)) > tol:
                        failures.append((d0, d1, p3, p4))
    return (not failures), failures


def format_tau_dump(tau=None):
    """Text dump: one row per line, entries as re+imi pairs."""
    if tau is None:
        tau = build_tau()
    lines = []
    for row in tau:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
    return "\n".join(lines) + "\n"


def parse_tau_dump(text):
    rows = []
    for line in text.strip().splitlines():
        entries = []
        for token in line.split():
            assert token.endswith("i")
            body = token[:-1]
            # split at the sign of the imaginary part (skip a leading
            # sign and any exponent signs)
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "eE":
                    entries.append(complex(float(body[:k]), float(body[k:])))
                    break
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)
