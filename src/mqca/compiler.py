"""Circuit-to-program compiler.

Logical circuits over 2s qubits (one per lattice row) are scheduled into
macro windows of 20 automaton steps.  Within a window each row is the
top of its cell 10 times; the 10 phase-control bits at those
opportunities realize the single-qubit macros, and a single CZ-control
bit placed at the right opportunity realizes the two-qubit macros.
Every emitted window is checked against the reference simulator.  A
window becomes its 20 program columns directly, and the oracle's window
unitary is the product of U(p, phi) over those same columns.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gates import CZ, H, SWAP, T_GATE, ProgramColumn, column_unitary
from .linalg import apply_unitary, operator_matrix

WINDOW_STEPS = 20
OPPORTUNITIES = 10
WINDOW_TOL = 1e-10

IDENT_SEQ = (0,) * 10
T_SEQ = (1,) + (0,) * 9
H_SEQ = (0, 1, 0, 1, 1, 0, 1, 1, 0, 1)

SINGLE_QUBIT = {"H": H_SEQ, "T": T_SEQ, "I": IDENT_SEQ}


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class LogicalGate:
    name: str
    qubits: tuple

    def __str__(self):
        return f"{self.name}{self.qubits}"


@dataclass(frozen=True)
class CircuitIR:
    width: int
    gates: tuple

    def __post_init__(self):
        if self.width < 2 or self.width % 2:
            raise CompileError("width must be an even number >= 2 of rows")
        for g in self.gates:
            self._check(g)

    def _check(self, g):
        if any(not 0 <= q < self.width for q in g.qubits):
            raise CompileError(f"{g}: qubit out of range")
        if g.name in SINGLE_QUBIT:
            if len(g.qubits) != 1:
                raise CompileError(f"{g}: expects one qubit")
        elif g.name in ("CZ", "SWAP"):
            a, b = sorted(g.qubits)
            if b - a != 1:
                raise CompileError(f"{g}: operands must be adjacent")
        elif g.name == "CNOT":
            if len(g.qubits) != 2 or g.qubits[0] == g.qubits[1]:
                raise CompileError(f"{g}: needs distinct control and target")
        else:
            raise CompileError(f"unknown gate {g.name}")


@dataclass(frozen=True)
class Schedule:
    """A compiled circuit: the merged windows on 2s rows, in order."""
    s: int
    windows: tuple


@dataclass
class WindowSpec:
    """One macro window: 10 opportunity bits per involved row.

    p3 maps a row to its phase-control bits; p4 maps a cell's top row to
    the CZ-control bits of that cell (acting on rows a, a+1).
    """
    p3: dict = field(default_factory=dict)
    p4: dict = field(default_factory=dict)

    def rows(self):
        rows = set(self.p3)
        for a in self.p4:
            rows.update((a, a + 1))
        return rows


# ---------------------------------------------------------------------------
# single-qubit sequences

def sequence_unitary(bits):
    """Compose one row's 10 opportunities: at each (leftmost bit first)
    the pi/4-phase gate fires if the bit is set, then the mandatory H."""
    if len(bits) != OPPORTUNITIES:
        raise ValueError(f"expected {OPPORTUNITIES} bits, got {len(bits)}")
    u = np.eye(2, dtype=np.complex128)
    for b in bits:
        if b:
            u = T_GATE @ u
        u = H @ u
    return u


# ---------------------------------------------------------------------------
# reference simulator (compilation oracle; qubit y = bit y of the index)

def reference_simulate(circuit, psi):
    psi = np.asarray(psi, dtype=np.complex128)
    for g in circuit.gates:
        if g.name == "I":
            continue
        elif g.name in ("H", "T"):
            u = H if g.name == "H" else T_GATE
            psi = apply_unitary(psi, u, [g.qubits[0]])
        elif g.name in ("CZ", "SWAP"):
            u = CZ if g.name == "CZ" else SWAP
            psi = apply_unitary(psi, u, sorted(g.qubits, reverse=True))
        elif g.name == "CNOT":
            c, t = g.qubits
            psi = apply_unitary(psi, H, [t])
            psi = apply_unitary(psi, CZ, [max(c, t), min(c, t)])
            psi = apply_unitary(psi, H, [t])
    return psi


# ---------------------------------------------------------------------------
# window oracle and the derived two-qubit library

def window_columns(window, two_s):
    """The 20 program columns of one window.  At step k (phi = k mod 2)
    the cell with top row a reads opportunity k // 2 of its phase bits
    at row a and of its CZ-control bits at row a + 1."""
    columns = []
    for k in range(WINDOW_STEPS):
        phi, opp = k % 2, k // 2
        bits = [0] * two_s
        for a in range(phi, two_s, 2):
            bits[a] = window.p3.get(a, IDENT_SEQ)[opp]
            bits[(a + 1) % two_s] = window.p4.get(a, IDENT_SEQ)[opp]
        columns.append(ProgramColumn(tuple(bits)))
    return columns


def window_unitary(window, two_s):
    """Dense unitary of one window on the full 2s-row column space: the
    product of U(p_k, k mod 2) over the window's program columns."""
    # most of a window's columns repeat: build each distinct matrix once
    action = lru_cache(maxsize=None)(column_unitary)
    u = np.eye(2 ** two_s, dtype=np.complex128)
    for k, p in enumerate(window_columns(window, two_s)):
        u = action(p, k % 2, two_s // 2) @ u
    return u


def distance_up_to_phase(a, b):
    """Frobenius-type distance between matrices after optimal phase
    alignment."""
    inner = np.trace(a.conj().T @ b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.max(np.abs(a * phase - b)))


def _single_window(q, seq):
    return WindowSpec(p3={q: tuple(seq)})


@lru_cache(maxsize=None)
def derive_two_qubit_windows(q):
    """Fixed window schedules for CZ(q, q+1) and both CNOT directions.

    A bounded search places one CZ-control bit inside a single otherwise
    idle window and keeps whichever placements reproduce a target gate;
    directions not reachable in one window fall back to conjugation with
    Hadamard windows on the target qubit.  Every entry is oracle-checked.
    """
    two_s = q + 2 if (q + 2) % 2 == 0 else q + 3
    targets = {
        "CZ": _logical_unitary([LogicalGate("CZ", (q, q + 1))], two_s),
        "CNOT+": _logical_unitary([LogicalGate("CNOT", (q, q + 1))], two_s),
        "CNOT-": _logical_unitary([LogicalGate("CNOT", (q + 1, q))], two_s),
    }
    found = {}
    for opp in range(OPPORTUNITIES):
        bits = tuple(1 if i == opp else 0 for i in range(OPPORTUNITIES))
        w = WindowSpec(p4={q: bits})
        u = window_unitary(w, two_s)
        for name, target in targets.items():
            if name not in found and distance_up_to_phase(u, target) <= WINDOW_TOL:
                found[name] = [w]
    lib = {}
    h_w = [_single_window(q + 1, H_SEQ)]
    if "CZ" in found:
        lib["CZ"] = found["CZ"]
        lib["CNOT+"] = found.get("CNOT+", h_w + found["CZ"] + h_w)
        hq = [_single_window(q, H_SEQ)]
        lib["CNOT-"] = found.get("CNOT-", hq + found["CZ"] + hq)
    elif "CNOT+" in found:
        lib["CNOT+"] = found["CNOT+"]
        lib["CZ"] = found.get("CZ", h_w + found["CNOT+"] + h_w)
        lib["CNOT-"] = found.get(
            "CNOT-",
            [_single_window(q, H_SEQ)] + lib["CZ"] + [_single_window(q, H_SEQ)])
    else:
        raise CompileError(
            f"window search failed for row pair ({q}, {q + 1})")
    for name, windows in lib.items():
        u = np.eye(2 ** two_s, dtype=np.complex128)
        for w in windows:
            u = window_unitary(w, two_s) @ u
        if distance_up_to_phase(u, targets[name]) > WINDOW_TOL:
            raise CompileError(
                f"derived {name} windows for rows ({q}, {q + 1}) failed "
                "the oracle check")
    return lib


def _logical_unitary(gates, two_s):
    circuit = CircuitIR(two_s, tuple(gates))
    return operator_matrix(lambda v: reference_simulate(circuit, v),
                           2 ** two_s)


# ---------------------------------------------------------------------------
# scheduling

def _expand_once(gates):
    out = []
    changed = False
    for g in gates:
        if g.name == "SWAP":
            a, b = sorted(g.qubits)
            out += [LogicalGate("CNOT", (a, b)),
                    LogicalGate("CNOT", (b, a)),
                    LogicalGate("CNOT", (a, b))]
            changed = True
        elif g.name == "CNOT" and abs(g.qubits[0] - g.qubits[1]) > 1:
            # walk the control next to the target through a SWAP chain
            c, t = g.qubits
            if c < t:
                hops = [(k, k + 1) for k in range(c, t - 1)]
                near = t - 1
            else:
                hops = [(k - 1, k) for k in range(c, t + 1, -1)]
                near = t + 1
            out += [LogicalGate("SWAP", pair) for pair in hops]
            out.append(LogicalGate("CNOT", (near, t)))
            out += [LogicalGate("SWAP", pair) for pair in reversed(hops)]
            changed = True
        else:
            out.append(g)
    return out, changed


def _expand(circuit):
    """Rewrite SWAPs and long-range CNOTs into adjacent primitives."""
    gates, changed = list(circuit.gates), True
    while changed:
        gates, changed = _expand_once(gates)
    return gates


def _gate_windows(g):
    if g.name in SINGLE_QUBIT:
        if g.name == "I":
            return []
        return [_single_window(g.qubits[0], SINGLE_QUBIT[g.name])]
    if g.name == "CZ":
        q = min(g.qubits)
        return derive_two_qubit_windows(q)["CZ"]
    if g.name == "CNOT":
        c, t = g.qubits
        q = min(c, t)
        key = "CNOT+" if c < t else "CNOT-"
        return derive_two_qubit_windows(q)[key]
    raise CompileError(f"cannot lower gate {g}")


def compile_circuit(circuit, s):
    """Compile to (Schedule, r).  Gates touching disjoint rows share
    windows; every multi-window macro reserves its rows for its whole
    span."""
    if circuit.width != 2 * s:
        raise CompileError(
            f"circuit width {circuit.width} does not match 2s = {2 * s}")
    windows = []   # list of merged WindowSpec
    frontier = [0] * circuit.width
    for g in _expand(circuit):
        specs = _gate_windows(g)
        if not specs:
            continue
        rows = set()
        for w in specs:
            rows |= w.rows()
        start = max(frontier[q] for q in rows)
        while len(windows) < start + len(specs):
            windows.append(WindowSpec())
        for k, w in enumerate(specs):
            tgt = windows[start + k]
            tgt.p3.update(w.p3)
            tgt.p4.update(w.p4)
        for q in rows:
            frontier[q] = start + len(specs)
    if not windows:
        windows = [WindowSpec()]
    return Schedule(s, tuple(windows)), WINDOW_STEPS * len(windows)


def layers_to_program(schedule):
    """Program columns p_1..p_r: each window's columns, in order."""
    two_s = 2 * schedule.s
    return [p for w in schedule.windows for p in window_columns(w, two_s)]


# ---------------------------------------------------------------------------
# file formats

def circuit_to_json(circuit):
    gates = []
    for g in circuit.gates:
        if g.name == "CNOT":
            gates.append({"g": "CNOT", "c": g.qubits[0], "t": g.qubits[1]})
        elif g.name in ("CZ", "SWAP"):
            gates.append({"g": g.name, "a": g.qubits[0], "b": g.qubits[1]})
        else:
            gates.append({"g": g.name, "q": g.qubits[0]})
    return {"rows": circuit.width, "gates": gates}


def circuit_from_json(obj):
    try:
        width = int(obj["rows"])
        gates = []
        for entry in obj["gates"]:
            name = entry["g"]
            if name == "CNOT":
                gates.append(LogicalGate("CNOT",
                                         (int(entry["c"]), int(entry["t"]))))
            elif name in ("CZ", "SWAP"):
                if "q" in entry:
                    a = int(entry["q"])
                    gates.append(LogicalGate(name, (a, a + 1)))
                else:
                    gates.append(LogicalGate(name,
                                             (int(entry["a"]), int(entry["b"]))))
            else:
                gates.append(LogicalGate(name, (int(entry["q"]),)))
    except (KeyError, TypeError) as exc:
        raise CompileError(f"malformed circuit file: {exc}") from exc
    return CircuitIR(width, tuple(gates))
