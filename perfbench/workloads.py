"""The four benchmark workloads.

Each workload draws its inputs from one seeded generator, times its ops
from outside the program, and checks every output.  A round is a fixed
composition of ops: the seed changes which gates, bits and amplitudes a
round holds, never how many ops of each cost class it holds, so a run
made of whole rounds measures the same mix whatever the seed.
"""

import collections
import contextlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from mqca import compiler, dense, factored, gates, lattice, verify
from mqca.compiler import CircuitIR, LogicalGate
from mqca.dense import ColumnAssignment
from mqca.gates import ProgramColumn
from mqca.lattice import LatticeSpec, Topology

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Output bound of criteria 6 and 7a.
FIDELITY_BOUND = 1e-9
MAX_DRAWS = 20000


class _Counted:
    """A function that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kw):
        self.calls += 1
        return self.fn(*args, **kw)


# `factored.fstep` updates each data register it evolves with one call of
# the `apply_gates` it imports, so counting those calls gives the register
# updates the program makes, whichever registers it chooses to evolve.
REGISTER_UPDATES = factored.apply_gates = _Counted(factored.apply_gates)


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _basis(dim, index=0):
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def _random_assignment(rng, spec):
    """Random bits; a random state in data register 0 and random basis
    states elsewhere, as in criteria 3 and 7."""
    dim = 2 ** spec.n_rows
    data = [_random_state(rng, dim)] + [
        _basis(dim, int(rng.integers(0, dim))) for _ in range(spec.r - 1)]
    programs = [ProgramColumn(tuple(int(b) for b in
                                    rng.integers(0, 2, spec.n_rows)))
                for _ in range(spec.r)]
    return ColumnAssignment(data, programs)


def _random_gate(rng, rows):
    """One gate drawn as in the criterion-6 acceptance test."""
    kind = str(rng.choice(["H", "T", "CZ", "CNOT", "SWAP"]))
    if kind in ("H", "T"):
        return LogicalGate(kind, (int(rng.integers(0, rows)),))
    q = int(rng.integers(0, rows - 1))
    if kind == "CNOT" and not rng.integers(0, 2):
        return LogicalGate(kind, (q + 1, q))
    return LogicalGate(kind, (q, q + 1))


def _with_gate(rng, gate_list, gate):
    k = int(rng.integers(0, len(gate_list) + 1))
    return gate_list[:k] + [gate] + gate_list[k:]


def derive_seconds(rows):
    """Window derivation time for `rows`: cold minus warm compile of a
    circuit that needs every row pair."""
    compiler.derive_two_qubit_windows.cache_clear()
    probe = CircuitIR(rows, (LogicalGate("CNOT", (0, rows - 1)),))
    t0 = time.perf_counter()
    compiler.compile_circuit(probe, rows // 2)
    t1 = time.perf_counter()
    compiler.compile_circuit(probe, rows // 2)
    t2 = time.perf_counter()
    return (t1 - t0) - (t2 - t1)


def _count_program(rec, circuit, columns):
    r = len(columns)
    rec.count("compiler.steps", r)
    rec.count("compiler.windows", r // compiler.WINDOW_STEPS)
    rec.count("compiler.source_gates", len(circuit.gates))
    rec.tally("r", r)
    _count_columns(rec, columns, r)


def _count_columns(rec, columns, steps):
    """Count the (bits, phi) pairs data register 0 meets in `steps`."""
    r = len(columns)
    pairs = {(columns[t % r].bits, t % 2) for t in range(steps)}
    rec.count("compiler.distinct_columns", len(pairs))
    rec.count("compiler.column_meetings", steps)


@contextlib.contextmanager
def _factored_updates(rec, useful):
    """Count the register updates the factored calls inside make, and
    `useful`, the updates of the registers that are then read."""
    n0 = REGISTER_UPDATES.calls
    yield
    rec.count("factored.register_updates", REGISTER_UPDATES.calls - n0)
    rec.count("factored.useful_updates", useful)


class Workload:
    name = ""
    why = ""
    # Fixed per workload at a point inside one cost class of the round,
    # so it cannot jump between classes when the number of rounds in a
    # run changes.  Where a run in baseline.json holds enough ops, it is
    # the highest such point with at least ten samples beyond it.
    tail_percentile = 50.0
    interleave = False

    def __init__(self, seed, rec, workdir):
        self.rng = np.random.default_rng(seed)
        self.rec = rec
        self.workdir = workdir

    def setup(self):
        """Warm what users of this path have warm; returns measurements."""
        return {}

    def make_round(self):
        """Draw one round's inputs (untimed).  Returns the round's units:
        generators that run and check one or more ops, yielding after
        each op."""
        raise NotImplementedError

    def trace_extras(self):
        """Per-layer numbers taken after the timed rounds."""
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Circuits(Workload):
    name = "circuits"
    why = ("compile -> factored run -> check, warm windows: frun is O(r^2) "
           "and reads only register 0 over few distinct columns")
    tail_percentile = 70.0
    # One round: (r, carries a long-range CNOT) per circuit.  The plain
    # entries are the r quantiles at (i + 0.5) / 11 for 1-3 gates drawn as
    # in criterion 6 at 4 rows (20 20 20 40 60 60 80 100 180 200 240),
    # with the top three capped at 140 and the last one made a long-range
    # CNOT circuit at r = 180.  At the baseline commit frun costs about
    # 67 us * r^2 on a 2-core Xeon (2.2 s at r = 180, 19 s at r = 540 for
    # CNOT(0,3)); the cap keeps a round near 7 s.  An odd count puts the median inside one class.
    PROFILE = ((20, False), (20, False), (20, False), (40, False),
               (60, False), (60, False), (80, False), (100, False),
               (140, False), (140, False), (180, True))
    # Candidates (plain, long-range) drawn and compiled for every round,
    # so that drawing a round costs the same on every seed.  About 2.4% of
    # plain draws compile to r = 140 and 13% of long-range draws to
    # r = 180, so a profile entry finds its pool short about once in a
    # thousand rounds and draws on until it has a circuit.
    POOL = (400, 60)

    def __init__(self, seed, rec, workdir, rows=4, profile=PROFILE):
        super().__init__(seed, rec, workdir)
        self.rows = rows
        self.s = rows // 2
        self.profile = profile

    def setup(self):
        return {"compiler.derive_s": derive_seconds(self.rows)}

    def _candidate(self, long_range):
        rng = self.rng
        if long_range:
            gate_list = [_random_gate(rng, self.rows)
                         for _ in range(int(rng.integers(0, 3)))]
            c, t = rng.choice(self.rows, size=2, replace=False)
            while abs(int(c) - int(t)) < 2:
                c, t = rng.choice(self.rows, size=2, replace=False)
            gate_list = _with_gate(rng, gate_list,
                                   LogicalGate("CNOT", (int(c), int(t))))
        else:
            gate_list = [_random_gate(rng, self.rows)
                         for _ in range(int(rng.integers(1, 4)))]
        return CircuitIR(self.rows, tuple(gate_list))

    def _pool(self):
        """The round's candidates by (long range, r)."""
        pool = collections.defaultdict(list)
        for long_range, n in zip((False, True), self.POOL):
            for _ in range(n):
                circuit = self._candidate(long_range)
                r = compiler.compile_circuit(circuit, self.s)[1]
                pool[long_range, r].append(circuit)
        return pool

    def _draw(self, pool, r_target, long_range):
        """A candidate with this r, taken out of the pool at random."""
        bucket = pool[long_range, r_target]
        for _ in range(MAX_DRAWS):
            if bucket:
                return bucket.pop(int(self.rng.integers(0, len(bucket))))
            circuit = self._candidate(long_range)
            r = compiler.compile_circuit(circuit, self.s)[1]
            pool[long_range, r].append(circuit)
        raise RuntimeError(f"no circuit with r = {r_target} in {MAX_DRAWS} draws")

    def make_round(self):
        pool = self._pool()
        units = []
        for r_target, long_range in self.profile:
            circuit = self._draw(pool, r_target, long_range)
            psi = _random_state(self.rng, 2 ** self.rows)
            units.append(self._op(circuit, psi))
        return units

    def _op(self, circuit, psi):
        rec, tr = self.rec, self.rec.tracer
        with rec.op() as i:
            with tr.span("compiler.compile"):
                layers, r = compiler.compile_circuit(circuit, self.s)
                columns = compiler.layers_to_program(layers)
            spec = LatticeSpec(self.s, r, Topology.TORUS)
            data = [psi] + [_basis(2 ** self.rows)] * (r - 1)
            with tr.span("factored.frun"), _factored_updates(rec, r):
                state = factored.frun(factored.init_factored(
                    ColumnAssignment(data, columns), spec), r)
                out = factored.output_register(state)
            with tr.span("compiler.reference"):
                ref = compiler.reference_simulate(circuit, psi)
            with tr.span("verify.fidelity"):
                fid = verify.fidelity_up_to_phase(ref, out).fidelity
            if fid < 1 - FIDELITY_BOUND:
                rec.fail([i])
        _count_program(rec, circuit, columns)
        yield


class CompileCold(Workload):
    name = "compile-cold"
    why = ("one fresh `mqca compile` process per op: import plus window "
           "derivation, which grows fast with the row count")
    # About ten ops per run, so no percentile has ten samples beyond it;
    # p85 sits inside the 6-row class for two to four rounds.
    tail_percentile = 85.0
    # Rows of each op in one round.  Every circuit carries a CNOT across
    # all rows, so each process derives every row pair and costs the same
    # for a given row count.  8 rows take about 24 s per op at the
    # baseline commit and are left out.
    ROWS = (4, 4, 6)

    def __init__(self, seed, rec, workdir, rows=ROWS):
        super().__init__(seed, rec, workdir)
        self.rows = rows
        self.traced_circuits = []
        self.child_rss_kb = 0
        self.env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        self.serial = 0

    def _circuit(self, rows):
        rng = self.rng
        gate_list = [_random_gate(rng, rows)
                     for _ in range(int(rng.integers(0, 3)))]
        c, t = (0, rows - 1) if rng.integers(0, 2) else (rows - 1, 0)
        gate_list = _with_gate(rng, gate_list, LogicalGate("CNOT", (c, t)))
        return CircuitIR(rows, tuple(gate_list))

    def make_round(self):
        units = []
        for rows in self.rows:
            circuit = self._circuit(rows)
            psi = _random_state(self.rng, 2 ** rows)
            self.serial += 1
            base = os.path.join(self.workdir, f"op{self.serial}")
            with open(base + ".circuit.json", "w", encoding="utf-8") as fh:
                json.dump(compiler.circuit_to_json(circuit), fh)
            units.append(self._op(circuit, psi, base))
        return units

    def _spawn(self, argv, stderr_path):
        """Run one child to completion; returns (exit code, rusage)."""
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def _op(self, circuit, psi, base):
        rec, tr = self.rec, self.rec.tracer
        argv = [sys.executable, "-m", "mqca.cli", "compile",
                base + ".circuit.json", "--out", base + ".program.json"]
        with rec.op() as i:
            with tr.span("cli.process"):
                code, usage = self._spawn(argv, base + ".stderr")
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if tr.enabled:
            self.traced_circuits.append(circuit)
        if code != 0 or not self._check(circuit, psi, base + ".program.json"):
            rec.fail([i])
        yield

    def _check(self, circuit, psi, path):
        """Evolve register 0 through the emitted program in O(r): at step
        t it meets programs[t] with phi = t mod 2."""
        with open(path, encoding="utf-8") as fh:
            prog = json.load(fh)
        s, r = int(prog["s"]), int(prog["r"])
        columns = [ProgramColumn.from_string(c) for c in prog["columns"]]
        if 2 * s != circuit.width or len(columns) != r:
            return False
        v = psi
        for t, p in enumerate(columns):
            v = gates.apply_gates(v, gates.u_of_p(p, t % 2, s))
        ref = compiler.reference_simulate(circuit, psi)
        _count_program(self.rec, circuit, columns)
        return verify.fidelity_up_to_phase(ref, v).fidelity >= 1 - FIDELITY_BOUND

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0

    def trace_extras(self):
        tr = self.rec.tracer
        # The derivation each child paid, measured in this process.
        derive = {rows: derive_seconds(rows) for rows in set(self.rows)}
        for circuit in self.traced_circuits:
            with tr.span("compiler.compile"):
                compiler.compile_circuit(circuit, circuit.width // 2)
        imports = []
        for _ in range(3):
            t0 = time.perf_counter()
            code, _ = self._spawn([sys.executable, "-c", "import mqca.cli"],
                                  os.path.join(self.workdir, "import.stderr"))
            imports.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError("`import mqca.cli` failed in a child")
        return {"compiler.derive_s": sum(derive[c.width]
                                         for c in self.traced_circuits),
                "cli.import_s": float(np.median(imports))}


class _DenseWorkload(Workload):
    state_bytes = 0

    def _step(self, state):
        with self.rec.tracer.span("dense.step"):
            nxt = dense.step(state)
        cells = lattice.cells_of_step(state.t, state.spec)
        self.rec.count("dense.cells", sum(
            c.kind is not lattice.CellKind.IDENTITY for c in cells))
        return nxt

    def _init(self, assign, spec):
        with self.rec.tracer.span("dense.init"):
            state = dense.init_state(assign, spec)
        self.state_bytes = max(self.state_bytes, state.amplitudes.nbytes)
        self.rec.tally("qubits", spec.n_qubits)
        return state


class Verify(_DenseWorkload):
    name = "verify"
    why = ("the cmd_verify checks at each t on 16 and 20 qubits: mostly SVD "
           "rank probes, every factored register read at every step")
    tail_percentile = 80.0
    # (s, r) of the programs in one round: 16, 16, 16 and 20 qubits.
    # (1, 4) runs twice so that the median lands inside the 16-qubit
    # torus ops and p80 inside the 20-qubit ops.
    LATTICES = ((2, 2), (1, 4), (1, 4), (1, 5))
    # The programs advance in lockstep, so that a passing slowdown of the
    # machine does not fall on the short 16-qubit ops alone: run one after
    # another, their median moved by 20% between runs.
    interleave = True

    def __init__(self, seed, rec, workdir, lattices=LATTICES):
        super().__init__(seed, rec, workdir)
        self.lattices = lattices

    def make_round(self):
        units = []
        for s, r in self.lattices:
            spec = LatticeSpec(s, r, Topology.TORUS)
            assign = _random_assignment(self.rng, spec)
            units.append(self._torus(assign, spec))
            units.append(self._planar(assign, spec))
        return units

    def _torus(self, assign, spec):
        rec, tr = self.rec, self.rec.tracer
        ds = self._init(assign, spec)
        fs = factored.init_factored(assign, spec)
        r = spec.r
        _count_columns(rec, assign.programs, 2 * r)
        for t in range(2 * r + 1):
            with rec.op() as i:
                with tr.span("verify.occupancy"):
                    occupancy_ok = verify.check_occupancy(ds, assign.programs)
                with tr.span("factored.to_dense"):
                    amps = factored.to_dense(fs).amplitudes
                with tr.span("verify.fidelity"):
                    cross_ok = verify.fidelity_up_to_phase(
                        amps, ds.amplitudes).passed
                ranks = []
                for c in range(spec.n_cols - 1):
                    with tr.span("dense.schmidt"):
                        ranks.append(dense.schmidt_rank_at_cut(ds, c)[0])
                if t < 2 * r:
                    ds = self._step(ds)
                    with tr.span("factored.fstep"), _factored_updates(rec, r):
                        fs = factored.fstep(fs)
                if not (occupancy_ok and cross_ok and ranks == [1] * len(ranks)):
                    rec.fail([i])
            rec.count("dense.rank_probes", len(ranks))
            rec.count("dense.rank1", ranks.count(1))
            yield

    def _planar(self, assign, tspec):
        rec, tr = self.rec, self.rec.tracer
        spec = LatticeSpec(tspec.s, tspec.r, Topology.PLANAR)
        ps = self._init(assign, spec)
        r = spec.r
        for t in range(r + 1):
            with rec.op() as i:
                with tr.span("verify.wavefront"):
                    profile = verify.wavefront_profile(ps)
                if t < r:
                    ps = self._step(ps)
                # As `mqca verify`: rank 1 left of the wavefront, and
                # ranks that do not fall from left to right.
                if (any(profile[c] != 1
                        for c in range(min(len(profile), 2 * r - 1 - t)))
                        or any(profile[c] > profile[c + 1]
                               for c in range(len(profile) - 1))):
                    rec.fail([i])
            rec.count("dense.rank_probes", len(profile))
            rec.count("dense.rank1", profile.count(1))
            yield


class Dense24(_DenseWorkload):
    name = "dense-24"
    why = ("one 24-qubit dense step per op, 256 MB state: memory-bound "
           "kernel with no SVD, read out at column r and checked")
    # Nine ops per run, so no percentile has ten samples beyond it.
    tail_percentile = 75.0
    LATTICES = ((2, 3, Topology.TORUS), (1, 6, Topology.PLANAR))

    def __init__(self, seed, rec, workdir, lattices=LATTICES):
        super().__init__(seed, rec, workdir)
        self.lattices = lattices
        self.step_latency = []

    def make_round(self):
        units = []
        for s, r, topology in self.lattices:
            spec = LatticeSpec(s, r, topology)
            assign = _random_assignment(self.rng, LatticeSpec(s, r))
            units.append(self._program(assign, spec))
        return units

    def _program(self, assign, spec):
        """init -> r steps -> column-r marginal, checked against the
        factored register 0 (criterion 7a on the planar sheet)."""
        rec, tr = self.rec, self.rec.tracer
        state = self._init(assign, spec)
        ops = []
        for _ in range(spec.r):
            with rec.op() as i:
                state = self._step(state)
            ops.append(i)
            self.step_latency.append(rec.latency[i])
            yield
        with tr.span("dense.marginal"):
            rho = dense.column_marginal(state, spec.r)
        del state
        tspec = LatticeSpec(spec.s, spec.r, Topology.TORUS)
        with tr.span("factored.frun"), _factored_updates(rec, spec.r):
            d0 = factored.output_register(factored.frun(
                factored.init_factored(assign, tspec), spec.r))
        _count_columns(rec, assign.programs, spec.r)
        fid = float(np.sqrt(max(np.real(np.vdot(d0, rho @ d0)), 0.0)))
        if fid < 1 - FIDELITY_BOUND:
            rec.fail(ops)

    def trace_extras(self):
        """One in-place pass over an array the size of the largest state:
        a same-size single pass, not a DRAM bandwidth figure."""
        a = np.ones(self.state_bytes // 16,
                    dtype=np.complex128)
        passes = []
        for _ in range(5):
            t0 = time.perf_counter()
            np.multiply(a, 1.0, out=a)
            passes.append(time.perf_counter() - t0)
        floor = float(np.median(passes))
        return {"dense.floor_s": floor,
                "dense.floor_ratio": float(np.median(self.step_latency)) / floor}


WORKLOADS = {w.name: w for w in (Circuits, CompileCold, Verify, Dense24)}
