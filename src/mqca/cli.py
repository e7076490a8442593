"""Command-line front end.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 semantic
error, 4 resource guard.
"""

import argparse
import json
import sys

import numpy as np

from . import dense, factored, verify
from .compiler import (CompileError, circuit_from_json, compile_circuit,
                       layers_to_program)
from .dense import (ColumnAssignment, MemoryGuardError, SAMPLER_NAME,
                    column_marginal, dump_state)
from .factored import UnsupportedTopologyError, dump_registers
from .gates import ProgramColumn, format_tau_dump
from .lattice import LatticeSpec, Topology

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_RESOURCE = 4


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")


class SystemExit2(Exception):
    """Parse-level failure."""


def _write(obj, path):
    text = json.dumps(obj, indent=1)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _pairs(vec):
    return [[float(f"{z.real:.17g}"), float(f"{z.imag:.17g}")] for z in vec]


def _program_from_json(obj):
    try:
        s, r = int(obj["s"]), int(obj["r"])
        columns = [ProgramColumn.from_string(c) for c in obj["columns"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit2(f"malformed program file: {exc}")
    if len(columns) != r or any(len(p) != 2 * s for p in columns):
        raise SystemExit2("program file columns do not match s, r")
    raw = [] if obj.get("data") is None else obj["data"]
    if not isinstance(raw, list):
        raise SystemExit2("program file data must be a list")
    data = []
    for i in range(r):
        entry = raw[i] if i < len(raw) else "0" * 2 * s
        try:
            data.append(_data_register(entry, 2 * s))
        except (TypeError, ValueError) as exc:
            raise SystemExit2(f"malformed data register {i}: {exc}")
    return s, r, ColumnAssignment(data, columns)


def _data_register(entry, two_s):
    """A bitstring (row 0 first) or a list of [re, im] amplitude pairs,
    normalized."""
    if isinstance(entry, str):
        p = ProgramColumn.from_string(entry)
        if len(p) != two_s:
            raise ValueError(f"needs {two_s} bits, got {len(p)}")
        v = np.zeros(2 ** two_s, dtype=np.complex128)
        v[p.basis_index()] = 1.0
        return v
    v = np.array([complex(re, im) for re, im in entry])
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("register is zero")
    return v / n


def cmd_compile(args):
    circuit = circuit_from_json(_load_json(args.circuit))
    s = circuit.width // 2
    schedule, r = compile_circuit(circuit, s)
    columns = layers_to_program(schedule)
    _write({"s": s, "r": r,
            "columns": [p.to_string() for p in columns]}, args.out)
    return EXIT_OK


def cmd_run(args):
    s, r, assign = _program_from_json(_load_json(args.program))
    topology = Topology(args.topology)
    spec = LatticeSpec(s, r, topology)
    steps = r if args.steps == "auto" else int(args.steps)
    meta = {"backend": args.backend, "topology": topology.value,
            "s": s, "r": r, "steps": steps, "seed": args.seed,
            "sampler": SAMPLER_NAME}

    if args.backend == "factored":
        state = factored.frun(factored.init_factored(assign, spec), steps)
        meta["t"] = state.t
        out_vec = factored.output_register(state,
                                           allow_off_schedule=(steps != r))
        probs = np.abs(out_vec) ** 2
        if args.dump_state:
            with open(args.dump_state, "w", encoding="utf-8") as fh:
                fh.write(dump_registers(state))
    else:
        state = dense.run(dense.init_state(assign, spec), steps)
        meta["t"] = state.t
        rho = column_marginal(state, state.t % spec.n_cols)
        evals, evecs = np.linalg.eigh(rho)
        out_vec = evecs[:, -1]
        meta["output_purity"] = float(evals[-1])
        probs = np.real(np.diag(rho))
        if args.dump_state:
            with open(args.dump_state, "w", encoding="utf-8") as fh:
                fh.write(dump_state(state))

    result = {"metadata": meta}
    if args.samples:
        rng = np.random.default_rng(args.seed)
        idxs = rng.choice(len(probs), size=args.samples, p=probs / probs.sum())
        result["samples"] = ["".join(str((int(i) >> y) & 1)
                                     for y in range(2 * s)) for i in idxs]
    else:
        result["amplitudes"] = _pairs(out_vec)
    _write(result, args.out)
    return EXIT_OK


def cmd_verify(args):
    s, r, assign = _program_from_json(_load_json(args.program))
    spec = LatticeSpec(s, r, Topology.TORUS)
    reports = []
    params = {"s": s, "r": r}

    ds = dense.init_state(assign, spec)
    fs = factored.init_factored(assign, spec)
    occupancy_ok = cross_ok = rank_ok = True
    worst_fid = 1.0
    for t in range(2 * r + 1):
        if not verify.check_occupancy(ds, assign.programs):
            occupancy_ok = False
        rep = verify.fidelity_up_to_phase(factored.to_dense(fs).amplitudes,
                                          ds.amplitudes)
        worst_fid = min(worst_fid, rep.fidelity)
        if not rep.passed:
            cross_ok = False
        for c in range(spec.n_cols - 1):
            rank, _ = dense.schmidt_rank_at_cut(ds, c)
            if rank != 1:
                rank_ok = False
        if t < 2 * r:
            ds = dense.step(ds)
            fs = factored.fstep(fs)
    reports.append(verify.report("occupancy", params, occupancy_ok,
                                 1e-10, occupancy_ok))
    reports.append(verify.report("cross-backend", params, worst_fid,
                                 1e-10, cross_ok))
    reports.append(verify.report("torus-schmidt-rank", params, rank_ok,
                                 dense.RANK_TOL, rank_ok))

    # planar wavefront on the same program
    pspec = LatticeSpec(s, r, Topology.PLANAR)
    ps = dense.init_state(assign, pspec)
    wavefront_ok = True
    for t in range(r + 1):
        profile = verify.wavefront_profile(ps)
        if any(profile[c] != 1 for c in range(min(len(profile),
                                                  2 * r - 1 - t))):
            wavefront_ok = False
        if any(profile[c] > profile[c + 1] for c in range(len(profile) - 1)):
            wavefront_ok = False
        if t < r:
            ps = dense.step(ps)
    reports.append(verify.report("planar-wavefront", params, wavefront_ok,
                                 dense.RANK_TOL, wavefront_ok))

    _write(reports, args.out)
    failing = [rep["check"] for rep in reports if not rep["pass"]]
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_tau(args):
    sys.stdout.write(format_tau_dump())
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mqca",
        description="Margolus-cell QCA: compile circuits to programs, "
                    "run them, verify invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a circuit file to a program")
    p.add_argument("circuit")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run a program file")
    p.add_argument("program")
    p.add_argument("--backend", choices=("dense", "factored"),
                   default="factored")
    p.add_argument("--topology", choices=("torus", "planar"),
                   default="torus")
    p.add_argument("--steps", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--dump-state", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the invariant checks on a program")
    p.add_argument("program")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tau", help="dump the 16x16 cell transition matrix")
    p.set_defaults(func=cmd_tau)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CompileError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (UnsupportedTopologyError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except MemoryGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
