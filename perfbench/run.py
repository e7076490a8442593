"""mqca benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload circuits --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the last line of stdout is a JSON object holding every
end-to-end metric; with `--trace 1` it holds every per-layer metric,
taken from spans recorded around calls into the mqca modules.  Lines
before it give each metric with its unit, the machine, and the measured
properties of the inputs.  See perfbench/README.md.
"""

import argparse
import collections
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("circuits", "compile-cold", "verify", "dense-24")
SETUP_PROBES = 9

# (name, unit) in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "ratio"))
# Layer calls wrapped in spans; each gives `<name>_s` and `<name>_calls`.
SPANS = ("compiler.compile", "compiler.reference", "cli.process",
         "factored.frun", "factored.fstep", "factored.to_dense",
         "dense.step", "dense.init", "dense.marginal", "dense.schmidt",
         "verify.occupancy", "verify.fidelity", "verify.wavefront")
PER_LAYER = (
    ("gates.build_tau_s", "s"), ("compiler.derive_s", "s"),
    ("compiler.steps", "count"), ("compiler.windows", "count"),
    ("compiler.steps_per_gate", "ratio"),
    ("compiler.distinct_column_share", "ratio"), ("cli.import_s", "s"),
    ("factored.register_updates", "count"),
    ("factored.us_per_register_update", "us"),
    ("factored.useful_ratio", "ratio"), ("dense.cells", "count"),
    ("dense.s_per_cell", "s"), ("dense.floor_s", "s"),
    ("dense.floor_ratio", "ratio"), ("dense.state_mb", "MB"),
    ("dense.rank1_share", "ratio"), ("op.total_s", "s"), ("op.self_s", "s"),
    ("trace.ops_per_s_ratio", "ratio"),
) + tuple(m for name in SPANS
          for m in ((f"{name}_s", "s"), (f"{name}_calls", "count")))


def _environ():
    """One BLAS thread for this process and its children, set before
    numpy is imported.  With two threads on a shared two-core machine,
    small LAPACK calls wait for a busy core: `verify`'s median op took
    twice as long while one core was loaded, and with one thread it did
    not move.  Returns the number of usable cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    return len(os.sched_getaffinity(0))


def _cache_bytes():
    """L2 and L3 size of cpu0, or None where sysfs does not say."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            sizes[level] = int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return sizes.get(2), sizes.get(3)


def environment(nproc):
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    l2, l3 = _cache_bytes()
    return {"nproc": nproc, "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "l2_bytes": l2, "l3_bytes": l3}


def setup(name, seed, workdir):
    """Everything before the first timed op."""
    import numpy as np
    from mqca import gates
    from tracing import Recorder
    from workloads import WORKLOADS

    rec = Recorder()
    t0 = time.perf_counter()
    gates.build_tau()
    measured = {"gates.build_tau_s": time.perf_counter() - t0}
    # The first LAPACK/BLAS calls of a process load and start the
    # library; pay that here, not in the first op.
    rng = np.random.default_rng(0)
    m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    np.linalg.svd(m, compute_uv=False)
    np.linalg.eigvalsh(m @ m.conj().T)
    wl = WORKLOADS[name](seed, rec, workdir)
    measured.update(wl.setup())
    return wl, rec, wl.make_round(), measured


def probe_setup(name, seed):
    """Set-up time of a fresh process: from spawn to its `ready` line."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--trace", "0",
            "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def _advance(rec, unit, ops):
    """Run `unit` to its next op boundary; False once it has ended.  A
    unit that raises fails every op it started (`ops`), or counts as one
    failed op if it started none."""
    n0 = len(rec.latency)
    try:
        next(unit)
    except StopIteration:
        return False
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops.extend(range(n0, len(rec.latency)))
        if ops:
            rec.fail(ops)
        else:
            rec.unit_errors += 1
        return False
    ops.extend(range(n0, len(rec.latency)))
    return True


def _run_round(rec, units, interleave):
    """Each unit to its end, or with `interleave` one op of each in turn."""
    queue = collections.deque((unit, []) for unit in units)
    while queue:
        unit, ops = queue.popleft()
        if interleave:
            if _advance(rec, unit, ops):
                queue.append((unit, ops))
        else:
            while _advance(rec, unit, ops):
                pass


def run_rounds(wl, rec, units, seconds, trace):
    """Whole rounds until the next one would end past `seconds`.  With
    `trace`, rounds alternate untraced and traced, at least one of each.
    Returns {traced: [wall, ops]} and the counters of the traced rounds."""
    spent = {False: [0.0, 0], True: [0.0, 0]}
    traced_counts = collections.Counter()
    total, k = 0.0, 0
    while True:
        traced = trace and k % 2 == 1
        rec.tracer.enabled = traced
        n0, c0 = len(rec.latency), rec.counts.copy()
        t0 = time.perf_counter()
        _run_round(rec, units, wl.interleave)
        dt = time.perf_counter() - t0
        rec.tracer.enabled = False
        spent[traced][0] += dt
        spent[traced][1] += len(rec.latency) - n0
        if traced:
            traced_counts.update(rec.counts - c0)
        total += dt
        k += 1
        if (not trace or k >= 2) and total + dt > seconds:
            return spent, traced_counts
        units = wl.make_round()


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(wl, rec, spent, setup_s):
    passed = len(rec.latency) - len(rec.failed)
    return {
        "setup_s": setup_s,
        "ops_per_s": passed / spent[False][0],
        "op_p50_s": _percentile(rec.latency, 50),
        "op_tail_s": _percentile(rec.latency, wl.tail_percentile),
        "peak_rss_mb": wl.peak_rss_mb(),
        "pass_frac": 1.0 - rec.n_failed / rec.attempted,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(wl, rec, spent, counts, measured):
    tr = rec.tracer
    self_times = tr.self_times()
    m = {}
    for name in SPANS:
        calls, busy = self_times.get(name, (0, 0.0))
        m[f"{name}_s"] = busy
        m[f"{name}_calls"] = calls
    steps = counts["compiler.steps"]
    updates = counts["factored.register_updates"]
    factored_s = m["factored.frun_s"] + m["factored.fstep_s"]
    m.update({
        "gates.build_tau_s": measured["gates.build_tau_s"],
        "compiler.derive_s": measured.get("compiler.derive_s", 0.0),
        "compiler.steps": steps,
        "compiler.windows": counts["compiler.windows"],
        "compiler.steps_per_gate": _ratio(steps,
                                          counts["compiler.source_gates"]),
        "compiler.distinct_column_share": _ratio(
            counts["compiler.distinct_columns"],
            counts["compiler.column_meetings"]),
        "cli.import_s": measured.get("cli.import_s", 0.0),
        "factored.register_updates": updates,
        "factored.us_per_register_update": _ratio(factored_s, updates) * 1e6,
        "factored.useful_ratio": _ratio(counts["factored.useful_updates"],
                                        updates),
        "dense.cells": counts["dense.cells"],
        "dense.s_per_cell": _ratio(m["dense.step_s"], counts["dense.cells"]),
        "dense.floor_s": measured.get("dense.floor_s", 0.0),
        "dense.floor_ratio": measured.get("dense.floor_ratio", 0.0),
        "dense.state_mb": getattr(wl, "state_bytes", 0) / 2 ** 20,
        "dense.rank1_share": _ratio(counts["dense.rank1"],
                                    counts["dense.rank_probes"]),
        "op.total_s": tr.total_time("op"),
        "op.self_s": self_times.get("op", (0, 0.0))[1],
        "trace.ops_per_s_ratio": _ratio(spent[True][1] / spent[True][0],
                                        spent[False][1] / spent[False][0]),
    })
    return m


def input_properties(wl, rec, env):
    """Measured properties of the inputs that ran, for citing shares."""
    c = rec.counts
    states = []
    for n in sorted(rec.tallies["qubits"]):
        size = 16 * 2 ** n
        states.append({"qubits": n, "state_mb": size / 2 ** 20,
                       "x_l2": _ratio(size, env["l2_bytes"] or 0),
                       "x_l3": _ratio(size, env["l3_bytes"] or 0)})
    return {
        "why": wl.why,
        "r_histogram": dict(sorted(rec.tallies["r"].items())),
        "steps_per_gate": _ratio(c["compiler.steps"],
                                 c["compiler.source_gates"]),
        "distinct_column_share": _ratio(c["compiler.distinct_columns"],
                                        c["compiler.column_meetings"]),
        "rank1_share": _ratio(c["dense.rank1"], c["dense.rank_probes"]),
        "dense_states": states,
        "tail": {"percentile": wl.tail_percentile,
                 "samples": len(rec.latency),
                 "beyond": round(len(rec.latency)
                                 * (1 - wl.tail_percentile / 100))},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mqca", "__init__.py")):
        print(f"error: no mqca sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _environ()
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _main(args, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, nproc, workdir):
    if args.setup_only:
        setup(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0
    import numpy as np
    probes = [] if args.trace else [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    wl, rec, units, measured = setup(args.workload, args.seed, workdir)
    spent, traced_counts = run_rounds(wl, rec, units, args.seconds,
                                      bool(args.trace))
    env = environment(nproc)
    print(f"{args.workload} seed={args.seed} ops={rec.attempted} "
          f"failed={rec.n_failed} "
          f"wall={spent[False][0] + spent[True][0]:.3f}s")
    if args.trace:
        rec.tracer.enabled = True
        measured.update(wl.trace_extras())
        rec.tracer.enabled = False
        metrics = per_layer(wl, rec, spent, traced_counts, measured)
        units = dict(PER_LAYER)
        rec.tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(wl, rec, spent, float(np.median(probes)))
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    print(json.dumps({"env": env,
                      "inputs": input_properties(wl, rec, env),
                      "setup_probes_s": probes}))
    print(json.dumps({
        "correct": rec.n_failed == 0, "attempted": rec.attempted,
        "failed": rec.n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
