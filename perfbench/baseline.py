"""Run every workload over several seeds, twice, and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each set runs every workload in BENCHMARK.json once per seed; the second
set takes the next seeds (11-20 after 1-10).  For each set, workload and
end-to-end metric it reports the median and the quartiles
(statistics.quantiles, n=4) of the per-seed values, and the spread
(q3 - q1) / median against the metric's bound.  It then compares the
second set's median with the first's, and adds one traced run per
workload, at the first seed, for the per-layer numbers.  A line is
flagged WIDE when its spread is above a third of the bound, OVER when
it is above the bound, and WORSE when the second median is worse than
the first by more than the bound.  Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def run_set(names, seeds, seconds, bounds):
    out = {"seeds": seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        out["env"] = runs[0][0]["env"]
        entry = out["workloads"][name] = {
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": [r[1]["failed"] for r in runs],
            "end_to_end": {m: summarise([r[1]["metrics"][m]["value"]
                                         for r in runs], bounds[m])
                           for m in bounds},
            "inputs": [r[0]["inputs"] for r in runs],
        }
        for m, s in entry["end_to_end"].items():
            flag = ("  OVER" if s["spread"] > s["bound"] else
                    "  WIDE" if s["spread"] > s["bound"] / 3 else "")
            print(f"{name:<13} {m:<12} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}",
                  flush=True)
    return out


def shifts(first, second, bench):
    """Per workload and metric: how much worse the second median is than
    the first, as a share of the first (negative when it is better)."""
    sign = {m["name"]: 1 if m["better"] == "lower" else -1
            for m in bench["end_to_end"]}
    out = {}
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        out[name] = {}
        for m, s in a["end_to_end"].items():
            worse = sign[m] * (b["end_to_end"][m]["median"] - s["median"])
            out[name][m] = worse / s["median"]
            flag = "  WORSE" if out[name][m] > s["bound"] else ""
            print(f"{name:<13} {m:<12} second set {out[name][m]:+.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    sets = [run_set(names, [s + k * len(seeds) for s in seeds], seconds,
                    bounds)
            for k in range(2)]
    report = {"run_seconds": seconds, "env": sets[0]["env"], "sets": sets,
              "second_set_worse_by": shifts(sets[0], sets[1], bench)}
    report["per_layer"] = {"seed": seeds[0]}
    for name in names:
        _, traced = run_once(name, seeds[0], seconds, 1)
        report["per_layer"][name] = {m: v["value"]
                                     for m, v in traced["metrics"].items()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
