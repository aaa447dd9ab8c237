"""Steadiness check: run every workload in two sets taken apart in time.

    python3 benchmark/steadiness.py [--runs 10]

Two sets, 60 s apart, each of ``--runs`` seeds of every workload in
BENCHMARK.json (seed-major, so slow drifts of the machine spread over all
workloads). Each run is a separate ``benchmark/run.py`` process with the
run length from BENCHMARK.json. Set A uses seeds 1..N and set B seeds
N+1..2N. For every end-to-end metric it prints the median and quartiles
of each set, the spread (quartile distance over the median) and the gap
between the set medians, both as shares, next to the metric's bound. A
run that fails or fails a check stops the command with its error. Raw
results go to ``benchmark/out/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
GAP_SECONDS = 60


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median)}


def worse_by(metric, first, second):
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set (at least 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results = {}  # (set, workload) -> [result]
    for s in range(SETS):
        if s:
            time.sleep(GAP_SECONDS)
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in names:
                result = run_once(w, seed, spec["run_seconds"])
                results.setdefault((s, w), []).append(result)
                print(f"set {'AB'[s]} seed {seed} {w}: correct="
                      f"{result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}", file=sys.stderr, flush=True)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"steadiness-{stamp}.json").write_text(json.dumps(
        {f"{'AB'[s]}:{w}": r for (s, w), r in results.items()}, indent=1))

    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':18} {'set':3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'gap':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                runs = results[(s, w)]
                st = summary([r["metrics"][name]["value"] for r in runs])
                medians.append(st["median"])
                gap = (worse_by(metric, medians[0], st["median"])
                       if s else float("nan"))
                steady = st["spread"] <= bound
                ok &= steady and not gap > bound
                print(f"  {name:18} {'AB'[s]:3} {st['median']:12.6g} "
                      f"{st['q1']:12.6g} {st['q3']:12.6g} "
                      f"{st['spread']:7.3f} {gap:7.3f} {bound:6.2f}"
                      f"{'' if steady else '  SPREAD > BOUND'}")
        fail_shares = {s: sorted({r['failed'] / r['attempted']
                                  for r in results[(s, w)]})
                       for s in range(SETS)}
        print(f"  failed share per set: {fail_shares}")
        ok &= len({tuple(v) for v in fail_shares.values()}) == 1 == len(
            fail_shares[0])
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
