#!/usr/bin/env python3
"""Self-check of the serving benchmark.

    python3 servebench/selfcheck.py [--seconds 3]

For every workload:
  * two traced runs of one seed must report identical replay counts
    (replay.* metrics: visited, fetches, sweeps, cache hits, ...);
  * a second seed must keep the workload's character: result-cache hit
    ratio about 0 on uniform_cold and clearly above 0 on zipf_mixed, every
    to-proof answer certified, and a certified ratio strictly between 0 and
    1 on filtered_anytime;
  * every run must report correct answers and no failed operation.
Exits 0 when all checks pass.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniform_cold", "zipf_mixed", "filtered_anytime")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()

    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        first, counts_a = run(w, args.seed, args.seconds, 1)
        second, counts_b = run(w, args.seed, args.seconds, 1)
        for result in (first, second):
            expect(result["correct"] and result["failed"] == 0,
                   f"{w}: traced run correct, no failed operation")
        replay = sorted(k for k in counts_a if k.startswith("replay."))
        expect(bool(replay), f"{w}: traced run reports replay counts")
        for k in replay:
            expect(counts_a[k] == counts_b[k],
                   f"{w} seed {args.seed}: {k} repeats exactly "
                   f"({counts_a[k]:.0f} vs {counts_b[k]:.0f})")

        other = args.seed + 1
        e2e_result, e2e = run(w, other, args.seconds, 0)
        _, layers = run(w, other, args.seconds, 1)
        expect(e2e_result["correct"] and e2e_result["failed"] == 0,
               f"{w} seed {other}: correct, no failed operation")
        hit = layers["query_cache.hit_ratio"]
        certified = e2e["certified_ratio"]
        if w == "uniform_cold":
            expect(hit < 0.01, f"{w}: query_cache.hit_ratio {hit:.4f} ~ 0")
        if w == "zipf_mixed":
            expect(hit > 0.05, f"{w}: query_cache.hit_ratio {hit:.4f} > 0.05")
        if w == "filtered_anytime":
            expect(0 < certified < 1,
                   f"{w}: certified_ratio {certified:.4f} in (0, 1)")
        else:
            expect(certified == 1, f"{w}: every to-proof answer certified")

    print("selfcheck: " + ("all checks passed" if not problems
                           else f"{len(problems)} check(s) failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
