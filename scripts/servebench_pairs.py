#!/usr/bin/env python3
"""Paired A/B runs of the serving benchmark: a base commit against this checkout.

    python3 scripts/servebench_pairs.py --base <ref> --workload uniform_cold \\
        --pairs 10 --seed0 301 [--seconds 30] [--expect-diff NAME ...]

The base is checked out into a temporary `git worktree` (removed on exit);
`--base-dir <checkout>` uses an existing checkout of the base instead, so
its servebench build is reused across invocations. The candidate is the
checkout this script lives in, uncommitted changes included. Both sides
build and run through their own `servebench/run.py`.

Steps:
  1. One traced run (`--trace 1`, seed `seed0`) per side, printed layer
     by layer with the head/base ratio. The search-count metrics
     `replay.*` must be identical: a pure speed change does not move them.
     `--expect-diff replay.NAME` (repeatable) declares one counter the
     change is meant to move; it is printed with its head/base ratio.
  2. `--pairs` untraced pairs; pair i uses seed `seed0 + i` on both sides,
     and the side that runs first alternates from pair to pair.
  3. Per end-to-end metric: median and quartiles of each side, the ratio
     of the medians, on how many pairs the candidate was better
     (direction from BENCHMARK.json) and a verdict (see `verdict`), then
     every pair's values. peak_rss_mb comes from the context line and is
     reported, not judged.

Exits 1 if an undeclared replay count differs, or if any run is not `correct` or
reports failed operations; timings never fail the script.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_bench(checkout, workload, seed, seconds, trace):
    """Runs servebench/run.py in `checkout`; returns (result, context)."""
    cmd = [sys.executable, os.path.join("servebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        sys.exit(f"servebench failed in {checkout} (exit {done.returncode})")
    result, context = None, {}
    for line in done.stdout.splitlines():
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        sys.exit(f"no JSON result from servebench in {checkout}")
    return result, context


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, head, better, bound):
    """Judges one end-to-end metric from paired runs (base[i] pairs head[i]).

    `better` is "higher" or "lower" and `bound` the tolerated relative
    change, both from BENCHMARK.json. In order:
      "worse"         the head median is worse than the base median by more
                      than `bound` of it;
      "unresolved"    either side's quartile spread exceeds `bound` of its
                      median, too wide to tell;
      "gain"          the head wins at least 9 in 10 pairs (ties win for
                      neither side) and its median is better by more than
                      the base's quartile spread;
      "within bound"  otherwise.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    bq, hq = quartiles(base), quartiles(head)
    if sign * (bq[1] - hq[1]) > bound * abs(bq[1]):
        return "worse"
    if any(q[2] - q[0] > bound * abs(q[1]) for q in (bq, hq)):
        return "unresolved"
    if 10 * wins >= 9 * len(base) and sign * (hq[1] - bq[1]) > bq[2] - bq[0]:
        return "gain"
    return "within bound"


def healthy(result, side, problems):
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{side}: correct={result['correct']} "
                        f"failed={result['failed']}")


def compare(base_dir, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}
    problems = []
    sides = (("base", base_dir), ("head", ROOT))

    # 1. Traced runs (these also build both sides before anything is timed).
    traced = {}
    for side, checkout in sides:
        log(f"traced run: {side}")
        traced[side], _ = run_bench(checkout, args.workload, args.seed0,
                                    args.seconds, 1)
        healthy(traced[side], side, problems)
    base_t, head_t = values(traced["base"]), values(traced["head"])
    print(f"traced run ({args.workload}, seed {args.seed0}, one per side):")
    for name in sorted(set(base_t) | set(head_t)):
        b, h = base_t.get(name), head_t.get(name)
        if name.startswith("replay.") and name not in args.expect_diff:
            note = "same" if b == h else "DIFF"
            if b != h:
                problems.append(f"{name} differs")
        else:
            note = f"{h / b:.3f}" if b and h is not None else "-"
        print(f"  {name:40s} base {b!s:>14.14}  head {h!s:>14.14}  {note}")

    # 2. Alternated pairs.
    runs = {"base": [], "head": []}
    rss = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = sides if i % 2 == 0 else sides[::-1]
        for side, checkout in order:
            log(f"pair {i + 1}/{args.pairs} seed {seed}: {side}")
            result, context = run_bench(checkout, args.workload, seed,
                                        args.seconds, 0)
            healthy(result, side, problems)
            runs[side].append(values(result))
            rss[side].append(context.get("peak_rss_mb", float("nan")))

    # 3. Summary.
    print(f"{args.pairs} pairs, {args.workload}, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, {args.seconds} s runs:")
    def spread(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"  {'metric':16s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'ratio':>7s}  wins   verdict")
    for name in sorted(set(runs["base"][0]) & set(runs["head"][0])):
        b = [r[name] for r in runs["base"]]
        h = [r[name] for r in runs["head"]]
        bq, hq = quartiles(b), quartiles(h)
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        wins, judged = "-", ""
        if name in end_to_end:
            metric = end_to_end[name]
            sign = 1 if metric["better"] == "higher" else -1
            won = sum(sign * (y - x) > 0 for x, y in zip(b, h))
            wins = f"{won}/{args.pairs}"
            judged = verdict(b, h, metric["better"], metric["bound"])
        print(f"  {name:16s} {spread(bq):>32s} {spread(hq):>32s} "
              f"{ratio:7.3f}  {wins:6s} {judged}")
    for side in ("base", "head"):
        print(f"  peak_rss_mb {side}: median {statistics.median(rss[side]):.1f}")
    print("every pair, base -> head:")
    for i in range(args.pairs):
        cells = [f"{name} {runs['base'][i][name]:.4g} -> "
                 f"{runs['head'][i][name]:.4g}"
                 for name in end_to_end if name in runs["base"][i]]
        print(f"  seed {args.seed0 + i}: " + ", ".join(cells))
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="git ref of the base side")
    base.add_argument("--base-dir", help="existing checkout of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--expect-diff", action="append", default=[],
                        metavar="NAME",
                        help="a replay.* counter allowed to differ "
                             "(repeatable)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for name in args.expect_diff:
        if not name.startswith("replay."):
            parser.error(f"--expect-diff {name}: not a replay.* counter")

    if args.base_dir:
        return compare(os.path.abspath(args.base_dir), args)
    worktree = tempfile.mkdtemp(prefix="servebench-base-")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        worktree, args.base], check=True,
                       stdout=sys.stderr)
        return compare(worktree, args)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        worktree], stdout=sys.stderr, stderr=sys.stderr)
        shutil.rmtree(worktree, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main())
