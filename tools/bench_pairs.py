#!/usr/bin/env python3
"""Paired, alternating benchmark runs of a base revision against this checkout.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N --seed S --slug SLUG

Unpacks REV with `git archive REV | tar -x` into `.bench_pairs/<commit>/` (a
directory git ignores), and copies this checkout as it stands, its tracked
files with their edits and the new files git does not ignore, into
`.bench_pairs/<snapshot>/`, where <snapshot> is the sha1 of those files' paths
and bytes: as long as a commit hash, so both sides run from paths of one
length (the minor page faults of a run move with its path's length). An
existing tree of either name is reused. Then it runs N pairs. Each pair runs
both trees' own `perfbench/run.py --workload W --seed S --seconds 25 --trace 0`,
one after the other, as children of this one driver started the same way, the
side that runs first alternating from pair to pair. A child's minor page
faults are the growth of `getrusage(RUSAGE_CHILDREN).ru_minflt` across its run.

The runs are appended as one entry to `BENCH_<SLUG>.json` at the repo root
(created if missing): the environment line of the first child, the commit,
tree path and `src/` digest of both sides, every pair's values, each side's
median and quartiles per metric, how many pairs each side won per metric,
ties counting for neither, and whether the head's gain holds (see `summarize`).
A child that is not `correct` stops the runs.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_pairs"
SECONDS = 25
# BENCHMARK.json's end-to-end metrics, and the child's minor page faults
BETTER = {"setup_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower",
          "minor_faults": "lower"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def unpack(rev: str, work: Path = WORK) -> tuple[str, Path]:
    """(commit, tree) of revision `rev`, the tree unpacked once under `work`."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    tree = work / commit
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {commit} failed")
    return commit, tree


def snapshot(work: Path = WORK) -> tuple[str, Path]:
    """(name, tree) of this checkout as it stands, copied once under `work`: its
    tracked files as edited and its new files that git does not ignore. The
    name is the sha1 of their paths and bytes, 40 hex digits like a commit's."""
    paths = sorted(p for p in git("ls-files", "-z", "--cached", "--others",
                                  "--exclude-standard").split("\0")
                   if p and (ROOT / p).is_file())     # a deleted tracked file is left out
    digest = hashlib.sha1()
    for p in paths:
        data = (ROOT / p).read_bytes()
        digest.update(f"{p}\0{len(data)}\0".encode() + data)
    name = digest.hexdigest()
    tree = work / name
    if not tree.is_dir():
        partial = work / f"{name}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        for p in paths:
            (partial / p).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / p, partial / p)
        partial.rename(tree)
    return name, tree


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run of `tree`: its env line, its metrics and its minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: perfbench reported incorrect output\n{proc.stdout[-2000:]}")
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["minor_faults"] = faults
    return {"env": env, "values": values}


def quartiles(xs: list) -> dict:
    """Median and quartiles of xs (statistics.quantiles, inclusive method)."""
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, better: dict = BETTER) -> dict:
    """Per metric of `better`: each side's quartiles, how many pairs each side
    won, a tie counting for neither, and whether a gain of the head holds: it
    wins at least 90% of the pairs, and its median moves past the base's
    quartile spread in the better direction. `pairs` holds {"base": {...},
    "head": {...}} metric values per pair."""
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        head_wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        base_wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        b, h = quartiles(base), quartiles(head)
        out[name] = {"better": direction, "base": b, "head": h,
                     "head_wins": head_wins, "base_wins": base_wins,
                     "ties": len(pairs) - head_wins - base_wins,
                     "gain_holds": (head_wins >= 0.9 * len(pairs)
                                    and sign * (h["median"] - b["median"]) > b["q3"] - b["q1"])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=("train_long", "train_vit_lit", "eval_long"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slug", required=True, help="the output is BENCH_<slug>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    commit, base_tree = unpack(args.base)
    name, head_tree = snapshot()
    trees = {"base": base_tree, "head": head_tree}
    pairs, envs = [], {}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            run = run_side(trees[side], args.workload, args.seed)
            envs.setdefault(side, run["env"])
            pair[side] = run["values"]
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + json.dumps(pair, sort_keys=True), flush=True)

    entry = {
        "workload": args.workload, "seed": args.seed, "seconds": SECONDS,
        "start": "subprocess of one driver, sys.executable perfbench/run.py, cwd = the tree",
        "env": envs["base"],
        # the head is the checkout as it stands, its HEAD commit plus any edits
        "sides": {"base": {"rev": args.base, "commit": commit, "tree": str(base_tree),
                           "src_sha256": envs["base"]["src_sha256"]},
                  "head": {"rev": "checkout", "commit": git("rev-parse", "HEAD").strip(),
                           "snapshot": name, "tree": str(head_tree),
                           "src_sha256": envs["head"]["src_sha256"]}},
        "pairs": pairs,
        "summary": summarize([{s: p[s] for s in trees} for p in pairs]),
    }
    path = ROOT / f"BENCH_{args.slug}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(entry)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in entry["summary"].items():
        print(f"{name}: base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, "
              f"{s['base']['q3']:.6g}]  head {s['head']['median']:.6g} [{s['head']['q1']:.6g}, "
              f"{s['head']['q3']:.6g}]  head wins {s['head_wins']}/{len(pairs)}, "
              f"base wins {s['base_wins']}, "
              f"gain {'holds' if s['gain_holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
