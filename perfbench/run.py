#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of Dist-mu-RA.

Run from the root of a checkout:

  python3 perfbench/run.py --workload yago_oneshot --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest        # tiny-scale self-test (~1 min)
  python3 perfbench/run.py --regen-goldens   # recompute perfbench/goldens.tsv (~4 min)

It builds perfbench/perfbench.exe with dune (output to _build/), runs it,
and passes its result through: the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The run context
(commit, cores, OCaml version, scales, sample counts, ratio bases) goes to
stderr and to perfbench/out/. Without the repository's sources the build
fails and the script exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "out")


def build():
    """Build the benchmark; dune's own output goes to stderr."""
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def commit():
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_exe(args, timeout=170):
    """Run perfbench.exe; return (exit code, last stdout line, context)."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.NamedTemporaryFile("r", dir=OUT, suffix=".json", delete=False) as f:
        ctx_file = f.name
    try:
        r = subprocess.run(
            [EXE] + args + ["--context", ctx_file],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=timeout,
        )
        lines = r.stdout.strip().splitlines()
        with open(ctx_file) as f:
            text = f.read()
        ctx = json.loads(text) if text.strip() else {}
        return r.returncode, (lines[-1] if lines else ""), ctx
    finally:
        os.unlink(ctx_file)


def bench(a):
    args = ["run", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    code, last, ctx = run_exe(args)
    ctx["commit"] = commit()
    ctx_text = json.dumps(ctx, sort_keys=True)
    print("context: " + ctx_text, file=sys.stderr)
    with open(os.path.join(OUT, f"{a.workload}-seed{a.seed}-trace{a.trace}.json"), "w") as f:
        f.write(ctx_text + "\n")
    if not last.startswith("{"):
        return code or 1
    print(last)
    return code


def selftest():
    """Tiny-scale check of the benchmark itself: every metric of
    BENCHMARK.json is emitted with its unit on every workload, a corrupted
    golden digest is caught, and the traced run reports its coverage."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    os.makedirs(OUT, exist_ok=True)
    goldens = os.path.join(OUT, "selftest-goldens.tsv")
    tiny = ["--yago-scale", "200", "--uniprot-scale", "200", "--goldens", goldens]
    subprocess.run([EXE, "goldens"] + tiny, cwd=ROOT, check=True, stdout=sys.stderr)
    problems = []
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["run", "--workload", w["name"], "--seed", "7", "--seconds", "2",
                    "--trace", str(trace)] + tiny
            code, last, _ = run_exe(args)
            res = json.loads(last)
            if code != 0 or not res["correct"] or res["failed"] != 0:
                problems.append(f"{w['name']} trace={trace}: failed run {last}")
            for m in metrics:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w['name']} trace={trace}: {m['name']} missing or wrong unit")
            if trace == 1:
                cov = res["metrics"].get("trace.coverage_frac", {}).get("value")
                if not isinstance(cov, (int, float)) or not 0 < cov <= 1.0001:
                    problems.append(f"{w['name']}: trace.coverage_frac not reported ({cov})")
        code, last, _ = run_exe(["run", "--workload", w["name"], "--seed", "7", "--seconds", "1",
                                 "--trace", "0", "--corrupt-digest"] + tiny)
        res = json.loads(last) if last.startswith("{") else None
        if code == 0 or res is None or res["failed"] == 0 or res["correct"]:
            problems.append(f"{w['name']}: corrupted digest not caught (exit {code}, {last})")
    os.unlink(goldens)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--regen-goldens", action="store_true")
    a = p.parse_args()
    if not build():
        print("perfbench: cannot build the benchmark here", file=sys.stderr)
        return 2
    if a.selftest:
        return selftest()
    if a.regen_goldens:
        return subprocess.run([EXE, "goldens"], cwd=ROOT).returncode
    if not a.workload:
        p.error("--workload is required")
    return bench(a)


if __name__ == "__main__":
    sys.exit(main())
