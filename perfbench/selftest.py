#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload of BENCHMARK.json once at
reduced size (--quick, 1 s of measuring), untraced and traced, and asserts
that the last stdout line is the result object, that every output check
passed, and that every end-to-end (untraced) or per-layer (traced) metric
BENCHMARK.json names is printed with its unit and nothing else. Then
checks that the benchmark fails without printing a result in a directory
holding only BENCHMARK.json and the benchmark's files. Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys


def run(cmd, cwd, seed, workload, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for i, workload in enumerate(w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(spec["command"], root, 100 + i, workload, trace)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            try:
                result = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line (exit {p.returncode}): {p.stderr[-500:]}")
                continue
            if p.returncode != 0:
                failures.append(f"{label}: exit {p.returncode}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
                failures.append(f"{label}: checks failed: {p.stderr[-500:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != want:
                missing = {k: u for k, u in want.items() if got.get(k) != u}
                extra = sorted(set(got) - set(want))
                failures.append(f"{label}: missing or wrong unit {missing}, unexpected {extra}")
            bad = [k for k, v in result.get("metrics", {}).items() if not isinstance(v.get("value"), (int, float))]
            if bad:
                failures.append(f"{label}: non-numeric values {bad}")
            print(f"selftest: {label}: {'ok' if len(failures) == before else 'FAILED'}", file=sys.stderr)

    bare = os.path.join(root, ".perfbench_work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("target"))
        p = run(spec["command"], bare, 1, spec["workloads"][0]["name"], 0)
        if p.returncode == 0 or '"metrics"' in p.stdout:
            failures.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"selftest: FAIL {f}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
