#!/usr/bin/env python3
"""The repository benchmark: CPU time of the `se` runs users make,
scaled to a reference host speed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `se` and the traced helper with cargo,
sets up the workload's inputs from --seed, then repeats the workload's op
(one `se` child per model or load point, one at a time, with
SE_PARALLELISM = host cores) until --seconds have passed, checking every
child's output. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of an in-process traced run with --trace 1.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

# Pair counts `se trace info` must list (conv-like layers, the --fast protocol).
PAIRS = {"ResNet164": 166, "VGG11": 8, "MobileNetV2": 52, "EfficientNet-B0": 65}
# Model lists of the three workloads. perfbench/traced/src/main.rs holds
# the same BUILD_MODELS and CLUSTER_MODELS (as GEN_MODELS and SERVE_MODELS).
BUILD_MODELS = ["ResNet164", "VGG11"]
FIG10_MODELS = ["ResNet164", "VGG11", "MobileNetV2", "EfficientNet-B0"]
CLUSTER_MODELS = ["ResNet164", "MobileNetV2"]
LANES = ["DianNao", "SCNN", "Cambricon-X", "Bit-pragmatic", "SmartExchange"]
# The cluster scenario; perfbench/traced/src/main.rs holds the same values
# but for the request count. The top tier holds every single-model
# footprint (no streamed admissions) but not both dense models, so dense
# lanes demote and promote while SmartExchange stays resident.
CLUSTER = {
    "requests": 100_000,
    "light_rate": 1000,
    "instances": 4,
    "max_batch": 8,
    "deadline_us": 2000,
    "kill_us": 100_000,
    "restart_us": 200_000,
    "tiers": "buf:3.5mb:16,dram:8mb:4,ssd:1gb:1",
}
SETUP_REPEATS = 3
WORK = ".perfbench_work"
# perfbench-calibrate's output, and its CPU seconds on the reference host
# (a 2-vCPU Intel Xeon VM at 2.1 GHz). Every CPU time the untraced run
# reports is scaled by CALIBRATE_REF_S / (the run's median calibration
# CPU seconds): CPU seconds at the reference host's speed.
CALIBRATE_OUTPUT = "3.416236e10 b0976dcb77f608ed"
CALIBRATE_REF_S = 0.148

_running = None  # the child being waited for, stopped on any exit path


# One finished child: argv, wall seconds, CPU seconds (user + system, all
# threads), exit code, stdout, peak RSS (MB).
Child = collections.namedtuple("Child", "argv wall_s cpu_s code stdout rss_mb")


def run_child(argv, env, log):
    """Runs argv to completion; stderr goes to `log`. Times spawn to reap,
    and takes the child's CPU time and peak RSS from wait4."""
    global _running
    with open(log, "ab") as err:
        start = time.perf_counter()
        _running = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        out = _running.stdout.read()
        _, status, usage = os.wait4(_running.pid, 0)
        wall = time.perf_counter() - start
        _running.returncode = os.waitstatus_to_exitcode(status)
        _running.stdout.close()
        child = Child(argv, wall, usage.ru_utime + usage.ru_stime, _running.returncode,
                      out.decode(), usage.ru_maxrss / 1024)
        _running = None
    return child


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(root, target):
    """Builds `se`, perfbench-traced and perfbench-calibrate; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "se-bench", "--bin", "se"],
                  ["--manifest-path", os.path.join("perfbench", "traced", "Cargo.toml")]):
        code = subprocess.call(["cargo", "build", "--release", "--offline", "-q"] + extra,
                               cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            fail(f"cargo build {' '.join(extra)} failed ({code})")
    return [os.path.join(target, "release", b) for b in ("se", "perfbench-traced", "perfbench-calibrate")]


class Bench:
    def __init__(self, args, root, se_bin, traced_bin, calibrate_bin):
        self.args, self.root, self.se_bin, self.traced_bin = args, root, se_bin, traced_bin
        self.calibrate_bin, self.calibrations = calibrate_bin, []
        self.seed = str(args.seed)
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, SE_PARALLELISM=str(self.nproc))
        self.env.pop("SE_LOG", None)
        self.work = os.path.join(root, WORK, f"{args.workload}-{os.getpid()}")
        self.log = os.path.join(self.work, "stderr.log")
        self.requests = 20_000 if args.quick else CLUSTER["requests"]
        self.problems = []

    def se(self, *argv):
        return [self.se_bin] + list(argv) + ["--fast", "--seed", self.seed]

    def fresh_dir(self, name):
        d = os.path.join(self.work, name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok

    def calibrate(self):
        """Runs the host-speed reference kernel once, keeping its CPU time."""
        c = run_child([self.calibrate_bin], self.env, self.log)
        if c.code != 0 or c.stdout.strip() != CALIBRATE_OUTPUT:
            self.fail(f"perfbench-calibrate exited {c.code} with {c.stdout.strip()!r}")
        self.calibrations.append(c.cpu_s)

    # -- set-up ------------------------------------------------------------

    def setup(self, repeats):
        """Builds the workload's inputs `repeats` times into fresh
        directories; keeps the set-up children and returns the last directory."""
        models = {"trace-build": ["MobileNetV2"], "fig10-replay": FIG10_MODELS,
                  "cluster": CLUSTER_MODELS}[self.args.workload]
        builds = []
        for i in range(repeats):
            d = self.fresh_dir(f"setup{i}")
            self.calibrate()
            builds.append(run_child(self.se("trace", "build", "--models", ",".join(models), "--traces-dir", d),
                                    self.env, self.log))
            if builds[-1].code != 0:
                self.fail(f"set-up trace build exited {builds[-1].code}")
        self.info_ok(d, models, "set-up")
        self.setup_children = builds
        return d

    def info_ok(self, d, models, what):
        c = run_child([self.se_bin, "trace", "info", "--traces-dir", d], self.env, self.log)
        listed = {}
        for line in c.stdout.splitlines():
            f = line.split()
            if len(f) >= 3 and f[0] in PAIRS and f[2].isdigit():
                listed[f[0]] = int(f[2])
        return self.check(c.code == 0 and listed == {m: PAIRS[m] for m in models},
                          f"{what}: se trace info lists {listed}, expected {models}")

    # -- ops -----------------------------------------------------------------

    def op_children(self, data_dir):
        """The argv of each child of one op, and the op's work items."""
        w = self.args.workload
        if w == "trace-build":
            out = os.path.join(self.work, "op")
            return [self.se("trace", "build", "--models", m, "--traces-dir", out)
                    for m in BUILD_MODELS], sum(PAIRS[m] for m in BUILD_MODELS)
        if w == "fig10-replay":
            return [self.se("fig10", "--models", m, "--traces-dir", data_dir) for m in FIG10_MODELS], \
                5 * sum(PAIRS[m] for m in FIG10_MODELS)
        base = self.se("cluster", "--traces-dir", data_dir, "--models", ",".join(CLUSTER_MODELS),
                       "--instances", str(CLUSTER["instances"]), "--router", "jsq",
                       "--max-batch", str(CLUSTER["max_batch"]), "--tiers", CLUSTER["tiers"],
                       "--deadline-us", str(CLUSTER["deadline_us"]),
                       "--kill", f"1@{CLUSTER['kill_us']}", "--restart", f"1@{CLUSTER['restart_us']}",
                       "--requests", str(self.requests))
        return [base + ["--rate", str(CLUSTER["light_rate"])], base], 2 * 5 * self.requests

    def run_op(self, data_dir):
        """Runs one op; returns its children and whether every output check passed."""
        if self.args.workload == "trace-build":
            self.fresh_dir("op")
        argvs, _ = self.op_children(data_dir)
        children = [run_child(a, self.env, self.log) for a in argvs]
        before = len(self.problems)
        for c in children:
            self.check(c.code == 0, f"{' '.join(c.argv[1:3])} exited {c.code}")
        w = self.args.workload
        if w == "trace-build":
            self.info_ok(os.path.join(self.work, "op"), BUILD_MODELS, "trace-build op")
        elif w == "fig10-replay":
            for m, c in zip(FIG10_MODELS, children):
                self.fig10_ok(m, c.stdout)
        else:
            for c in children:
                self.cluster_ok(c.stdout)
        return children, len(self.problems) == before

    def fig10_ok(self, model, out):
        lines = out.splitlines()
        head = next((i for i, l in enumerate(lines) if l.split()[:1] == ["model"]), None)
        if not self.check(head is not None, f"fig10 {model}: no table"):
            return
        rows = []
        for l in lines[head + 2:]:
            if not l.strip():
                break
            rows.append(l.split())
        models = [r[0] for r in rows if r[0] != "Geomean"]
        if not self.check(models == [model], f"fig10 {model}: table rows {models}"):
            return
        vals = [float(v) for v in rows[0][1:] if v != "n/a"]
        se = float(rows[0][-1])
        self.check(len(rows[0]) == 6 and all(v < se for v in vals[:-1]),
                   f"fig10 {model}: SmartExchange not highest in {rows[0]}")

    def cluster_ok(self, out):
        pat = re.compile(r"^\s*(\S+): accounting: (\d+) completed \+ (\d+) rejected \+ (\d+) lost"
                         r" == (\d+) submitted \((\w+)\)$")
        seen = {}
        for line in out.splitlines():
            m = pat.match(line)
            if m:
                lane, done, rej, lost, sub, verdict = m.groups()
                seen[lane] = (int(done) + int(rej) + int(lost) == int(sub) == self.requests
                              and verdict == "ok")
        self.check(sorted(seen) == sorted(LANES) and all(seen.values()),
                   f"cluster: accounting lines {seen}")

    # -- digests ---------------------------------------------------------------

    def digest(self, children):
        h = hashlib.sha256()
        for c in children:
            h.update(" ".join(c.argv[1:]).replace(self.work, "<work>").encode() + b"\n")
            h.update(c.stdout.replace(self.work, "<work>").encode())
        return h.hexdigest()

    # -- runs ----------------------------------------------------------------

    def measure(self):
        data_dir = self.setup(1 if self.args.quick else SETUP_REPEATS)
        _, items = self.op_children(data_dir)
        ops, digests, failed = [], [], 0
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < self.args.seconds:
            self.calibrate()
            children, ok = self.run_op(data_dir)
            digests.append(self.digest(children))
            ok = self.check(digests[-1] == digests[0], "child stdout differs between ops") and ok
            failed += not ok
            ops.append(children)
        med = statistics.median
        scale = CALIBRATE_REF_S / med(self.calibrations)
        metrics = {
            "setup_s": (scale * med(c.cpu_s for c in self.setup_children), "s"),
            "peak_rss_mb": (max(c.rss_mb for op in ops for c in op), "MB"),
            "items_per_cpu_s": (med(items / sum(c.cpu_s for c in op) for op in ops) / scale, "1/s"),
            "part_a_cpu_s": (scale * med(op[0].cpu_s for op in ops), "s"),
            "part_b_cpu_s": (scale * med(op[1].cpu_s for op in ops), "s"),
        }
        return ops, digests[0], len(ops), failed, metrics

    def traced(self):
        """Sets up once, runs one op of children, then the in-process
        traced op over the same inputs, cross-checked against the children."""
        data_dir = self.setup(1)
        children, children_ok = self.run_op(data_dir)
        w = self.args.workload
        argv = [self.traced_bin, "--seed", self.seed, "--work", self.fresh_dir("traced"), "--built", data_dir,
                "--spans-out", os.path.join(self.root, WORK, f"spans-{w}.jsonl"),
                "--requests", str(self.requests)]
        if w == "trace-build":
            # The op's builds, plus MobileNetV2 from the warm-up set-up.
            argv += ["--built", os.path.join(self.work, "op"),
                     "--replay", ",".join(BUILD_MODELS + ["MobileNetV2"])]
        elif w == "fig10-replay":
            argv += ["--replay", ",".join(FIG10_MODELS), "--fig10-out", self.save("fig10.out", children)]
        else:
            argv += ["--replay", ",".join(CLUSTER_MODELS)]
            for i, c in enumerate(children):
                argv += ["--cluster-out", self.save(f"cluster{i}.out", [c])]
        t = run_child(argv, self.env, self.log)
        if t.code != 0:
            self.fail(f"traced run exited {t.code}")
        result = json.loads(t.stdout.strip().splitlines()[-1])
        traced_ok = all([self.check(c["ok"], f"traced: {c['name']}") for c in result["checks"]])
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        return [children], self.digest(children), 2, (not children_ok) + (not traced_ok), metrics

    def save(self, name, children):
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            f.write("".join(c.stdout for c in children))
        return path

    def fail(self, msg):
        with open(self.log, errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        fail(msg)

    def manifest(self, ops, digest):
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, capture_output=True, text=True)
        return {
            "workload": self.args.workload, "seed": self.args.seed, "nproc": self.nproc,
            "SE_PARALLELISM": self.env["SE_PARALLELISM"],
            "git_commit": git.stdout.strip() if git.returncode == 0 else "unavailable (not a git checkout)",
            "profile": "release", "rustc": rustc,
            "op_argv": [[os.path.basename(c.argv[0])] + [a.replace(self.work, "<work>") for a in c.argv[1:]]
                        for c in ops[0]],
            "stdout_digest": digest,
            "setup_walls_s": [round(c.wall_s, 6) for c in self.setup_children],
            "setup_cpu_s": [round(c.cpu_s, 6) for c in self.setup_children],
            "op_child_walls_s": [[round(c.wall_s, 6) for c in op] for op in ops],
            "op_child_cpu_s": [[round(c.cpu_s, 6) for c in op] for op in ops],
            "calibrate_cpu_s": [round(s, 6) for s in self.calibrations],
        }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["trace-build", "fig10-replay", "cluster"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--quick", action="store_true", help="reduced size, for perfbench/selftest.py")
    args = p.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        fail("run from the repository root (no Cargo.toml and crates/ here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bench = Bench(args, root, *cargo_build(root, target))
    os.makedirs(bench.work)
    try:
        ops, digest, attempted, failed, metrics = bench.traced() if args.trace else bench.measure()
        print("manifest: " + json.dumps(bench.manifest(ops, digest)))
    finally:
        if _running is not None and _running.poll() is None:
            _running.kill()
            _running.wait()
        shutil.rmtree(bench.work, ignore_errors=True)
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
