#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <corpus|serve> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the shipped binaries
(`rsls-run`, `rsls-serve`) and the harness in `perfbench/` into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the harness with
its scratch files under `.bench_work/`, and relays its output. The last
line of standard output is the result object. Every process the harness
starts runs in this script's process group and is stopped before exit.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The harness must finish well inside the three minutes a run may take.
HARNESS_TIMEOUT_S = 170
REQUIRED = [
    "Cargo.toml",
    "Cargo.lock",
    "crates/experiments/Cargo.toml",
    "crates/serve/Cargo.toml",
    "perfbench/Cargo.toml",
    "perfbench/digests.txt",
    "BENCHMARK.json",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def source_id():
    """The commit under test, or a digest of the sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, names in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "source-sha256:" + digest.hexdigest()


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "rsls-run", "--bin", "rsls-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        return fail("--seed must be >= 0 and --seconds in [1, 600]")

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        return fail("not a full checkout, missing: " + ", ".join(missing))

    env = dict(os.environ)
    # The experiment set and its committed digests are at the quick scale.
    env.pop("RSLS_SCALE", None)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not build(env):
        return fail("build failed")

    bin_dir = os.path.join(target, "release")
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", os.path.join(ROOT, ".bench_work", "run"),
        "--bin-dir", bin_dir,
        "--digests", os.path.join(ROOT, "perfbench", "digests.txt"),
        "--commit", source_id(),
    ]
    harness = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = harness.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # Stop anything the harness started and left behind.
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness.wait()
    if out is None:
        return fail(f"harness did not finish in {HARNESS_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        return fail("harness printed no result")
    declared = declared_metrics(args.trace)
    unknown = set(result["metrics"]) - declared
    # Every workload reports every declared metric of its kind.
    missing = declared - set(result["metrics"])
    if harness.returncode != 0 or unknown or missing:
        sys.stdout.write(out)
        return fail(
            f"harness exited {harness.returncode}; undeclared metrics {sorted(unknown)}, "
            f"missing metrics {sorted(missing)}"
        )
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
