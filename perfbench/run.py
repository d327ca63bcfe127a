#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload paper_light --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark package (perfbench/Cargo.toml)
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build),
then run single-threaded. Before the benchmark's own output, a
`fingerprint` line records the machine and source the numbers came from:
nproc, `rustc -V`, the CPU model and the git commit (or, outside a git
checkout, a hash of the benchmarked sources). The last line of standard
output is the benchmark's JSON result; the exit code is the benchmark's.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The benchmark must answer within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_hash():
    """SHA-256 over the Rust sources and manifests the benchmark builds."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "fixtures"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD, when ROOT is itself the top of a git checkout (not merely
    inside some other repository), with "+dirty" appended when the
    benchmarked sources differ from it; source_sha256 then identifies
    the code that ran."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "none"
    head = command_output(["git", "rev-parse", "HEAD"])
    if head is None:
        return "none"
    changes = command_output(["git", "status", "--porcelain", "--", "crates", "perfbench"])
    return head + "+dirty" if changes else head


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_hash(),
    }


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "bpp-perfbench")
    try:
        bench = subprocess.run(
            [binary] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
