#!/usr/bin/env python3
"""Build DeepT-rs and its standing benchmark from source, then run one workload.

    python3 standing_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 standing_bench/run.py --self-test

Run from anywhere inside a full checkout. Builds go to $CARGO_TARGET_DIR
(default: .bench_build at the repository root); a relative value is taken
relative to the repository root. DEEPT_* variables are removed, so the
program runs in its default configuration. The last line on stdout is the
benchmark's JSON result; build output goes to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    for need in ("Cargo.toml", "Cargo.lock", "crates", "third_party", "artifacts/models"):
        if not (ROOT / need).exists():
            print(f"run.py: {ROOT / need} is missing; run inside a full checkout", file=sys.stderr)
            return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEEPT_")}
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "deept"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 3
    release = target / "release"
    cmd = [str(release / "deept-standing-bench"), "--root", str(ROOT),
           "--deept-bin", str(release / "deept"), *sys.argv[1:]]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
