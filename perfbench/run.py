#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload serve-udp --seed 1 --seconds 30 --trace 0

Workloads: serve-udp, serve-tcp, ingest-analyze; `--workload all` runs the
three in turn, each ending in its own result line. The build goes to
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). The last
line of standard output is the JSON result; earlier lines starting with `#`
describe the host and the samples behind each figure.
"""

import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-udp", "serve-tcp", "ingest-analyze"]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=60)
    print(f"# host: nproc={os.cpu_count()} {rustc.stdout.strip()} profile=release "
          f"machine={platform.machine()}", flush=True)
    runner = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        at = args.index("--workload") + 1
        runs = [args[:at] + [name] + args[at + 1:] for name in WORKLOADS]
    else:
        runs = [args]
    for run_args in runs:
        run = subprocess.run([runner, *run_args], cwd=ROOT, env=env,
                             stdin=subprocess.DEVNULL, timeout=175)
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
