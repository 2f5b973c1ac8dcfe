#!/usr/bin/env python3
"""Build and run the repo benchmark on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hybrid-sat --seed 1 --seconds 10 --trace 0

It builds the `hyqsat` CLI (the daemon under test) and the benchmark
client with dune, then runs the client, which prints a human-readable
report and, as its last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.

Exit codes: 0 every answer correct, 1 a wrong or uncertified answer,
2 a usage, build or set-up error (no JSON line is printed).
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["hybrid-sat", "threshold-certified", "wire-tiny", "maxsat-weighted"]
BUILD = "_build/default/"
CLIENT = "perfbench/hqbench.exe"
DAEMON = "bin/hyqsat_cli.exe"
# what a checkout of the repository must hold for the build to work
NEEDED = ["dune-project", "bin/dune", "lib", "perfbench/dune"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("run.py: not the root of a checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./" + CLIENT, "./" + DAEMON],
            stdout=sys.stderr)
    except OSError as e:
        print("run.py: cannot run dune: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    client = subprocess.Popen([
        BUILD + CLIENT, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--daemon-exe", BUILD + DAEMON,
    ])
    # a stopped run still stops its daemon: the client cleans up on exit
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda s, _frame: client.send_signal(s))
    return client.wait()


if __name__ == "__main__":
    sys.exit(main())
