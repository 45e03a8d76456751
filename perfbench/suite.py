#!/usr/bin/env python3
"""Run every workload, each in a fresh process, and print one table.

    python3 perfbench/suite.py --seed 0 --seconds 30

Tracing is off. Each workload prints its metrics by name, with unit and
sample count: the per-command rates, MAA, set-up time, peak RSS and
failed operations. A traced run is one ``run.py --trace 1`` per
workload. Exits 1 if any run fails or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit-seq", "fit-metric", "score")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        print(f"== {workload}")
        if done.returncode != 0 or not lines:
            print(done.stderr, end="")
            ok = False
            continue
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"   {line}")
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
