"""Set-up cost of one CLI invocation: import ``circlebops.cli``, parse the
weight specs and trajectories named on the command line, and print the
system-wide monotonic clock at that point, so the parent can subtract the
reading it took before starting this interpreter.

    python3 perfbench/setup_probe.py --weight W.json [--trajectory T.json]
"""

import argparse
import time

from circlebops import cli

parser = argparse.ArgumentParser()
parser.add_argument("--weight", action="append", default=[])
parser.add_argument("--trajectory", action="append", default=[])
args = parser.parse_args()
weight = None
for path in args.weight:
    parsed, _ = cli.parse_weight_spec(path)
    weight = weight or parsed
for path in args.trajectory:
    cli.parse_trajectory(path, weight)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
