#!/usr/bin/env python3
"""Print one SHA-256 digest per (connection, suite) report, and one for the
counterexample corpus, so that two checkouts can be compared with ``diff``.

Each digest is taken over the canonical JSON of
``report.to_dict(include_elapsed=False)``: every margin, witness and input
matrix, but not the timing.  The configuration is fixed apart from the
trial count and seed: all five suites over ``standard_battery()``,
with the strictness suite run for means only.

    python scripts/report_digest.py --trials 40 --seed 1 > digest.txt
"""

import argparse
import hashlib
import sys

from meanskit.cli import canonical_json
from meanskit.connections import is_mean
from meanskit.verify import SUITES, TrialConfig, run_counterexamples, standard_battery


def _digest(report) -> str:
    text = canonical_json(report.to_dict(include_elapsed=False))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    cfg = TrialConfig(trials=args.trials, seed=args.seed)
    for name, conn in standard_battery():
        for suite_name, suite in SUITES.items():
            if suite_name == "strictness" and not is_mean(conn, cfg.tol):
                continue
            print(f"{name}/{suite_name} {_digest(suite(conn, cfg))}")
    print(f"counterexamples {_digest(run_counterexamples(cfg.tol))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
