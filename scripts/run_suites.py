#!/usr/bin/env python3
"""Run every verification suite over the full builtin battery and print a
result table, followed by the singular-matrix counterexample corpus.

Non-means are expected to fail betweenness (that failure is what makes
them non-means) and are skipped by the strictness suite; the summary
treats those expectations as satisfied.  Exit code 0 when everything
behaves as the theory predicts, 1 otherwise.
"""

import argparse
import sys
import time

from meanskit.connections import is_mean
from meanskit.linalg import Tolerances
from meanskit.verify import (
    SUITES,
    TrialConfig,
    run_counterexamples,
    standard_battery,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--dims", default="1,2,3,5,8")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    cfg = TrialConfig(
        dims=tuple(int(d) for d in args.dims.split(",")),
        trials=args.trials,
        seed=args.seed,
        tol=Tolerances(),
    )

    suite_names = tuple(SUITES)
    header = f"{'connection':<18}" + "".join(f"{s:>14}" for s in suite_names)
    print(header)
    print("-" * len(header))

    surprises = 0
    start = time.perf_counter()
    for name, conn in standard_battery():
        mean = is_mean(conn, cfg.tol)
        cells = []
        for suite_name in suite_names:
            if suite_name == "strictness" and not mean:
                cells.append(f"{'n/a':>14}")
                continue
            report = SUITES[suite_name](conn, cfg)
            expected_violations = suite_name == "betweenness" and not mean
            as_expected = (report.violations > 0) == expected_violations
            if not as_expected:
                surprises += 1
            tag = f"v={report.violations}" + ("" if as_expected else " !!")
            cells.append(f"{tag:>14}")
        print(f"{name:<18}" + "".join(cells))

    corpus = run_counterexamples(cfg.tol)
    reproduced = corpus.violations == 0
    if not reproduced:
        surprises += 1
    print("-" * len(header))
    print(
        f"counterexample corpus: {corpus.trials} cases, "
        f"{'all reproduce' if reproduced else 'FAILED to reproduce'}"
    )
    print(f"total elapsed: {time.perf_counter() - start:.1f}s, surprises: {surprises}")
    return 0 if surprises == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
