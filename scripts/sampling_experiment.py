"""Repeated subspace-sampling deletion steps with certificate re-scans.

Each run samples a fresh subspace from a seed-derived stream, applies
one deletion step (the distinct flavor deleting one vector per
extendable independent tuple, or the weight flavor deleting one vector
per fixed-weight solution), and independently re-scans the survivors
for leftover offending structures.  The CSV records per-run sizes and
certificate outcomes; any failed certificate fails the script.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from itertools import combinations, product

from fpsystems import (
    PointSet,
    interesting_tuples,
    read_system_file,
    sampling_step_distinct,
    sampling_step_weight,
)
from fpsystems.sampling import _weight_class
from fpsystems.seeds import spawn


@dataclass(frozen=True)
class StepConfig:
    system_path: str
    n: int = 3
    d: int = 2
    kind: str = "distinct"
    w: int | None = None
    ell: int | None = None
    runs: int = 20
    seed: int = 0


def rescan_distinct(sys_spec, points: PointSet, survivors: PointSet,
                    ell: int) -> int:
    index_sets = list(combinations(range(sys_spec.k), sys_spec.m + 1))
    return len(interesting_tuples(sys_spec, points, index_sets, ell,
                                  product(survivors.points, repeat=sys_spec.m + 1)))


def rescan_weight(sys_spec, survivors: PointSet, w: int) -> int:
    return sum(1 for _ in _weight_class(sys_spec, survivors, w))


def run(config: StepConfig, out) -> int:
    sys_spec = read_system_file(config.system_path)
    points = PointSet.full_space(config.n, sys_spec.p, include_zero=False)
    ell = config.ell if config.ell is not None else sys_spec.k
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["run", "kept", "structures", "surviving", "leftover"])
    failures = 0
    for i in range(config.runs):
        rng = spawn(config.seed, "experiment", config.kind, i)
        if config.kind == "distinct":
            report = sampling_step_distinct(sys_spec, points, ell,
                                            config.d, rng)
            leftover = rescan_distinct(sys_spec, points, report.survivors, ell)
        else:
            if config.w is None:
                raise SystemExit("weight steps need --w")
            report = sampling_step_weight(sys_spec, points, config.w,
                                          config.d, rng)
            leftover = rescan_weight(sys_spec, report.survivors, config.w)
        writer.writerow([i, report.kept, report.deleted, report.surviving,
                         leftover])
        if leftover:
            failures += 1
    print(f"{config.runs} runs, {failures} failed certificates",
          file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", required=True)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--kind", default="distinct",
                        choices=("distinct", "weight"))
    parser.add_argument("--w", type=int, help="weight value for --kind weight")
    parser.add_argument("--ell", type=int,
                        help="distinct entry threshold (default k)")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="CSV destination (default stdout)")
    args = parser.parse_args(argv)
    config = StepConfig(args.system, args.n, args.d, args.kind, args.w,
                        args.ell, args.runs, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            return run(config, fh)
    return run(config, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
