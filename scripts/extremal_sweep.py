"""Exhaustive extremal sweep for one system across ambient dimensions.

For each n the script finds the maximum size of a subset of F_p^n
avoiding the chosen solution type and tabulates it against the
certified ceiling k * gamma^n (finite for k >= 2m + 1).  Output is the
CSV table (n, best_size, bound, margin, nodes).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

from fpsystems import (
    AvoidanceProblem,
    ClassFilter,
    exhaustive_max,
    gamma,
    read_system_file,
)


@dataclass(frozen=True)
class SweepConfig:
    system_path: str
    n_max: int = 2
    mode: str = "not-all-equal"
    r: int | None = None
    ell: int | None = None
    exclude_zero: bool = False
    cap_points: int = 81


def make_filter(config: SweepConfig, k: int) -> ClassFilter:
    if config.mode == "span-dim":
        return ClassFilter.span_at_least(config.r)
    if config.mode == "distinct-count":
        return ClassFilter.distinct_at_least(config.ell or k)
    return ClassFilter(config.mode)


def run(config: SweepConfig, out) -> int:
    sys_spec = read_system_file(config.system_path)
    flt = make_filter(config, sys_spec.k)
    res = gamma(sys_spec.p, sys_spec.m, sys_spec.k)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "best_size", "bound", "margin", "nodes"])
    for n in range(1, config.n_max + 1):
        problem = AvoidanceProblem(sys_spec, flt, n,
                                   exclude_zero=config.exclude_zero)
        result = exhaustive_max(problem, cap_points=config.cap_points)
        bound = sys_spec.k * res.gamma ** n if not res.at_boundary else None
        margin = bound - result.best_size if bound is not None else None
        writer.writerow([
            n, result.best_size,
            f"{bound:.6f}" if bound is not None else "",
            f"{margin:.6f}" if margin is not None else "",
            result.nodes,
        ])
        if bound is not None and result.best_size > bound:
            print(f"ceiling violated at n={n}", file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", required=True)
    parser.add_argument("--n-max", type=int, default=2)
    parser.add_argument("--mode", default="not-all-equal",
                        choices=("any", "not-all-equal", "distinct",
                                 "span-dim", "distinct-count"))
    parser.add_argument("--r", type=int)
    parser.add_argument("--ell", type=int)
    parser.add_argument("--exclude-zero", action="store_true")
    parser.add_argument("--cap-points", type=int, default=81)
    parser.add_argument("--out", help="CSV destination (default stdout)")
    args = parser.parse_args(argv)
    config = SweepConfig(args.system, args.n_max, args.mode, args.r, args.ell,
                         args.exclude_zero, args.cap_points)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            return run(config, fh)
    return run(config, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
