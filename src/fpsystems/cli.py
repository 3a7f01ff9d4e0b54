"""Command line front end with reproducible, seed-controlled runs.

Every subcommand prints one report, JSON by default, built only from the
arguments and the resolved seed, so identical invocations give
byte-identical output once timestamps are stripped (--no-timestamp).
Exit codes: 0 on success, 1 when a requested check or hypothesis fails,
2 on usage or input errors.

Each leaf subcommand has one handler that returns (result, exit code,
seed), the seed None when the command draws no randomness; ``main``
alone owns timing, the report envelope, writing it to stdout and the
exit code.  The result stays as objects until ``_write_json``, the one
conversion, writes it as JSON text; ``main`` holds that text until the
whole report is converted, and text and CSV flatten the JSON document
it parses back.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string

from .errors import CapExceededError, DegenerateSystemError, _unprintable
from .fplinalg import check_prime, reduce_vectors
from .linsystem import (
    DEFAULT_WORK_CAP,
    ClassFilter,
    PointSet,
    _MODES,
    _check_walk_work,
    count_solutions,
    enumerate_solutions,
    read_system_file,
    validate,
)
from .sampling import (
    sampling_step_distinct,
    sampling_step_weight,
    verify_containment,
)
from .search import (
    DEFAULT_POINT_CAP,
    AvoidanceProblem,
    _STATEMENTS,
    exhaustive_max,
    greedy_lower_bound,
    verify_theorem_bound,
)
from .seeds import spawn
from .slicerank import (
    DEFAULT_SUPPORT_CAP,
    Ceiling,
    Tensor,
    OrderFamily,
    _check_shape,
    _gamma_power,
    _monomials,
    antichain_slice_rank,
    ceiling,
    corollary_orders,
    gamma,
    read_tensor_file,
    verify_polynomial_identity,
)
from .weights import (
    admissible_sets,
    partition_structure,
    verify_weight_properties,
    weight,
)


@functools.cache
def _rendered_names(cls: type) -> tuple[str, ...]:
    """A dataclass type's field names, then its public property names."""
    return tuple([f.name for f in dataclasses.fields(cls)]
                 + [name for name in dir(cls) if not name.startswith("_")
                    and isinstance(getattr(cls, name, None), property)])


def _printable(value: int) -> int:
    """``value``, unless it has more decimal digits than the interpreter
    prints, which every output format would hit: then a ValueError
    naming both."""
    if _unprintable(value):
        # Decimal takes an int whole, not through a decimal string
        raise ValueError(f"an exact integer of {Decimal(value).adjusted() + 1} "
                         f"digits exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits for printing it")
    return value


# The digit limit is 0 (none) or at least 640, so an int of at most 18
# digits always prints.
_PRINTS = 10**18


def _flatten(obj, prefix: str, out: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(obj, list):
        out.append((prefix, json.dumps(obj, separators=(",", ":"))))
    else:
        out.append((prefix, obj))


# json writes these float values by their JavaScript names
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(obj, write, pad: str = "") -> None:
    """``obj``, a handler's result as it is, through ``write`` as
    json.dumps(tree, indent=2, sort_keys=True) writes its plain tree at
    the nesting of ``pad``: the one conversion and the one layout.
    Exact types come first, then the generic chain: a dataclass by its
    rendered names, a Fraction as numerator, denominator and value, dict,
    list and tuple subclasses, sets sorted, int, float and str
    subclasses by their base value, anything else as its str; dict keys
    go through str.  A dict key is one write, its value then written in
    turn; a list item is one write of its whole text, so a long listing
    is never held as one string."""
    t = type(obj)
    members = items = None
    if t is int:
        write(str(obj if -_PRINTS < obj < _PRINTS else _printable(obj)))
    elif t is str:
        write(_json_string(obj))
    elif t is float:
        text = float.__repr__(obj)
        write(_FLOAT_NAMES.get(text, text))
    elif t is bool or obj is None:
        write("null" if obj is None else "true" if obj else "false")
    elif t is list or t is tuple:
        items = obj
    elif t is dict:
        members = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        members = {name: getattr(obj, name) for name in _rendered_names(t)}
    elif isinstance(obj, Fraction):
        members = {"numerator": obj.numerator,
                   "denominator": obj.denominator, "value": float(obj)}
    elif isinstance(obj, dict):
        members = obj
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, (frozenset, set)):
        items = sorted(obj)
    elif isinstance(obj, int):
        write(int.__repr__(_printable(obj)))
    elif isinstance(obj, float):
        _write_json(float.__float__(obj), write)
    else:
        write(_json_string(obj if isinstance(obj, str) else str(obj)))
    inner = pad + "  "
    if members is not None:
        # equal key texts keep the last value, as a dict built on them does
        members = {str(k): v for k, v in members.items()}
        lead = "{\n" + inner
        for key in sorted(members):
            write(lead + _json_string(key) + ": ")
            _write_json(members[key], write, inner)
            lead = ",\n" + inner
        write("\n" + pad + "}" if members else "{}")
    elif items is not None:
        lead = "[\n" + inner
        for item in items:
            write(lead + (str(item) if type(item) is int
                          and -_PRINTS < item < _PRINTS
                          else _json_text(item, inner)))
            lead = ",\n" + inner
        write("\n" + pad + "]" if items else "[]")


def _json_text(obj, pad: str = "") -> str:
    """``obj`` as ``_write_json`` writes it, joined into one string."""
    parts: list = []
    _write_json(obj, parts.append, pad)
    return "".join(parts)


def _render(envelope: dict, fmt: str) -> str:
    rows: list = []
    _flatten(envelope, "", rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in rows:
            writer.writerow([key, value])
        return buf.getvalue()
    return "".join(f"{key} = {value}\n" for key, value in rows)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"SEED environment variable is not an integer: {env!r}") from exc
    return 0


def _load_points(args, p) -> PointSet:
    if args.points:
        points = PointSet.from_file(args.points)
        if points.p != int(p):
            raise ValueError(
                f"point file prime {points.p} differs from system prime {int(p)}")
        return points
    if args.n is not None:
        return PointSet.full_space(args.n, p,
                                   include_zero=not args.exclude_zero)
    raise ValueError("provide --points FILE or --n N")


def _make_filter(args, k: int) -> ClassFilter:
    if args.r is not None and args.mode != "span-dim":
        raise ValueError("--r applies only to --mode span-dim")
    if args.ell is not None and args.mode != "distinct-count":
        raise ValueError("--ell applies only to --mode distinct-count")
    if args.mode == "span-dim" and args.r is None:
        raise ValueError("--mode span-dim needs --r")
    return ClassFilter(args.mode, r=args.r,
                       ell=k if args.ell is None else args.ell)


def _parse_blocks(text: str, what: str) -> tuple[tuple[int, ...], ...]:
    """Integer blocks like '1,0;2,1' (';' between blocks, ',' or spaces
    inside one); ``what`` names the specification in the error."""
    blocks = tuple(tuple(int(tok) for tok in chunk.replace(",", " ").split())
                   for chunk in text.split(";") if chunk.strip())
    if not blocks:
        raise ValueError(f"empty {what} specification")
    return blocks


def _cmd_gamma(args) -> tuple:
    res = gamma(args.p, args.m, args.k, tol=args.tol)
    payload = {"p": args.p, "m": args.m, "k": args.k, "gamma": res}
    if args.n is not None:
        ceil = Ceiling(res, _gamma_power(res.gamma, args.n))
        payload["n"] = args.n
        payload["power"] = ceil.bound
        payload["set_size_bound"] = _gamma_power(res.gamma, args.n, args.k)
        if not res.at_boundary:
            payload["monomials"] = _monomials(ceil, args.p, args.m, args.k, args.n)
    return payload, 0, None


def _cmd_validate(args) -> tuple:
    sys_spec = read_system_file(args.system)
    report = validate(sys_spec)
    payload = {
        "p": sys_spec.p,
        "m": sys_spec.m,
        "k": sys_spec.k,
        "coeffs": sys_spec.coeffs,
        "homogeneous": sys_spec.homogeneous,
        "report": report,
    }
    return payload, 0 if report.ok else 1, None


def _cmd_solve(args) -> tuple:
    if args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    sys_spec = read_system_file(args.system)
    points = _load_points(args, sys_spec.p)
    flt = _make_filter(args, sys_spec.k)
    _check_walk_work(sys_spec, points, DEFAULT_WORK_CAP)
    # no listing is longer than sys.maxsize, the most islice takes
    limit = 0 if args.count_only else min(args.limit, sys.maxsize)
    listed = [{"entries": sol.entries, "distinct_count": sol.distinct_count,
               "span_dim": sol.span_dim}
              for sol in islice(enumerate_solutions(sys_spec, points, flt), limit)]
    # a listing that ends before the limit holds every solution; one
    # that reaches it may hold them all too (exactly --limit of them),
    # but only a second walk, counting with no tuple built, can tell
    count = (len(listed) if len(listed) < limit
             else count_solutions(sys_spec, points, flt))
    payload = {
        "mode": flt.mode,
        "points": len(points),
        "count": count,
        "listed": len(listed),
        "solutions": listed,
    }
    return payload, 0, None


def _cmd_weight(args) -> tuple:
    p = check_prime(args.p)
    entries = reduce_vectors(_parse_blocks(args.tuple, "tuple"), p)
    report = weight(entries, p)
    rendered = {name: getattr(report, name)
                for name in _rendered_names(type(report))}
    rendered["lines"] = ["".join(str(c) for c in line)
                         for line in report.lines]
    rendered["admissible"] = admissible_sets(entries, p)
    payload: dict = {"p": p, "entries": entries, "weight": rendered}
    failed = False
    sys_spec = read_system_file(args.system) if args.system else None
    if args.check_properties:
        props = verify_weight_properties(entries, p, sys_spec=sys_spec)
        payload["properties"] = props
        failed = failed or not props.ok
    if args.check_partition:
        if sys_spec is None:
            raise ValueError("--check-partition needs --system")
        part = partition_structure(entries, sys_spec)
        payload["partition"] = part
        failed = failed or not part.lemma_ok
    return payload, 1 if failed else 0, None


def _cmd_slicerank_rank(args) -> tuple:
    tensor = read_tensor_file(args.tensor)
    if args.partition:
        orders = corollary_orders(_parse_blocks(args.partition, "partition"),
                                  tensor.length)
    else:
        orders = OrderFamily.all_increasing(tensor.length, tensor.k)
    rank_value = antichain_slice_rank(tensor, orders, cap=args.cap_support)
    payload = {
        "length": tensor.length,
        "k": tensor.k,
        "support_size": len(tensor.support),
        "rank": rank_value,
    }
    return payload, 0, None


def _cmd_slicerank_identity(args) -> tuple:
    sys_spec = read_system_file(args.system)
    points = _load_points(args, sys_spec.p)
    seed = _resolve_seed(args)
    columns = [list(points) for _ in range(sys_spec.k)]
    ok = verify_polynomial_identity(sys_spec, columns, samples=args.samples,
                                    rng=spawn(seed, "identity"))
    payload = {"length": len(points), "k": sys_spec.k,
               "samples": args.samples, "identity_holds": ok}
    return payload, 0 if ok else 1, seed


def _cmd_slicerank_diagonal(args) -> tuple:
    # the shape is checked before the L diagonal entries are built; the
    # diagonal has slice rank L over every field, so it is built over F_2
    _check_shape(args.length, args.k)
    tensor = Tensor.from_entries(2, args.length, args.k,
                                 {(i,) * args.k: 1 for i in range(args.length)})
    orders = corollary_orders((tuple(range(args.k)),), args.length)
    rank_value = antichain_slice_rank(tensor, orders, cap=args.cap_support)
    payload = {"length": args.length, "k": args.k, "rank": rank_value,
               "expected": args.length}
    return payload, 0 if rank_value == args.length else 1, None


def _cmd_slicerank_bound(args) -> tuple:
    sys_spec = read_system_file(args.system)
    ceil = ceiling(sys_spec.p, sys_spec.m, sys_spec.k, args.n, factor=sys_spec.k)
    payload = {"n": args.n, "k": sys_spec.k, "gamma": ceil.gamma, "bound": ceil.bound}
    return payload, 0, None


def _cmd_sample_containment(args) -> tuple:
    seed = _resolve_seed(args)
    check = verify_containment(args.p, args.n, args.d, args.s,
                               trials=args.trials, seed=seed,
                               method=args.method)
    return check, 0 if check.within_3sigma else 1, seed


def _cmd_sample_step(args) -> tuple:
    sys_spec = read_system_file(args.system)
    points = _load_points(args, sys_spec.p)
    seed = _resolve_seed(args)
    if "ell" in args:  # only the step-distinct parser has --ell
        step = sampling_step_distinct
        level = sys_spec.k if args.ell is None else args.ell
    elif args.w is None:
        raise ValueError("step-weight needs --w")
    else:
        step, level = sampling_step_weight, args.w
    report = step(sys_spec, points, level, args.d, spawn(seed, args.action),
                  cap=args.cap_step)
    return report, 0, seed


def _cmd_extremal(args) -> tuple:
    if args.greedy and args.no_symmetry:
        raise ValueError("--no-symmetry applies only to the exhaustive search")
    for flag, value in (("--restarts", args.restarts), ("--seed", args.seed)):
        if value is not None and not args.greedy:
            raise ValueError(f"{flag} applies only to --greedy")
    sys_spec = read_system_file(args.system)
    problem = AvoidanceProblem(sys_spec, _make_filter(args, sys_spec.k),
                               args.n, exclude_zero=args.exclude_zero)
    if not args.greedy:
        symmetry = False if args.no_symmetry else None
        return exhaustive_max(problem, cap_points=args.cap_points,
                              symmetry=symmetry), 0, None
    seed = _resolve_seed(args)
    restarts = args.restarts or 0
    rng = spawn(seed, "greedy") if restarts else None
    return greedy_lower_bound(problem, restarts=restarts, rng=rng), 0, seed


def _cmd_verify(args) -> tuple:
    sys_spec = read_system_file(args.system)
    mode, exclude_zero, _ = _STATEMENTS[args.theorem]
    if mode == "span-dim" and args.r is None:
        raise ValueError("--theorem rank needs --r")
    if mode != "span-dim" and args.r is not None:
        raise ValueError("--r applies only to --theorem rank")
    problem = AvoidanceProblem(
        sys_spec, ClassFilter(mode, r=args.r), args.n,
        exclude_zero=args.exclude_zero or (exclude_zero and not args.include_zero))
    report = verify_theorem_bound(problem, args.theorem,
                                  cap_points=args.cap_points)
    return report, 0 if report.holds is not False else 1, None


def _add_common(parser: argparse.ArgumentParser, func) -> None:
    """The output options of a leaf subcommand and its handler."""
    parser.set_defaults(func=func)
    parser.add_argument("--format", choices=("json", "text", "csv"),
                        default="json", help="output format")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps and elapsed times for "
                             "byte-identical reruns")


def _add_point_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", help="point set file")
    parser.add_argument("--n", type=int, help="use all of F_p^n instead")
    parser.add_argument("--exclude-zero", action="store_true",
                        help="drop the zero vector from --n point sets")


def _add_filter(parser: argparse.ArgumentParser, default_mode: str) -> None:
    parser.add_argument("--mode", default=default_mode, choices=_MODES)
    parser.add_argument("--r", type=int, help="span dimension threshold")
    parser.add_argument("--ell", type=int, help="distinct entry threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsystems",
        description="Exact experiments with linear systems over F_p.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="optimize the set-size base constant")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--tol", type=float, default=1e-12)
    g.add_argument("--n", type=int,
                   help="also report the bound k * gamma^n and the "
                        "monomial count at this n")
    _add_common(g, _cmd_gamma)

    v = sub.add_parser("validate", help="recheck system hypotheses")
    v.add_argument("--system", required=True)
    _add_common(v, _cmd_validate)

    s = sub.add_parser("solve", help="enumerate solutions over a point set")
    s.add_argument("--system", required=True)
    _add_point_source(s)
    _add_filter(s, "any")
    s.add_argument("--limit", type=int, default=100,
                   help="maximum solutions listed in the report")
    s.add_argument("--count-only", action="store_true")
    _add_common(s, _cmd_solve)

    w = sub.add_parser("weight", help="weight and admissible-set structure "
                                      "of a tuple")
    w.add_argument("--tuple", required=True,
                   help="entries like '1,0;2,1;0,1' (';' between vectors)")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--system", help="system file for solution-dependent checks")
    w.add_argument("--check-properties", action="store_true")
    w.add_argument("--check-partition", action="store_true")
    _add_common(w, _cmd_weight)

    sr = sub.add_parser("slicerank", help="slice rank toolbox")
    sr_sub = sr.add_subparsers(dest="action", required=True)
    sr_rank = sr_sub.add_parser("rank", help="exact rank of an antichain "
                                             "tensor file")
    sr_rank.add_argument("--tensor", required=True)
    sr_rank.add_argument("--partition",
                         help="axis blocks like '0,1;2,3' for the "
                              "block orders")
    sr_rank.add_argument("--cap-support", type=int,
                         default=DEFAULT_SUPPORT_CAP)
    _add_common(sr_rank, _cmd_slicerank_rank)
    sr_id = sr_sub.add_parser("identity", help="check the indicator "
                                               "product formula")
    sr_id.add_argument("--system", required=True)
    _add_point_source(sr_id)
    sr_id.add_argument("--samples", type=int, default=1000)
    sr_id.add_argument("--seed", type=int)
    _add_common(sr_id, _cmd_slicerank_identity)
    sr_diag = sr_sub.add_parser("diagonal", help="rank of the diagonal "
                                                 "tensor (sanity demo)")
    sr_diag.add_argument("--length", type=int, required=True)
    sr_diag.add_argument("--k", type=int, required=True)
    sr_diag.add_argument("--cap-support", type=int,
                         default=DEFAULT_SUPPORT_CAP)
    _add_common(sr_diag, _cmd_slicerank_diagonal)
    sr_bound = sr_sub.add_parser("bound", help="certified rank ceiling "
                                               "k * gamma^n")
    sr_bound.add_argument("--system", required=True)
    sr_bound.add_argument("--n", type=int, required=True)
    _add_common(sr_bound, _cmd_slicerank_bound)

    sa = sub.add_parser("sample", help="subspace sampling experiments")
    sa_sub = sa.add_subparsers(dest="action", required=True)
    sa_cont = sa_sub.add_parser("containment", help="subspace containment "
                                                    "probability check")
    sa_cont.add_argument("--p", type=int, required=True)
    sa_cont.add_argument("--n", type=int, required=True)
    sa_cont.add_argument("--d", type=int, required=True)
    sa_cont.add_argument("--s", type=int, required=True)
    sa_cont.add_argument("--trials", type=int, default=10**4)
    sa_cont.add_argument("--method", default="auto",
                         choices=("auto", "exhaustive", "monte-carlo"))
    sa_cont.add_argument("--seed", type=int)
    _add_common(sa_cont, _cmd_sample_containment)
    for kind in ("step-distinct", "step-weight"):
        sa_step = sa_sub.add_parser(kind, help=f"one {kind} deletion step")
        sa_step.add_argument("--system", required=True)
        _add_point_source(sa_step)
        sa_step.add_argument("--d", type=int, required=True,
                             help="sampled subspace dimension")
        if kind == "step-distinct":
            sa_step.add_argument("--ell", type=int,
                                 help="distinct entry threshold (default k)")
        else:
            sa_step.add_argument("--w", type=int, help="weight value")
        sa_step.add_argument("--cap-step", type=int, default=DEFAULT_WORK_CAP)
        sa_step.add_argument("--seed", type=int)
        _add_common(sa_step, _cmd_sample_step)

    e = sub.add_parser("extremal", help="largest avoiding subset search")
    e.add_argument("--system", required=True)
    e.add_argument("--n", type=int, required=True)
    _add_filter(e, "not-all-equal")
    e.add_argument("--exclude-zero", action="store_true")
    e.add_argument("--greedy", action="store_true",
                   help="randomized greedy lower bound instead of "
                        "exhaustive search")
    e.add_argument("--restarts", type=int,
                   help="reshuffled greedy passes after the first "
                        "(--greedy only, default 0)")
    e.add_argument("--seed", type=int, help="--greedy only")
    e.add_argument("--no-symmetry", action="store_true",
                   help="disable the symmetry reduction (the first affine "
                   "frame where the rows sum to zero, else the first "
                   "basis; exhaustive search only)")
    e.add_argument("--cap-points", type=int, default=DEFAULT_POINT_CAP,
                   help="largest point space the exhaustive search "
                        "takes (--greedy ignores it)")
    _add_common(e, _cmd_extremal)

    vf = sub.add_parser("verify", help="check a headline bound at desk scale")
    vf.add_argument("--system", required=True)
    vf.add_argument("--n", type=int, required=True)
    vf.add_argument("--theorem", required=True, choices=tuple(_STATEMENTS))
    vf.add_argument("--r", type=int, help="span threshold for --theorem rank")
    zero = vf.add_mutually_exclusive_group()
    zero.add_argument("--exclude-zero", action="store_true")
    zero.add_argument("--include-zero", action="store_true")
    vf.add_argument("--cap-points", type=int, default=DEFAULT_POINT_CAP,
                    help="largest point space the exhaustive search takes")
    _add_common(vf, _cmd_verify)
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # Parsing keeps its state in the returned Namespace, so one parser,
    # built on the first call, serves every later call in the process.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        result, code, seed = args.func(args)
        envelope = {"command": args.command, "result": result}
        if seed is not None:
            envelope["seed"] = seed
        if not args.no_timestamp:
            envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
            envelope["elapsed_s"] = round(time.perf_counter() - started, 6)
        # nothing is written until the whole report is converted, so a
        # failing command prints nothing
        parts = []
        _write_json(envelope, parts.append)
        parts.append("\n")
        if args.format == "json":
            sys.stdout.writelines(parts)
        else:
            # text and CSV flatten the JSON document, parsed with neither
            # the report's objects nor the pieces kept
            text, parts, result, envelope = "".join(parts), None, None, None
            sys.stdout.write(_render(json.loads(text), args.format))
    except (ValueError, OSError, OverflowError, CapExceededError,
            DegenerateSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
