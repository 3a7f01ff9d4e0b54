"""Per-layer metrics of fpsystems from a traced pass.

``HOOKS`` read counts out of call arguments and results (nodes, trials,
structures, iterations); ``layer_metrics`` turns a tracer's spans and
counters into the per-layer metrics named in BENCHMARK.json.  Every
metric is reported for every workload, as 0 where its layer is idle.
"""

from __future__ import annotations

import sys

from spans import BENCH, LAYERS

ENUM = "linsystem.enumerate_solutions"


def _enumerate(tr, args, kwargs, _):
    # free assignments scanned: |A|^(k - m - pinned), from the inputs
    sys_spec, points = args[0], args[1]
    pinned = kwargs.get("pinned", args[3] if len(args) > 3 else None) or {}
    tr.counters["linsystem.scanned"] += len(points) ** (sys_spec.k - sys_spec.m - len(pinned))


def _interesting(tr, args, kwargs, result):
    tr.counters["linsystem.interesting_calls"] += 1
    tr.counters["linsystem.interesting_hits"] += bool(result)


def _weight(tr, args, kwargs, result):
    tr.tuples.add(tuple(tuple(x) for x in args[0]))


def _admissible(tr, args, kwargs, result):
    tr.counters["weights.admissible"] += len(result)
    tr.counters["weights.subsets"] += 2 ** len(args[0])


def _nodes(tr, args, kwargs, result):
    tr.counters["search.nodes"] += result.nodes


def _trials(tr, args, kwargs, result):
    tr.counters["sampling.trials"] += result.trials


def _step(tr, args, kwargs, result):
    tr.counters["sampling.structures"] += result.deleted


def _gamma(tr, args, kwargs, result):
    tr.counters["slicerank.gamma_iterations"] += result.iterations


def _cli_main(tr, args, kwargs, result):
    # the hook runs inside the job's stdout capture, which holds exactly
    # this call's output
    tr.counters["cli.bytes_out"] += len(sys.stdout.getvalue().encode())


HOOKS = {
    ENUM: _enumerate,
    "linsystem.is_interesting": _interesting,
    "weights.weight": _weight,
    "weights.admissible_sets": _admissible,
    "search.exhaustive_max": _nodes,
    "search.greedy_lower_bound": _nodes,
    "sampling.verify_containment": _trials,
    "sampling.sampling_step_distinct": _step,
    "sampling.sampling_step_weight": _step,
    "slicerank.gamma": _gamma,
    "cli.main": _cli_main,
}

# (name, unit, better); counts marked deterministic must repeat exactly
PER_LAYER = [
    ("fplinalg.self_s", "s", "lower"),
    ("fplinalg.calls", "count", "lower"),
    ("fplinalg.rref_calls", "count", "lower"),
    ("fplinalg.random_subspace_calls", "count", "lower"),
    ("fplinalg.random_subspace_us", "us", "lower"),
    ("linsystem.self_s", "s", "lower"),
    ("linsystem.enumerate_calls", "count", "lower"),
    ("linsystem.solutions", "count", "lower"),
    ("linsystem.us_per_solution", "us", "lower"),
    ("linsystem.first_solution_us", "us", "lower"),
    ("linsystem.interesting_calls", "count", "lower"),
    ("linsystem.interesting_hit_ratio", "ratio", "higher"),
    ("linsystem.yield_ratio", "ratio", "higher"),
    ("weights.self_s", "s", "lower"),
    ("weights.weight_calls", "count", "lower"),
    ("weights.us_per_weight", "us", "lower"),
    ("weights.calls_per_tuple", "ratio", "lower"),
    ("weights.admissible_ratio", "ratio", "higher"),
    ("search.self_s", "s", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.verify_s", "s", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("sampling.trials", "count", "lower"),
    ("sampling.trials_per_s", "1/s", "higher"),
    ("sampling.structures", "count", "lower"),
    ("sampling.step_ms", "ms", "lower"),
    ("slicerank.self_s", "s", "lower"),
    ("slicerank.gamma_calls", "count", "lower"),
    ("slicerank.gamma_iterations", "count", "lower"),
    ("slicerank.gamma_us", "us", "lower"),
    ("slicerank.monomial_s", "s", "lower"),
    ("slicerank.antichain_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _div(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, wall_ns: int, untraced_wall_s: float) -> dict:
    """Every per-layer metric of one traced pass, plus ``counts``: the
    deterministic counts (per span name and per counter) that must
    repeat exactly between passes and runs of one commit."""
    a = tracer.analyse()
    calls, incl, self_ns, under = a["calls"], a["incl_ns"], a["self_ns"], a["under_ns"]
    c = tracer.counters
    s = 1e-9
    layer_calls = {layer: sum(v for k, v in calls.items() if k.startswith(layer + "."))
                   for layer in LAYERS}
    gen_ns = incl[ENUM]
    solutions = c[ENUM + ".yields"]
    enum_calls = c[ENUM + ".calls"]
    weight_calls = calls["weights.weight"]
    steps = calls["sampling.sampling_step_distinct"] + calls["sampling.sampling_step_weight"]
    search_ns = incl["search.exhaustive_max"] + incl["search.greedy_lower_bound"]
    attributed = sum(self_ns[layer] for layer in LAYERS)
    values = {
        "fplinalg.self_s": self_ns["fplinalg"] * s,
        "fplinalg.calls": layer_calls["fplinalg"],
        "fplinalg.rref_calls": calls["fplinalg.rref_with_pivots"],
        "fplinalg.random_subspace_calls": calls["fplinalg.random_subspace"],
        "fplinalg.random_subspace_us": _div(incl["fplinalg.random_subspace"] * 1e-3,
                                            calls["fplinalg.random_subspace"]),
        "linsystem.self_s": self_ns["linsystem"] * s,
        "linsystem.enumerate_calls": enum_calls,
        "linsystem.solutions": solutions,
        "linsystem.us_per_solution": _div(gen_ns * 1e-3, solutions),
        "linsystem.first_solution_us": _div(c[ENUM + ".first_ns"] * 1e-3, enum_calls),
        "linsystem.interesting_calls": c["linsystem.interesting_calls"],
        "linsystem.interesting_hit_ratio": _div(c["linsystem.interesting_hits"],
                                                c["linsystem.interesting_calls"]),
        "linsystem.yield_ratio": _div(solutions, c["linsystem.scanned"]),
        "weights.self_s": self_ns["weights"] * s,
        "weights.weight_calls": weight_calls,
        "weights.us_per_weight": _div(incl["weights.weight"] * 1e-3, weight_calls),
        "weights.calls_per_tuple": _div(weight_calls, len(tracer.tuples)),
        "weights.admissible_ratio": _div(c["weights.admissible"], c["weights.subsets"]),
        "search.self_s": self_ns["search"] * s,
        "search.nodes": c["search.nodes"],
        "search.nodes_per_s": _div(c["search.nodes"], search_ns * s),
        "search.verify_s": under[("search", "linsystem")] * s,
        "sampling.self_s": self_ns["sampling"] * s,
        "sampling.trials": c["sampling.trials"],
        "sampling.trials_per_s": _div(c["sampling.trials"],
                                      incl["sampling.verify_containment"] * s),
        "sampling.structures": c["sampling.structures"],
        "sampling.step_ms": _div((incl["sampling.sampling_step_distinct"]
                                  + incl["sampling.sampling_step_weight"]) * 1e-6, steps),
        "slicerank.self_s": self_ns["slicerank"] * s,
        "slicerank.gamma_calls": calls["slicerank.gamma"],
        "slicerank.gamma_iterations": c["slicerank.gamma_iterations"],
        "slicerank.gamma_us": _div(incl["slicerank.gamma"] * 1e-3, calls["slicerank.gamma"]),
        "slicerank.monomial_s": incl["slicerank.monomial_count"] * s,
        "slicerank.antichain_s": incl["slicerank.antichain_slice_rank"] * s,
        "cli.self_s": self_ns["cli"] * s,
        "cli.calls": calls["cli.main"],
        "cli.bytes_out": c["cli.bytes_out"],
        "trace.overhead_ratio": _div(wall_ns * s, untraced_wall_s),
        "trace.wall_s": wall_ns * s,
        "trace.unattributed_s": (wall_ns - attributed) * s,
        "trace.spans": tracer.span_count(),
    }
    counts = dict(sorted(calls.items()))
    counts.update((k, v) for k, v in sorted(c.items()) if not k.endswith("_ns"))
    counts["weights.distinct_tuples"] = len(tracer.tuples)
    return {"values": values, "counts": counts,
            "bench_self_s": self_ns[BENCH] * s, "attributed_s": attributed * s}
