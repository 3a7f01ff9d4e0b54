"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``), turns them
into a fixed list of jobs for one pass (``jobs``; a job is one call into
a public entry point and returns a compact answer), and checks a pass's
answers against the frozen reference and the independent oracles
(``check``).  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import product

import oracle

MIN_JOBS = 100
# census references hold one base-36 digit per tuple for omega and for
# the bit mask of the chosen positions
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class JobError:
    """Stands in for the answer of a job that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"JobError({self.text})"


def _nonzero(p: int, n: int) -> list:
    return [v for v in product(range(p), repeat=n) if any(v)]


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


# -- census -----------------------------------------------------------------

CENSUS_GROUPS = [("x+y+z=0", (1, 1, 1), 3, n) for n in (1, 2, 3, 4)] + \
                [("x+y+2z+2w=0", (1, 1, 2, 2), 3, n) for n in (1, 2)]


@dataclass
class CensusGroup:
    key: str
    coeffs: tuple
    p: int
    n: int
    count: int
    spec: object
    points: object


class Census:
    """Weight facts on every solution over nonzero F_3^n; a job is one
    tuple: the next enumerated solution, ``verify_weight_properties``
    and ``partition_structure``.  The seed permutes each point set."""

    name = "census"

    @staticmethod
    def setup(api, seed: int, ref: dict, workdir) -> list:
        rng = random.Random(seed)
        groups = []
        for label, coeffs, p, n in CENSUS_GROUPS:
            key = f"{label} F_{p}^{n}"
            pts = _nonzero(p, n)
            rng.shuffle(pts)
            points = api.PointSet.make(pts, p, n)
            pts[0] in points  # fills the lazy membership set
            groups.append(CensusGroup(key, coeffs, p, n, ref["census"][key]["count"],
                                      api.SystemSpec.make([coeffs], p), points))
        return groups

    @staticmethod
    def jobs(api, groups: list) -> list:
        out = []
        for g in groups:
            stream: dict = {}
            for j in range(g.count):
                out.append(lambda g=g, stream=stream, j=j: Census.job(api, g, stream, j))
        return out

    @staticmethod
    def job(api, g: CensusGroup, stream: dict, j: int):
        if j == 0:
            stream["gen"] = api.enumerate_solutions(g.spec, g.points)
        sol = next(stream["gen"])
        props = api.verify_weight_properties(sol.entries, g.p, sys_spec=g.spec)
        part = api.partition_structure(sol.entries, g.spec)
        exhausted = j < g.count - 1 or next(stream["gen"], None) is None
        return (g.key, sol.entries, props.omega, props.ok, props.span_dim,
                part.omega, _mask(part.chosen), part.lemma_ok, exhausted)

    @staticmethod
    def check(groups: list, ref: dict, answers: list) -> list:
        expected = {}
        for g in groups:
            entry = ref["census"][g.key]
            tuples = oracle.solutions_nonzero(g.coeffs, g.p, g.n)
            if len(tuples) != entry["count"]:
                return [(None, f"{g.key}: oracle finds {len(tuples)} solutions, "
                               f"reference says {entry['count']}")]
            for t, om, ch in zip(tuples, entry["omega"], entry["chosen"]):
                expected[(g.key, t)] = (DIGITS.index(om), DIGITS.index(ch))
        prime = {g.key: g.p for g in groups}
        bad = []
        seen = set()
        for i, ans in enumerate(answers):
            if isinstance(ans, JobError):
                bad.append((i, repr(ans)))
                continue
            key, entries, omega, ok, span_dim, p_omega, chosen, lemma_ok, exhausted = ans
            want = expected.get((key, entries))
            problems = []
            if want is None:
                problems.append("not a solution over nonzero points")
            elif (omega, chosen) != want:
                problems.append(f"omega/chosen {(omega, chosen)} != reference {want}")
            if (key, entries) in seen:
                problems.append("enumerated twice")
            seen.add((key, entries))
            if not ok or not lemma_ok or p_omega != omega:
                problems.append("weight facts fail")
            if span_dim != oracle.rank(entries, prime[key]):
                problems.append("span dimension differs from the oracle rank")
            if not exhausted:
                problems.append("enumeration yields extra solutions")
            if problems:
                bad.append((i, f"{key} {entries}: " + "; ".join(problems)))
        return bad


# -- extremal ---------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalSpec:
    key: str
    coeffs: tuple
    p: int
    const: tuple | None
    mode: str
    arg: int | None
    n: int
    exclude_zero: bool = False
    greedy_restarts: int | None = None


EXTREMAL_GRID = [
    ExtremalSpec("x+y+z=0 F_3^1 not-all-equal", (1, 1, 1), 3, None, "not-all-equal", None, 1),
    ExtremalSpec("x+y+z=0 F_3^2 not-all-equal", (1, 1, 1), 3, None, "not-all-equal", None, 2),
    ExtremalSpec("x+y+z=0 F_3^2 distinct", (1, 1, 1), 3, None, "distinct", None, 2),
    ExtremalSpec("x+y+z=0 F_3^2* distinct", (1, 1, 1), 3, None, "distinct", None, 2, True),
    ExtremalSpec("x+y+z=0 F_3^2 span-dim 2", (1, 1, 1), 3, None, "span-dim", 2, 2),
    ExtremalSpec("x+y+z=0 F_2^3 not-all-equal", (1, 1, 1), 2, None, "not-all-equal", None, 3),
    ExtremalSpec("x+y+z=0 F_2^3 distinct", (1, 1, 1), 2, None, "distinct", None, 3),
    ExtremalSpec("x+y+2z+2w=0 F_3^1 distinct-count 3", (1, 1, 2, 2), 3, None, "distinct-count", 3, 1),
    ExtremalSpec("x+y+2z+2w=0 F_3^2 span-dim 2", (1, 1, 2, 2), 3, None, "span-dim", 2, 2),
    ExtremalSpec("x+3y+z=0 F_5^1* distinct", (1, 3, 1), 5, None, "distinct", None, 1, True),
    ExtremalSpec("x+y+3z=0 F_5^1 not-all-equal", (1, 1, 3), 5, None, "not-all-equal", None, 1),
    ExtremalSpec("x+y+z=(1,0) F_3^2 not-all-equal", (1, 1, 1), 3, (1, 0), "not-all-equal", None, 2),
    ExtremalSpec("x+y+z=(1) F_5^1 not-all-equal", (1, 1, 1), 5, (1,), "not-all-equal", None, 1),
    ExtremalSpec("x+y+z+w=0 F_2^3 span-dim 3", (1, 1, 1, 1), 2, None, "span-dim", 3, 3),
]
EXTREMAL_ORDERS = 8
EXTREMAL_LARGE = [
    ExtremalSpec("x+y+z=0 F_3^3 not-all-equal", (1, 1, 1), 3, None, "not-all-equal", None, 3),
    ExtremalSpec("x+y+z=(1,0) F_5^2 not-all-equal", (1, 1, 1), 5, (1, 0), "not-all-equal", None, 2),
    ExtremalSpec("x+y+z+w=0 F_2^4* span-dim 3", (1, 1, 1, 1), 2, None, "span-dim", 3, 4, True),
]
# Greedy on F_3^4 runs as GREEDY_JOBS jobs of one seeded restart each.
# The 90th percentile of the job list falls in the middle of this
# cluster; their cost barely depends on the shuffle, whereas the node
# counts of the grid problems under different orders are bimodal, which
# would make p90 jump from seed to seed.
GREEDY = ExtremalSpec("x+y+z=0 F_3^4 not-all-equal greedy", (1, 1, 1), 3, None,
                      "not-all-equal", None, 4, greedy_restarts=1)
GREEDY_JOBS = 20


@dataclass
class ExtremalJob:
    spec: ExtremalSpec
    problem: object
    order: tuple | None = None
    rng_seed: int | None = None


class Extremal:
    """``exhaustive_max`` over a grid of small avoidance problems, each
    under several seeded point orders, plus three larger problems in
    their natural order and seeded greedy restarts on F_3^4."""

    name = "extremal"

    @staticmethod
    def _problem(api, s: ExtremalSpec):
        spec = api.SystemSpec.make([s.coeffs], s.p,
                                   constants=None if s.const is None else [s.const])
        if s.mode == "span-dim":
            flt = api.ClassFilter.span_at_least(s.arg)
        elif s.mode == "distinct-count":
            flt = api.ClassFilter.distinct_at_least(s.arg)
        else:
            flt = api.ClassFilter(s.mode)
        return api.AvoidanceProblem(spec, flt, s.n, exclude_zero=s.exclude_zero)

    @staticmethod
    def setup(api, seed: int, ref: dict, workdir) -> list:
        rng = random.Random(seed)
        out = []
        for s in EXTREMAL_GRID:
            problem = Extremal._problem(api, s)
            for _ in range(EXTREMAL_ORDERS):
                order = list(problem.point_order())
                rng.shuffle(order)
                out.append(ExtremalJob(s, problem, tuple(order)))
        for s in EXTREMAL_LARGE:
            out.append(ExtremalJob(s, Extremal._problem(api, s)))
        greedy = Extremal._problem(api, GREEDY)
        out += [ExtremalJob(GREEDY, greedy, rng_seed=rng.getrandbits(63))
                for _ in range(GREEDY_JOBS)]
        # spread the short jobs over the pass, so that their latencies
        # see the host as the long ones do
        rng.shuffle(out)
        return out

    @staticmethod
    def jobs(api, inputs: list) -> list:
        return [lambda job=job: Extremal.job(api, job) for job in inputs]

    @staticmethod
    def job(api, job: ExtremalJob):
        if job.spec.greedy_restarts is not None:
            res = api.greedy_lower_bound(job.problem, restarts=job.spec.greedy_restarts,
                                         rng=random.Random(job.rng_seed))
        else:
            res = api.exhaustive_max(job.problem, point_order=job.order)
        return (res.best_size, res.witness.points, res.optimal, res.nodes)

    @staticmethod
    def check(inputs: list, ref: dict, answers: list) -> list:
        bad = []
        for i, (job, ans) in enumerate(zip(inputs, answers)):
            if isinstance(ans, JobError):
                bad.append((i, repr(ans)))
                continue
            s = job.spec
            best, witness, optimal, _ = ans
            frozen = ref["extremal"][s.key]
            problems = []
            if s.greedy_restarts is None:
                if best != frozen or not optimal:
                    problems.append(f"maximum {best} (optimal={optimal}) != frozen {frozen}")
            elif not 1 <= best <= frozen or optimal:
                problems.append(f"greedy size {best} outside 1..{frozen} or claimed optimal")
            space = set(_nonzero(s.p, s.n)) if s.exclude_zero else \
                set(product(range(s.p), repeat=s.n))
            if len(set(witness)) != best or not set(witness) <= space:
                problems.append("witness size or points wrong")
            elif not oracle.avoids(s.coeffs, s.const, s.mode, s.arg, witness, s.p, s.n):
                problems.append("witness contains an admitted solution")
            if problems:
                bad.append((i, f"{s.key}: " + "; ".join(problems)))
        return bad


# -- sampling ---------------------------------------------------------------

CONTAINMENT_PARAMS = [(3, 3, 2, 1), (2, 4, 3, 2), (3, 4, 3, 2), (5, 3, 2, 1)]
CONTAINMENT_BLOCKS = 40
BLOCK_TRIALS = 500
# a block fails at 5 standard deviations: at 3 a correct program would
# fail about one block in 370, so a run of 40 blocks would often fail
BLOCK_SIGMAS = 5.0
STEPS_PER_KIND = 40
STEP_D = 2
STEP_ELL = 3
STEP_W = 5


@dataclass
class SamplingInputs:
    spec: object
    points: object
    full: frozenset
    blocks: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    order: list = field(default_factory=list)  # seeded job order


class Sampling:
    """Monte-Carlo ``verify_containment`` in fixed blocks of trials, and
    seeded deletion steps (``sampling_step_distinct`` and
    ``sampling_step_weight``) on x+y+z=0 over nonzero F_3^3."""

    name = "sampling"

    @staticmethod
    def setup(api, seed: int, ref: dict, workdir) -> SamplingInputs:
        rng = random.Random(seed)
        spec = api.SystemSpec.make([(1, 1, 1)], 3)
        pts = _nonzero(3, 3)
        points = api.PointSet.make(pts, 3, 3)
        pts[0] in points
        inp = SamplingInputs(spec, points, frozenset(pts))
        for b in range(CONTAINMENT_BLOCKS):
            inp.blocks.append((CONTAINMENT_PARAMS[b % len(CONTAINMENT_PARAMS)],
                               rng.getrandbits(63)))
        for kind in ("distinct", "weight"):
            inp.steps += [(kind, rng.getrandbits(63)) for _ in range(STEPS_PER_KIND)]
        inp.order = list(range(len(inp.blocks) + len(inp.steps)))
        rng.shuffle(inp.order)
        return inp

    @staticmethod
    def jobs(api, inp: SamplingInputs) -> list:
        out = [lambda b=b: Sampling.block(api, *b) for b in inp.blocks]
        out += [lambda s=s: Sampling.step(api, inp, *s) for s in inp.steps]
        return [out[i] for i in inp.order]

    @staticmethod
    def block(api, params, block_seed):
        c = api.verify_containment(*params, trials=BLOCK_TRIALS, seed=block_seed,
                                   method="monte-carlo")
        return ("block", params, c.exact, c.trials, c.hits, c.frequency)

    @staticmethod
    def step(api, inp: SamplingInputs, kind: str, step_seed: int):
        rng = random.Random(step_seed)
        if kind == "distinct":
            r = api.sampling_step_distinct(inp.spec, inp.points, STEP_ELL, STEP_D, rng)
        else:
            r = api.sampling_step_weight(inp.spec, inp.points, STEP_W, STEP_D, rng)
        return (kind, r.d, r.kept, r.deleted, r.surviving, r.survivors.points, r.removed)

    @staticmethod
    def check(inp: SamplingInputs, ref: dict, answers: list) -> list:
        bad = []
        for i, ans in enumerate(answers):
            if isinstance(ans, JobError):
                bad.append((i, repr(ans)))
                continue
            msg = (Sampling._check_block(ans) if ans[0] == "block"
                   else Sampling._check_step(inp, ans))
            if msg:
                bad.append((i, msg))
        return bad

    @staticmethod
    def _check_block(ans) -> str | None:
        _, params, exact, trials, hits, freq = ans
        want = oracle.containment_exact(*params)
        if exact != want or trials != BLOCK_TRIALS or freq != hits / trials:
            return f"block {params}: exact {exact} != {want} or bad trial counts"
        if not oracle.within_sigmas(hits, trials, want, BLOCK_SIGMAS):
            return f"block {params}: {hits}/{trials} hits off by > {BLOCK_SIGMAS} sigma"
        return None

    @staticmethod
    def _check_step(inp: SamplingInputs, ans) -> str | None:
        kind, d, kept, deleted, surviving, survivors, removed = ans
        inside = sorted(set(survivors) | set(removed))
        if (set(survivors) & set(removed) or kept != len(inside)
                or surviving != len(survivors) or not set(inside) <= inp.full
                or oracle.rank(inside, 3) > d or len(removed) > deleted):
            return f"step-{kind}: inconsistent survivor report"
        distinct, weight5 = oracle.ap3_offending(inside, inp.full)
        left = oracle.ap3_offending(sorted(survivors), inp.full)
        want, rest = (distinct, left[0]) if kind == "distinct" else (weight5, left[1])
        if deleted != want or want == 0 or rest:
            return (f"step-{kind}: {deleted} structures, rescan finds {want}; "
                    f"{rest} left among survivors")
        return None


# -- cli-session ------------------------------------------------------------

GAMMA_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97, 101, 211, 307, 401, 503, 601,
                701, 809, 907, 1009]
SYSTEM_FILES = {
    "ap3": ([(1, 1, 1)], 3, None),
    "k4": ([(1, 1, 2, 2)], 3, None),
    "s531": ([(1, 3, 1)], 5, None),
    "aff": ([(1, 1, 1)], 5, [(1, 0)]),
    "sum5": ([(1, 1, 1)], 5, None),
}


def _antichain_tensor(length: int, k: int) -> dict:
    # index tuples with a fixed coordinate sum form an antichain under
    # the product of increasing orders
    return {idx: 1 for idx in product(range(length), repeat=k)
            if sum(idx) == length - 1}


def _block_tensor(length: int) -> dict:
    # constant on the axis blocks {0,1} and {2,3}: an antichain under
    # the corollary orders of that partition
    return {(i, i, j, j): 1 for i in range(length) for j in range(length)}


TENSOR_FILES = {
    "sum3L3": (2, 3, 3, _antichain_tensor(3, 3)),
    "sum3L4": (3, 4, 3, _antichain_tensor(4, 3)),
    "sum4L3": (2, 3, 4, _antichain_tensor(3, 4)),
    "block4L3": (2, 3, 4, _block_tensor(3)),
}


def cli_script() -> list:
    """The fixed command list; ``{dir}`` stands for the input directory
    and ``{seed}`` for a seed drawn from the workload seed."""
    cmds = [f"gamma --p {p} --m 1 --k 3 --n 4" for p in GAMMA_PRIMES]
    cmds += [f"gamma --p {p} --m 2 --k 7 --n 3" for p in (3, 5, 7, 11)]
    cmds += [f"slicerank diagonal --length {length} --k {k}"
             for length in range(2, 9) for k in (3, 4)]
    cmds += [f"slicerank bound --system {{dir}}/ap3.system --n {n}" for n in range(1, 11)]
    cmds += [f"slicerank rank --tensor {{dir}}/{name}.tensor" for name in
             ("sum3L3", "sum3L4", "sum4L3")]
    cmds += ["slicerank rank --tensor {dir}/block4L3.tensor --partition 0,1;2,3",
             "slicerank identity --system {dir}/ap3.system --n 2 --seed {seed}",
             "slicerank identity --system {dir}/ap3.system --n 1 --seed {seed}",
             "slicerank identity --system {dir}/k4.system --n 1 --seed {seed}"]
    cmds += [f"validate --system {{dir}}/{name}.system" for name in SYSTEM_FILES]
    cmds += ["solve --system {dir}/ap3.system --n 2 --limit 5",
             "solve --system {dir}/ap3.system --n 3 --limit 5 --mode distinct",
             "solve --system {dir}/ap3.system --n 2 --limit 3 --mode span-dim --r 2",
             "solve --system {dir}/k4.system --n 2 --limit 5 --exclude-zero",
             "solve --system {dir}/s531.system --n 2 --limit 5 --mode distinct",
             "verify --theorem tao --n 1 --system {dir}/ap3.system",
             "verify --theorem tao --n 2 --system {dir}/ap3.system"]
    for x, y in product(_nonzero(3, 2), repeat=2):
        z = tuple((-(a + b)) % 3 for a, b in zip(x, y))
        if any(z):
            t = ";".join(",".join(map(str, v)) for v in (x, y, z))
            cmds.append(f"weight --tuple {t} --p 3 --system {{dir}}/ap3.system "
                        "--check-properties --check-partition")
    cmds += ["weight --tuple 1,0,0;0,1,0;0,0,1;2,2,2 --p 3",
             "weight --tuple 1,0;0,1;1,1;2,0 --p 5"]
    return cmds


def stdout_digest(text: str) -> str:
    """sha256 of a command's JSON output without its ``seed`` key."""
    try:
        doc = json.loads(text)
    except ValueError:
        return hashlib.sha256(text.encode()).hexdigest()
    if isinstance(doc, dict):
        doc.pop("seed", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class CliInputs:
    commands: list  # (template, argv)


class CliSession:
    """In-process ``cli.main(argv)`` over a fixed script of short
    commands with ``--no-timestamp``; the seed shuffles the script and
    picks the ``identity`` sampling seeds."""

    name = "cli-session"

    @staticmethod
    def setup(api, seed: int, ref: dict, workdir) -> CliInputs:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, (coeffs, p, const) in SYSTEM_FILES.items():
            api.write_system_file(workdir / f"{name}.system",
                                  api.SystemSpec.make(coeffs, p, constants=const))
        for name, (p, length, k, entries) in TENSOR_FILES.items():
            api.write_tensor_file(workdir / f"{name}.tensor",
                                  api.Tensor.from_entries(p, length, k, entries))
        rng = random.Random(seed)
        templates = cli_script()
        rng.shuffle(templates)
        commands = []
        for tpl in templates:
            text = tpl.replace("{seed}", str(rng.getrandbits(31)))
            argv = [a.replace("{dir}", str(workdir)) for a in text.split()]
            commands.append((tpl, argv + ["--no-timestamp"]))
        return CliInputs(commands)

    @staticmethod
    def jobs(api, inp: CliInputs) -> list:
        return [lambda argv=argv: CliSession.job(api, argv) for _, argv in inp.commands]

    @staticmethod
    def job(api, argv: list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
        return (code, out.getvalue(), err.getvalue())

    @staticmethod
    def check(inp: CliInputs, ref: dict, answers: list) -> list:
        bad = []
        for i, ((tpl, _), ans) in enumerate(zip(inp.commands, answers)):
            if isinstance(ans, JobError):
                bad.append((i, f"{tpl}: {ans!r}"))
                continue
            code, out, err = ans
            want = ref["cli"].get(tpl)
            got = {"exit": code, "sha256": stdout_digest(out)}
            if want != got:
                bad.append((i, f"{tpl}: {got} != reference {want} {err.strip()}"))
        return bad


WORKLOADS = {w.name: w for w in (Census, Extremal, Sampling, CliSession)}
