"""Golden search effort: the solver's counters are a contract.

Every counter of :class:`~repro.idl.solver.SolverStats` is pinned per
workload, together with a structural fingerprint of the match list
(:func:`~repro.service.wire.report_wire_fingerprint`: matches in order,
bindings by wire token). A change to the detection executor that keeps
the match sets but visits the search differently — one tick more, a
backtrack counted in another place, a readiness check skipped that was
not provably redundant — fails here with the workload that moved.

The budget-trip tests drive a real solve into its step cap and into an
expired deadline and pin where the search stood when the limit fired,
so a tick taken outside :meth:`SolverStats.tick` cannot drift unseen.
"""

import hashlib

import pytest

from repro.analysis.info import FunctionAnalyses
from repro.errors import IDLError, SolveTimeout
from repro.frontend import compile_c
from repro.idioms import IdiomDetector
from repro.idioms.oracle import PerIdiomDetector
from repro.idl import IdiomCompiler
from repro.idl.forest import execute_forest
from repro.idl.plan import plan_signature
from repro.idl.solver import SolveLimits, Solver
from repro.passes import optimize
from repro.service.wire import report_wire_fingerprint
from repro.workloads import all_workloads, get_workload

#: ``SolverStats.as_dict()`` field order.
STAT_FIELDS = ("ticks", "backtracks", "plan_fallbacks", "stuck_branches",
               "memo_hits", "memo_misses", "feasibility_skips",
               "subquery_hits")

#: Default (forest) detector, per workload: stats in ``STAT_FIELDS``
#: order, match count, wire fingerprint of the report.
FOREST_GOLDEN = {
    "BT": ((2325, 284, 0, 0, 10, 3, 19, 4), 2,
           "90059e88e0262426c6e4166dd9a49ab93737b956d855b28529fae198b9f94200"),
    "CG": ((12223, 1716, 0, 0, 11, 11, 54, 49), 10,
           "b3d4df4a6c281b95aa65d6e95b05f93836a79fbd4c232773b295cfc2766c7f6a"),
    "DC": ((953, 104, 0, 0, 1, 3, 20, 2), 2,
           "e4e59ef46f3f58e581a9e0af17e13781fe7a55558e3ec2372e63fc11ddf36480"),
    "EP": ((1137, 137, 0, 0, 3, 2, 13, 12), 2,
           "ccd24c6f3abcfc3a3f06e9c411fb0e3c31018f6d18e88d0ee366e3084c03611c"),
    "FT": ((769, 79, 0, 0, 0, 2, 17, 8), 2,
           "e05bf65464892158b0a664a190b6be4f3e1bbe8c6c62ca884ee1f52ddb1ec9e8"),
    "IS": ((1259, 163, 0, 0, 1, 4, 26, 4), 3,
           "2a3428b67d1056a09c992587b7146e42aa9eadfcf2a6d3c7814f283356e05730"),
    "LU": ((2401, 306, 0, 0, 10, 6, 37, 8), 5,
           "0915b20335cda7b778cae313bf12e196aa7db2ee8af178ff03528a52aeba06c5"),
    "MG": ((11476, 1267, 8, 4, 52, 8, 33, 6), 7,
           "7116bab874aa77e87b025a07a8fe59997d22acf9bfe2fe838f82ddacef4c674d"),
    "SP": ((3886, 473, 0, 0, 10, 4, 25, 4), 3,
           "d0b20a57b211af00d3b2bd1628fff7697efac2df3b7b157a21c6de497f374d95"),
    "UA": ((2873, 350, 0, 0, 3, 10, 61, 8), 10,
           "ced8706e317b964a4e258bc11f17f638adf960b950d0c4957dbe24ca5a2e172c"),
    "bfs": ((1412, 213, 0, 0, 1, 3, 15, 2), 1,
            "5f401e7b3583b0396ec592b215e9fe3c210efcfe0a00f388fda388db12dd59f0"),
    "cutcp": ((2290, 320, 0, 0, 10, 2, 13, 4), 1,
              "9305249613e4f9fc5727beada665403a813550c58ec6520be985b2afd10f4f60"),
    "histo": ((366, 43, 0, 0, 0, 2, 10, 0), 1,
              "4ca6b42da860626ba3b90655714e38b5545edf2307305f677d76ad9078c8e78e"),
    "lbm": ((9000, 1026, 6, 4, 40, 5, 10, 4), 2,
            "38387583a578e17fcd8bf1782f5729d3eb69d97356bbfa99e1713c2d8d701f0a"),
    "mri-g": ((637, 70, 0, 0, 0, 2, 17, 2), 1,
              "3f4b493407b7e7034c44ecdc8fc812d265bb051f20c18c24b55b34d3b63cbff2"),
    "mri-q": ((1079, 122, 0, 0, 3, 2, 15, 24), 1,
              "5295d73d9ffde9ceb748882d7925f40032ab9ade3054f2fd499704636a461cd1"),
    "sad": ((1175, 159, 1, 0, 1, 2, 15, 0), 1,
            "90f5d8693df868b2a8e99e6384e2f85af1d5122580d2bea6014a4c46f73e5853"),
    "sgemm": ((1815, 262, 0, 0, 10, 1, 7, 22), 1,
              "726d9c53ac2adf72d2dd9339710d6f8ace40c461e81ac8df3aa8728f7d5d8c96"),
    "spmv": ((1457, 160, 0, 0, 3, 2, 8, 11), 1,
             "0a1e7cf15075e28eaf62f810bba314d86c5ffdf77aafdd6b0731d92053d64ea7"),
    "stencil": ((6893, 777, 4, 2, 24, 4, 10, 2), 1,
                "cbf065446ed39ff3fb0c1dd77f73cf6947fc3e48d059b5d51fa4ebd019f7f0db"),
    "tpacf": ((1831, 192, 0, 0, 3, 3, 21, 2), 3,
              "ad0659783fe39b603ebbab774472e64ba7a554b510206fd1233a9a33ea35709d"),
}

FOREST_TOTALS = {"ticks": 67257, "backtracks": 8223, "plan_fallbacks": 19,
                 "stuck_branches": 10, "memo_hits": 196, "memo_misses": 81,
                 "feasibility_skips": 446, "subquery_hits": 178}

#: Per-idiom plan executor: ticks per workload, and suite totals.
PLAN_TICKS = {
    "BT": 2515, "CG": 14440, "DC": 1230, "EP": 1461, "FT": 1208,
    "IS": 1614, "LU": 2817, "MG": 13539, "SP": 4140, "UA": 3671,
    "bfs": 2050, "cutcp": 2416, "histo": 480, "lbm": 10274, "mri-g": 908,
    "mri-q": 1266, "sad": 1755, "sgemm": 1990, "spmv": 1587,
    "stencil": 7739, "tpacf": 2063,
}
PLAN_TOTALS = {"ticks": 79163, "backtracks": 9411, "plan_fallbacks": 19,
               "stuck_branches": 10, "memo_hits": 947, "memo_misses": 96,
               "feasibility_skips": 0, "subquery_hits": 0}

#: The seed's dynamic ordering searches exactly what the plan executor
#: does; it only never falls back, because it never planned.
DYNAMIC_TOTALS = dict(PLAN_TOTALS, plan_fallbacks=0)


def _detector(ordering: str) -> IdiomDetector:
    detector = IdiomDetector() if ordering == "forest" else \
        PerIdiomDetector(ordering=ordering)
    return detector.warmup()


def _detect_suite(ordering: str) -> dict:
    detector = _detector(ordering)
    out = {}
    for workload in all_workloads():
        module = optimize(compile_c(workload.source, workload.name))
        report = detector.detect(module)
        out[workload.name] = report
    return out


def _totals(reports: dict) -> dict:
    totals = dict.fromkeys(STAT_FIELDS, 0)
    for report in reports.values():
        for key, value in report.stats.as_dict().items():
            totals[key] += value
    return totals


@pytest.fixture(scope="module")
def forest_reports():
    return _detect_suite("forest")


def test_golden_set_covers_the_suite():
    assert sorted(FOREST_GOLDEN) == sorted(w.name for w in all_workloads())
    assert sorted(PLAN_TICKS) == sorted(FOREST_GOLDEN)


@pytest.mark.parametrize("name", sorted(FOREST_GOLDEN))
def test_forest_search_effort_per_workload(forest_reports, name):
    report = forest_reports[name]
    stats, matches, fingerprint = FOREST_GOLDEN[name]
    assert report.stats.as_dict() == dict(zip(STAT_FIELDS, stats))
    assert report.total() == matches
    assert report_wire_fingerprint(report) == fingerprint


def test_forest_search_effort_totals(forest_reports):
    assert _totals(forest_reports) == FOREST_TOTALS
    assert sum(r.total() for r in forest_reports.values()) == 60


@pytest.mark.parametrize("ordering,totals", [("plan", PLAN_TOTALS),
                                             ("dynamic", DYNAMIC_TOTALS)])
def test_per_idiom_orderings_search_effort(ordering, totals):
    """The per-idiom executors pin their totals and enumerate the exact
    match lists (witness order included) of the forest."""
    reports = _detect_suite(ordering)
    assert _totals(reports) == totals
    if ordering == "plan":
        assert {name: r.stats.ticks for name, r in reports.items()} == \
            PLAN_TICKS
    for name, report in reports.items():
        assert report_wire_fingerprint(report) == FOREST_GOLDEN[name][2], \
            name


# ---------------------------------------------------------------------------
# Budget trips through a real solve
# ---------------------------------------------------------------------------

def _cg_run():
    workload = get_workload("CG")
    return optimize(compile_c(workload.source, workload.name)) \
        .get_function("run")


def _trip(ordering: str, limits: SolveLimits):
    """Solve CG's ``run`` until a limit fires; returns the failing solve
    (``"forest"`` or the idiom name), the exception and the solver's
    stats at that instant. Fresh analyses keep the memo tables cold."""
    function = _cg_run()
    detector = _detector(ordering)
    compiler = detector.compiler
    analyses = FunctionAnalyses(function)
    if ordering == "forest":
        forest = compiler.forest_for(tuple(detector.idioms))
        solver = Solver(function, analyses, limits)
        feasible = forest.feasible(analyses)
        # The fused pass's budget, exactly as IdiomCompiler.match_library
        # scales it.
        solver.stats.max_steps = limits.max_steps * len(feasible)
        with pytest.raises((IDLError, SolveTimeout)) as info:
            execute_forest(solver, forest, feasible)
        return "forest", info.value, solver.stats.as_dict()
    for idiom in detector.idioms:
        solver = Solver(function, analyses, limits)
        try:
            solver.solutions(compiler.compile(idiom),
                             compiler.plan_for(idiom))
        except (IDLError, SolveTimeout) as exc:
            return idiom, exc, solver.stats.as_dict()
    raise AssertionError("no limit fired")


def _stats(*values) -> dict:
    return dict(zip(STAT_FIELDS, values))


@pytest.mark.parametrize("ordering,where,limit,stats", [
    # 5 feasible idioms x 1000: the cap fires on tick 5001.
    ("forest", "forest", 5000, _stats(5001, 843, 0, 0, 3, 1, 0, 5)),
    # GEMM fits in 1000 ticks; SPMV is the first solve that does not.
    ("plan", "SPMV", 1000, _stats(1001, 168, 0, 0, 3, 0, 0, 0)),
])
def test_step_cap_fires_at_pinned_tick(ordering, where, limit, stats):
    failing, exc, at = _trip(ordering, SolveLimits(max_steps=1000))
    assert failing == where
    assert type(exc) is IDLError
    assert str(exc) == f"constraint search exceeded {limit} steps"
    assert at == stats


@pytest.mark.parametrize("ordering,where,stats", [
    ("forest", "forest", _stats(4096, 688, 0, 0, 3, 1, 0, 5)),
    # Only SPMV's solve reaches the first clock sample on tick 4096.
    ("plan", "SPMV", _stats(4096, 698, 0, 0, 3, 0, 0, 0)),
])
def test_expired_deadline_fires_at_first_clock_sample(ordering, where,
                                                      stats):
    failing, exc, at = _trip(ordering, SolveLimits(deadline_s=-1.0))
    assert failing == where
    assert isinstance(exc, SolveTimeout)
    assert str(exc) == ("constraint search exceeded its wall-clock "
                        "deadline after 4096 steps")
    assert at == stats


# ---------------------------------------------------------------------------
# Plan shapes the idiom library does not use
# ---------------------------------------------------------------------------

#: A disjunction as the whole idiom (never readiness-checked), a collect
#: with an outer variable, disjunctions and collects nested in each other,
#: and a multi-binding ``reaches phi`` step.
SHAPES_IDL = """
Constraint TopOr
( {x} is fadd instruction or {x} is fmul instruction )
End

Constraint CollectOuter
( {user} is fadd instruction and
  collect i 6
  ( {ld[i]} is load instruction and
    {ld[i]} has data flow to {user} ) )
End

Constraint OrInside
( {s} is store instruction and
  {v} is first argument of {s} and
  ( {v} is fadd instruction or
    ( {v} is fmul instruction and {w} is first argument of {v} ) ) and
  {p} is second argument of {s} )
End

Constraint OrCollect
( {s} is store instruction and
  ( {s} is first argument of {s} or
    collect i 3
    ( {l[i]} is load instruction and
      {l[i]} control flow dominates {s} ) ) )
End

Constraint NestedCollect
( {b} is branch instruction and
  collect i 3
  ( {c[i]} is icmp instruction and
    {c[i]} control flow dominates {b} and
    collect j 2
    ( {c[i].u[j]} is first argument of {c[i]} ) ) )
End

Constraint Partial
( {a} is add instruction and
  ( {b} is first argument of {a} or {c} is second argument of {a} ) and
  {b} is not the same as {a} and
  {c} is not the same as {a} )
End

Constraint ReachPair
( {phi} is phi instruction and
  {val} reaches phi node {phi} from {br} and
  {val} is add instruction )
End
"""

#: Summed over every function of CG, histo and stencil and every shape.
SHAPE_TOTALS = {
    "plan": _stats(1746, 223, 70, 70, 0, 0, 0, 0),
    "forest": _stats(1720, 223, 70, 70, 0, 0, 26, 0),
    "dynamic": _stats(1746, 223, 0, 70, 0, 0, 0, 0),
}
#: Matches per shape (plan, forest, dynamic).
SHAPE_MATCHES = {
    "TopOr": (43, 43, 43),
    "CollectOuter": (30, 30, 30),
    "OrInside": (3, 3, 3),
    "OrCollect": (13, 13, 13),
    "NestedCollect": (75, 75, 75),
    "Partial": (0, 0, 0),
    "ReachPair": (28, 28, 28),
}


def _shape_totals() -> tuple[dict, dict]:
    compiler = IdiomCompiler()
    names = compiler.load(SHAPES_IDL)
    limits = SolveLimits(max_solutions=50)
    totals = {o: dict.fromkeys(STAT_FIELDS, 0) for o in SHAPE_TOTALS}
    matches: dict = {}
    for workload in ("CG", "histo", "stencil"):
        source = get_workload(workload).source
        module = optimize(compile_c(source, workload))
        for function in module.functions.values():
            if function.is_declaration():
                continue
            for name in names:
                for ordering in SHAPE_TOTALS:
                    if ordering == "forest":
                        found, stats = compiler.match_library(
                            function, [name], limits=limits)
                        found = found[name]
                    else:
                        found, stats = compiler.match_with_stats(
                            function, name, ordering=ordering,
                            limits=limits)
                    for key, value in stats.as_dict().items():
                        totals[ordering][key] += value
                    counts = matches.setdefault(name, dict.fromkeys(
                        SHAPE_TOTALS, 0))
                    counts[ordering] += len(found)
    return totals, {name: tuple(counts.values())
                    for name, counts in matches.items()}


def test_unusual_plan_shapes_search_effort():
    totals, matches = _shape_totals()
    assert totals == SHAPE_TOTALS
    assert matches == SHAPE_MATCHES


def test_collect_with_unbound_outer_variable_is_rejected():
    """A collect whose outer variable nothing binds has no enclosing
    search to enumerate it for; lowering rejects it by name."""
    compiler = IdiomCompiler()
    compiler.load("""
Constraint TopCollect
( collect i 6
  ( {ld[i]} is load instruction and
    {ld[i]} has data flow to {user} ) )
End
""")
    with pytest.raises(IDLError, match=r"'TopCollect'.*\{user\}"):
        compiler.compile("TopCollect")


# ---------------------------------------------------------------------------
# Compiled plans and the forest trie
# ---------------------------------------------------------------------------

#: sha256 of ``repr(plan_signature(...))`` per library root: the lowered
#: structure, the schedule and the assumed bindings of every plan step.
PLAN_SIGNATURE_GOLDEN = {
    "GEMM": "2c6be7fce252eca276676a584a293c6c14f9dabc531db406f8fa353879e54ec6",
    "SPMV": "d9aead140b23ac55dcceade627135f33f4e792546d098ab82a1a7050b59bd13b",
    "Stencil3D":
        "e3c6dd918a6c1217070164bbbf4b2e206f6b10a29a35ed4edd52ece98f336d26",
    "Stencil2D":
        "aa3b3855315dfb740cd952c27379c492eac16c592924abd6b87a33e2f1dbcb6e",
    "Stencil1D":
        "3c05acce24c7da0874c37605aaceeb4bd325e10b4993ed055072679a347553fb",
    "Histogram":
        "393fa8dbf60b726f9d91a2f43e7c7c5b92d767d850c5e0735bd81b88c084a974",
    "Reduction":
        "1d28cc053d01228b566e30e0f08ee70f9d00ac2af73849775003677d36c5cc34",
}

#: sha256 of the forest trie's shape (per node: depth, idioms through
#: it, idioms ending at it, children) and every feasibility signature.
FOREST_SHAPE_GOLDEN = \
    "a3a898ccc1a383f426ad1bc3211b5e085348154f6463deb23c5fd74cfc75b9cf"


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _trie_shape(node) -> tuple:
    return (node.depth, tuple(node.idioms), tuple(node.sinks),
            tuple(_trie_shape(child) for child in node.children))


def test_library_plans_are_pinned():
    detector = IdiomDetector()
    compiler = detector.compiler
    assert detector.idioms == list(PLAN_SIGNATURE_GOLDEN)
    assert {name: _sha(plan_signature(compiler.plan_for(name)))
            for name in detector.idioms} == PLAN_SIGNATURE_GOLDEN
    forest = compiler.forest_for(tuple(detector.idioms))
    assert (forest.shared_steps, forest.total_steps) == (11, 181)
    signatures = tuple((name, tuple(sorted(sig.required_opcodes)),
                        sig.min_loop_depth)
                       for name, sig in forest.signatures.items())
    assert _sha((tuple(_trie_shape(root) for root in forest.roots),
                 signatures)) == FOREST_SHAPE_GOLDEN
