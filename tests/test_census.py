"""Static reachability census: every function, method and class defined in
``src/repro`` is referenced by name somewhere in ``src/`` or
``examples/`` outside its own body, or has a stated reason to stay.

A reference is any identifier naming it: a load or call, an attribute
access, an import, or an identifier-shaped string (``getattr`` keys).
A package ``__init__`` re-exporting a name is no reference: its imports
and its ``__all__`` entries are skipped, while code in its body (a
function calling an imported class) still counts. Names are matched
without scopes, so a definition sharing a name with a live one passes;
the census is a ratchet against code nothing reaches, not a proof of
liveness."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples")

#: Prefixes of methods the frontend's code generator dispatches by name
#: (``getattr(self, "_gen_" + type(node).__name__)`` and ``_rv_``).
DISPATCH_PREFIXES = ("_gen_", "_rv_")

#: "<path under src/repro>:<qualified name>" -> why it stays although
#: nothing in src/ or examples/ names it.
ALLOWED = {
    "service/daemon.py:_Handler.handle":
        "socketserver calls it by name for each connection",
    "service/daemon.py:DetectionDaemon.process_request":
        "socketserver calls it by name for each accepted connection",
    "service/daemon.py:DetectionDaemon.shutdown_request":
        "socketserver calls it by name when a connection ends",
    "service/daemon.py:DetectionDaemon.handle_error":
        "socketserver calls it by name when a handler raises",
    "service/daemon.py:DetectionDaemon.kill":
        "abrupt-stop hook: perfbench daemon-mix and the restart tests",
    "service/daemon.py:ServiceClient.detect_report":
        "test hook: decodes a daemon report against the client's parse",
    "service/core.py:PlanResult.completion_s":
        "test hook: a tenant's simulated completion in a joint plan",
    "cache/store.py:ArtifactStore.entry_count":
        "test hook: counts entries other processes wrote",
    "idioms/matches.py:DetectionReport.by_idiom":
        "test hook: per-idiom match counts the suite tests pin",
    "analysis/loops.py:Loop.trip_bounds":
        "analysis the loop tests check against the canonical form",
    "ir/types.py:IntType.min_value":
        "test hook: the signed range the IR tests pin",
    "ir/types.py:IntType.max_value":
        "test hook: the signed range the IR tests pin",
    "reliability/faults.py:FaultPlan.as_spec":
        "test hook: plan_from_spec round trip",
    "runtime/interpreter.py:Interpreter.bind_global":
        "test hook: seeds a global array on the reference oracle",
    "runtime/vm.py:VirtualMachine.bind_global":
        "test hook: seeds a global array on the VM",
    "runtime/jit.py:JitVirtualMachine.jit_compiled":
        "test hook: which functions the JIT compiled",
    "runtime/jit.py:JitVirtualMachine.outcome_records":
        "test hook: per-function compile and fallback records",
    "idioms/scheduler.py:DetectionSession.cache_hits":
        "test hook: the last call's store hits, a view over counts()",
    "platform/placement.py:evaluate_assignment":
        "test oracle: the exact cost of one assignment, which the "
        "planner's shared replays must reproduce",
    "platform/placement.py:evaluate_concurrent":
        "test oracle: the joint-schedule replay of fixed assignments",
    "platform/calibrate.py:load_profile":
        "test hook: reads back the profile calibration stored",
    "ir/verifier.py:verify_module":
        "test oracle: structural IR checks after parsing and passes",
    "idioms/library.py:library_line_count":
        "test hook: the library-size figure the paper reports",
    "workloads/suite.py:expected_totals":
        "test oracle: the suite-wide census of Table 1",
}


def _exports(tree):
    """The nodes of a package ``__init__`` that only re-export: its
    imports and its ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ast.walk(node)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            yield from ast.walk(node)


def _references(tree, skip=()):
    skip = {id(node) for node in skip}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def _definitions(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            start = min([node.lineno] +
                        [d.lineno for d in node.decorator_list])
            yield prefix + node.name, node.name, start, node.end_lineno
            yield from _definitions(node.body, prefix + node.name + ".")


def census():
    """(unreferenced "<path>:<qualname>" keys, every definition key)."""
    refs = defaultdict(list)
    defs = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            exports = _exports(tree) if path.name == "__init__.py" else ()
            for name, line in _references(tree, exports):
                refs[name].append((path, line))
            if top == "src":
                rel = path.relative_to(ROOT / "src" / "repro").as_posix()
                for qualname, name, start, end in _definitions(tree.body):
                    defs.append((f"{rel}:{qualname}", name, path, start,
                                 end))
    dead = []
    for key, name, path, start, end in defs:
        if name.startswith("__") and name.endswith("__"):
            continue  # dunder: the interpreter calls it
        if name.startswith(DISPATCH_PREFIXES):
            continue
        if any(ref_path != path or not start <= line <= end
               for ref_path, line in refs[name]):
            continue
        dead.append(key)
    return dead, {key for key, *_ in defs}


def test_every_definition_is_referenced_or_allowed():
    dead, _ = census()
    unreferenced = sorted(set(dead) - set(ALLOWED))
    assert not unreferenced, \
        "defined but referenced nowhere: " + ", ".join(unreferenced)


def test_allow_list_is_current():
    """Each allowed entry still exists and is still unreferenced, so the
    list shrinks when code starts using a hook or the hook goes."""
    dead, defined = census()
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) - set(dead)) == []
    assert all(reason.strip() for reason in ALLOWED.values())
