"""Def-use (data flow) utilities used by IDL atoms and the transformer."""

from __future__ import annotations

from typing import Iterable

from ..ir.instructions import Instruction, PhiInst
from ..ir.values import User, Value
from .cfg import InstructionCFG


def has_dataflow_edge(src: Value, dst: Value) -> bool:
    """Direct def→use edge: ``dst`` has ``src`` as an operand.

    Phi block operands do not count as data flow.
    """
    if not isinstance(dst, User):
        return False
    if isinstance(dst, PhiInst):
        return any(v is src for v, _ in dst.incoming)
    return any(op is src for op in dst.operands)


def data_users(value: Value) -> list[User]:
    """Distinct users reached by a direct data-flow edge."""
    result: list[User] = []
    for user in value.users():
        if has_dataflow_edge(value, user):
            result.append(user)
    return result


def data_operands(value: Value) -> list[Value]:
    """Operands feeding ``value`` via data flow (skips phi block slots)."""
    if isinstance(value, PhiInst):
        return [v for v, _ in value.incoming]
    if isinstance(value, User):
        return list(value.operands)
    return []


def reaches_via_dataflow(src: Value, dst: Value,
                         blocked: Iterable[Value] = ()) -> bool:
    """Is there a def-use path from ``src`` to ``dst`` avoiding ``blocked``?

    ``blocked`` nodes terminate the search (paths may end, not pass through).
    """
    blocked_ids = {id(b) for b in blocked}
    stack = [u for u in data_users(src)]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if node is dst:
            return True
        if id(node) in seen or id(node) in blocked_ids:
            continue
        seen.add(id(node))
        stack.extend(data_users(node))
    return False


def all_data_flow_passes_through(src: Value, dst: Value, via: Value) -> bool:
    """Every def-use path src→dst passes through ``via`` (vacuous if none)."""
    if via is src or via is dst:
        return True
    return not reaches_via_dataflow(src, dst, [via])


def flow_killed_by(sources: list[Value], sinks: list[Value],
                   kills: list[Value], cfg: InstructionCFG | None = None) -> bool:
    """IDL atom ``all flow from {S} to {T} is killed by {K}``.

    Considers the combined data-flow + control-flow graph and requires that
    no sink is reachable from any source once the kill nodes are removed.
    """
    kill_ids = {id(k) for k in kills}
    sink_ids = {id(t) for t in sinks}

    def successors(node: Value) -> list[Value]:
        succ: list[Value] = list(data_users(node))
        if cfg is not None and isinstance(node, Instruction):
            succ.extend(cfg.successors(node))
        return succ

    for source in sources:
        stack = [s for s in successors(source) if id(s) not in kill_ids]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in sink_ids:
                return False
            if id(node) in seen:
                continue
            seen.add(id(node))
            for nxt in successors(node):
                if id(nxt) not in kill_ids:
                    stack.append(nxt)
    return True
