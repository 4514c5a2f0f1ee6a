"""Detection artifacts: one per-function match report per entry.

A :class:`DetectionCache` binds an :class:`~repro.cache.store.ArtifactStore`
to one detection configuration signature and speaks the store's payload
schema, ``kind="detection"``: the function's final match list (post
filter, dedup and overlap resolution) in the structural solution wire
format (:func:`encode_solution`: instructions as (block index,
instruction index), arguments by position, globals by name, constants by
value), with each match's own :class:`~repro.idl.solver.SolverStats` plus
the function-level aggregate. :func:`encode_pooled` and
:func:`decode_pooled` are the codec, which the daemon's report encoding
shares. Per-match stats are interned into a pool by object identity —
the forest detector's matches of one function all share one stats
object, the per-idiom oracle's (:mod:`repro.idioms.oracle`) one per
idiom, and the round trip preserves both the values and the sharing.
Decoding rebinds every locator against the *caller's* module, so cached
matches point at live IR objects exactly like fresh ones — a warm report
is indistinguishable from the cold one, per-match ticks included.

Each function is stored once, under its detection key; entries of any
other kind (such as the analysis summaries older stores also hold) are
never read and leave under the store's byte budget. Anything that
cannot be encoded or decoded simply is not cached / is a miss; this
layer never raises on bad artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IDLError
from ..idl.solver import SolverStats
from ..ir.instructions import Instruction
from ..ir.module import Function, Module
from ..ir.types import parse_type
from ..ir.values import Argument, ConstantFloat, ConstantInt, GlobalVariable
from .store import ArtifactStore


# ---------------------------------------------------------------------------
# Solution wire format
# ---------------------------------------------------------------------------
# The printer/parser round-trip preserves structure, so (block index,
# instruction index) identifies the same instruction in any copy of a
# function with the same canonical text.

def encode_value(value, function: Function) -> tuple:
    if isinstance(value, Instruction):
        block = value.parent
        return ("i", function.blocks.index(block),
                block.instructions.index(value))
    if isinstance(value, Argument):
        return ("a", function.args.index(value))
    if isinstance(value, GlobalVariable):
        return ("g", value.name)
    if isinstance(value, ConstantInt):
        return ("ci", str(value.type), value.value)
    if isinstance(value, ConstantFloat):
        return ("cf", str(value.type), value.value)
    raise IDLError(f"cannot serialize solution value {value!r}")


def decode_value(token: tuple, function: Function, module: Module):
    kind = token[0]
    if kind == "i":
        return function.blocks[token[1]].instructions[token[2]]
    if kind == "a":
        return function.args[token[1]]
    if kind == "g":
        return module.globals[token[1]]
    if kind == "ci":
        return ConstantInt(parse_type(token[1]), token[2])
    if kind == "cf":
        return ConstantFloat(parse_type(token[1]), token[2])
    raise IDLError(f"unknown solution token {token!r}")


def encode_solution(solution: dict, function: Function) -> list[tuple]:
    return [(name, encode_value(value, function))
            for name, value in solution.items()]


def decode_solution(encoded: list[tuple], function: Function,
                    module: Module) -> dict:
    return {name: decode_value(token, function, module)
            for name, token in encoded}


@dataclass
class CachedDetection:
    """One warm per-function detection result."""

    matches: list  # list[IdiomMatch], decoded against the caller's module
    stats: SolverStats


def _stats_from(payload_stats: dict, max_steps) -> SolverStats:
    return SolverStats(max_steps=int(max_steps),
                       **{k: int(v) for k, v in payload_stats.items()})


def encode_pooled(matches: list, stats: SolverStats, encode_match) -> dict:
    """The match list and stats fields of a payload: each match as
    ``encode_match(m)`` plus its index into a pool of per-match stats
    interned by object identity (None when the match has none), then the
    aggregate ``stats``. The store entry and the wire report share it.
    Raises :class:`~repro.errors.IDLError` when ``encode_match`` does."""
    pool: list = []
    pool_index: dict[int, int] = {}
    encoded = []
    for m in matches:
        index = None
        if m.stats is not None:
            index = pool_index.get(id(m.stats))
            if index is None:
                index = pool_index[id(m.stats)] = len(pool)
                pool.append((m.stats.as_dict(), m.stats.max_steps))
        encoded.append((*encode_match(m), index))
    return {"matches": encoded, "stats_pool": pool,
            "stats": stats.as_dict(), "max_steps": stats.max_steps}


def decode_pooled(payload: dict, decode_match) -> tuple[list, SolverStats]:
    """The inverse of :func:`encode_pooled`: the matches, each built by
    ``decode_match(*fields, stats)`` with its pooled stats object (shared
    as it was when encoded), and the aggregate stats."""
    pool = [_stats_from(blob, max_steps)
            for blob, max_steps in payload["stats_pool"]]
    matches = [decode_match(*fields,
                            stats=None if index is None else pool[index])
               for *fields, index in payload["matches"]]
    return matches, _stats_from(payload["stats"], payload["max_steps"])


def encode_detection(function: Function, matches: list,
                     stats: SolverStats) -> dict | None:
    """One function's detection result in the store's payload schema
    (also the cross-tenant dedupe wire format: a payload encoded against
    one function decodes against any function with the same content
    fingerprint). None when the result must not be replayed elsewhere —
    a timed-out partial match list, or a solution binding values the
    wire format cannot express."""
    if stats.timed_out:
        return None
    try:
        pooled = encode_pooled(
            matches, stats,
            lambda m: (m.idiom, encode_solution(m.solution, function)))
    except IDLError:
        return None
    return {"kind": "detection", "function": function.name, **pooled}


def decode_detection(payload: dict, function: Function,
                     module: Module) -> CachedDetection:
    """Rebind an :func:`encode_detection` payload against ``function``
    in ``module``. Raises on a mis-shaped payload — callers classify
    that as a corrupt entry (cache) or fall back to solving (dedupe)."""
    from ..idioms.matches import IdiomMatch

    return CachedDetection(*decode_pooled(
        payload,
        lambda idiom, encoded, stats: IdiomMatch(
            str(idiom), function,
            decode_solution(encoded, function, module), stats=stats)))


class DetectionCache:
    """Store facade for one detector configuration."""

    def __init__(self, store: ArtifactStore, config_signature: str):
        self.store = store
        self.config_signature = config_signature

    # -- detection entries -----------------------------------------------------
    def load(self, function: Function, module: Module,
             key: str) -> CachedDetection | None:
        """The cached detection result stored under ``key`` (the
        function's entry in its module's
        :class:`~repro.cache.fingerprint.ModuleFingerprints`), or None."""
        payload = self.store.get(key)
        if payload is None or payload.get("kind") != "detection":
            return None
        try:
            return decode_detection(payload, function, module)
        except (IDLError, KeyError, IndexError, TypeError, ValueError):
            # A content-addressed entry should always decode against the
            # IR it was keyed on; if it does not, it is corrupt — drop it
            # and report a miss (never an error).
            self.store.invalidate(key)
            return None

    def save(self, function: Function, matches: list, stats: SolverStats,
             key: str) -> None:
        """Persist one function's detection result under ``key``.

        Matches that cannot be expressed in the wire format make the
        whole function uncacheable (it will simply re-solve next time);
        partial (timed-out) match lists must never be stored."""
        payload = encode_detection(function, matches, stats)
        if payload is not None:
            self.store.put(key, payload)
