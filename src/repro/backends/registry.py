"""Pluggable backend registry: API catalogs queried by capability.

The transformer used to hard-import ``blas``/``sparse`` and the cost layer
enumerated a global descriptor dict. This module replaces both with a
discoverable registry in the style of SOAR's ``ApiMatching`` catalog:

* every backend (``blas``, ``sparse``, ``halide``, ``lift``, ``fft``,
  ``parallel-cpu``) registers a :class:`BackendEntry` naming its
  :class:`~repro.backends.api.ApiDescriptor` performance profiles, and
* per idiom category a :class:`LoweringContract` stating what the backend
  *needs from a match* (solution keys) and which numeric kernels it
  supplies to the emitted handler.

Replacement consults ``contracts_for(category)`` instead of first-match
imports; the offload planner consults ``apis_for(category, device)`` for
its candidate (API, device) placements. Both accept an ``allowed``
backend subset.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..errors import BackendError
from .api import ApiDescriptor, FrozenMap


@dataclass(frozen=True)
class LoweringContract:
    """What one backend needs from a match of one idiom category.

    ``requires`` lists the solution keys the lowering consumes; a match
    that lacks any of them cannot be lowered under this contract.
    ``kernels`` maps kernel-role names (``"spmv"``, ``"matmul_tt"``,
    ``"compile"``) to the callables the emitted handler computes with —
    the only place numeric primitives enter the transformer.
    """

    backend: str
    category: str
    requires: tuple
    kernels: Mapping
    emits: str = ""

    def __post_init__(self):
        if not isinstance(self.kernels, FrozenMap):
            object.__setattr__(self, "kernels", FrozenMap(self.kernels))
        object.__setattr__(self, "requires", tuple(self.requires))

    def satisfied_by(self, solution: Mapping) -> bool:
        return all(key in solution for key in self.requires)

    def missing(self, solution: Mapping) -> list[str]:
        return [key for key in self.requires if key not in solution]


@dataclass
class BackendEntry:
    """One pluggable backend: descriptors plus per-category contracts."""

    name: str
    title: str
    descriptors: tuple = ()
    contracts: dict = field(default_factory=dict)  # category -> contract

    def contract(self, category: str) -> LoweringContract | None:
        return self.contracts.get(category)


class BackendRegistry:
    """Discoverable catalog of backends, queried by capability."""

    def __init__(self) -> None:
        self._entries: dict[str, BackendEntry] = {}

    # -- registration --------------------------------------------------------
    def register(self, entry: BackendEntry) -> BackendEntry:
        if entry.name in self._entries:
            raise BackendError(f"backend {entry.name!r} already registered")
        for contract in entry.contracts.values():
            if contract.backend != entry.name:
                raise BackendError(
                    f"contract backend {contract.backend!r} does not match "
                    f"entry {entry.name!r}")
        self._entries[entry.name] = entry
        return entry

    # -- queries -------------------------------------------------------------
    def names(self) -> list[str]:
        return list(self._entries)

    def get(self, name: str) -> BackendEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise BackendError(
                f"unknown backend {name!r} "
                f"(registered: {', '.join(self._entries) or 'none'})")
        return entry

    def entries(self, allowed=None) -> list[BackendEntry]:
        if allowed is None:
            return list(self._entries.values())
        unknown = set(allowed) - set(self._entries)
        if unknown:
            raise BackendError(
                f"unknown backends: {', '.join(sorted(unknown))} "
                f"(registered: {', '.join(self._entries)})")
        return [e for e in self._entries.values() if e.name in allowed]

    def descriptors(self, allowed=None) -> list[ApiDescriptor]:
        out: list[ApiDescriptor] = []
        for entry in self.entries(allowed):
            out.extend(entry.descriptors)
        return out

    def apis_for(self, category: str, platform: str,
                 allowed=None) -> list[ApiDescriptor]:
        """Descriptors able to *run* ``category`` on ``platform``."""
        return [d for d in self.descriptors(allowed)
                if d.supports(platform, category)]

    def contracts_for(self, category: str, allowed=None,
                      quarantine=None) -> list[LoweringContract]:
        """Contracts able to *lower* a match of ``category``, in
        registration order (the transformer tries them in turn).

        ``quarantine`` (a :class:`~repro.reliability.quarantine.Quarantine`)
        drops backends whose (backend, category) pair is quarantined, so
        re-transformation after repeated dispatch failures selects the
        next registered backend instead of the one that keeps failing."""
        out = []
        for entry in self.entries(allowed):
            contract = entry.contract(category)
            if contract is not None and not (
                    quarantine is not None and
                    quarantine.is_quarantined(entry.name, category)):
                out.append(contract)
        return out


_DEFAULT: BackendRegistry | None = None


def default_registry() -> BackendRegistry:
    """The process-wide registry, populated lazily from the backend
    modules (avoids import cycles with :mod:`repro.transform`)."""
    global _DEFAULT
    if _DEFAULT is None:
        registry = BackendRegistry()
        from . import blas, fft, halide, lift, parallel_cpu, sparse
        for module in (blas, sparse, halide, lift, fft, parallel_cpu):
            module.register_backend(registry)
        _DEFAULT = registry
    return _DEFAULT
