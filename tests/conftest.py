"""Fixtures shared by the cross-tier equivalence tests (``test_vm.py``
and ``test_jit.py``), which compare every tier against the reference
interpreter's and the VM's run of each suite workload."""

import pytest

from repro.runtime import Interpreter, VirtualMachine, compile_workload
from repro.runtime.runner import _bind_arguments
from repro.workloads import get_workload


def _execute(engine_cls, compiled, workload, **kwargs):
    engine = engine_cls(compiled.module, **kwargs)
    args, buffers = _bind_arguments(engine, compiled.module, workload.entry,
                                    workload.make_inputs(1))
    value = engine.call(workload.entry, args)
    for name, buffer in engine.globals.items():
        buffers.setdefault(name, buffer)
    return value, buffers, engine.profile, engine


@pytest.fixture(scope="session")
def execute():
    """Runs a compiled suite workload on an engine class (keyword
    arguments go to the engine): (value, buffers, profile, engine)."""
    return _execute


@pytest.fixture(scope="session")
def compiled_suite():
    """One compile+detect pass per workload, shared across tests."""
    cache = {}

    def get(name):
        if name not in cache:
            w = get_workload(name)
            cache[name] = (w, compile_workload(name, w.source))
        return cache[name]
    return get


@pytest.fixture(scope="session")
def suite_runs(compiled_suite):
    """The reference interpreter's and the VM's run of each workload,
    each as :func:`execute` returns it, computed once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            workload, compiled = compiled_suite(name)
            cache[name] = (_execute(Interpreter, compiled, workload),
                           _execute(VirtualMachine, compiled, workload))
        return cache[name]
    return get
