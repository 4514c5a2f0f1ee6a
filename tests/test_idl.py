"""Tests for the IDL language: parsing, lowering, solving, natives."""

import pytest

from repro.errors import IDLError, ParseError
from repro.frontend import compile_c
from repro.idl import IdiomCompiler, parse_idl, parse_var_text
from repro.idl.ast import Num, Sym
from repro.idl.lowering import LAnd, LAtom, LOr, Lowerer, Registry
from repro.passes import optimize

FACTORIZATION = """
Constraint FactorizationOpportunity
( {sum} is add instruction and
  {left_addend} is first argument of {sum} and
  {left_addend} is mul instruction and
  {right_addend} is second argument of {sum} and
  {right_addend} is mul instruction and
  ( {factor} is first argument of {left_addend} or
    {factor} is second argument of {left_addend} ) and
  ( {factor} is first argument of {right_addend} or
    {factor} is second argument of {right_addend} ) )
End
"""


class TestIDLParser:
    def test_factorization_parses(self):
        specs = parse_idl(FACTORIZATION)
        assert specs[0].name == "FactorizationOpportunity"

    def test_var_text(self):
        ref = parse_var_text("kernel.input[i]")
        assert len(ref.components) == 2
        assert ref.components[1].index == Sym("i")

    def test_var_range(self):
        ref = parse_var_text("read[0..4]")
        assert ref.is_range()

    def test_atoms(self):
        src = """
Constraint T
( {a} is integer constant zero and
  {b} is not the same as {a} and
  {a} has data flow to {b} and
  {c} reaches phi node {a} from {b} and
  {a} strictly control flow dominates {b} and
  {b} control flow post dominates {a} and
  all control flow from {a} to {b} passes through {c} )
End
"""
        spec = parse_idl(src)[0]
        assert spec.name == "T"

    def test_inheritance_with_params(self):
        src = """
Constraint T
( inherits Other(N=3)
  with {x} as {y} at {base} )
End
"""
        spec = parse_idl(src)[0]
        inh = spec.constraint
        assert inh.name == "Other"
        assert inh.params["N"] == Num(3)
        assert inh.base is not None

    def test_quantifiers(self):
        src = """
Constraint T
( ( {v[i]} is add instruction ) for all i = 0 .. 2 and
  ( {w[j]} is mul instruction ) for some j = 0 .. 1 )
End
"""
        parse_idl(src)

    def test_bad_syntax(self):
        with pytest.raises(ParseError):
            parse_idl("Constraint X ( {a} is banana instruction ) End")


class TestLowering:
    def test_forall_expands_to_conjunction(self):
        reg = Registry()
        for s in parse_idl("""
Constraint T
( ( {v[i]} is add instruction ) for all i = 0 .. 2 )
End
"""):
            reg.add_spec(s)
        lowered = Lowerer(reg).lower_spec("T")
        assert isinstance(lowered, LAnd)
        assert len(lowered.children) == 3
        assert lowered.children[0].vars == ["v[0]"]

    def test_forsome_expands_to_disjunction(self):
        reg = Registry()
        for s in parse_idl("""
Constraint T
( ( {v[i]} is add instruction ) for some i = 0 .. 1 )
End
"""):
            reg.add_spec(s)
        lowered = Lowerer(reg).lower_spec("T")
        assert isinstance(lowered, LOr)
        assert len(lowered.children) == 2

    def test_rename_and_rebase(self):
        reg = Registry()
        for s in parse_idl("""
Constraint Inner
( {x} is add instruction and {y} is mul instruction )
End
Constraint T
( inherits Inner with {outer_x} as {x} at {pre} )
End
"""):
            reg.add_spec(s)
        lowered = Lowerer(reg).lower_spec("T")
        names = sorted(lowered.free_vars())
        assert names == ["outer_x", "pre.y"]

    def test_nested_rebase_composes(self):
        reg = Registry()
        for s in parse_idl("""
Constraint A
( {v} is add instruction )
End
Constraint B
( inherits A at {inner} )
End
Constraint T
( inherits B at {outer} )
End
"""):
            reg.add_spec(s)
        lowered = Lowerer(reg).lower_spec("T")
        assert lowered.free_vars() == {"outer.inner.v"}

    def test_if_selects_branch(self):
        reg = Registry()
        for s in parse_idl("""
Constraint T
( if N = 1 then {a} is add instruction
  else {a} is mul instruction endif
) End
"""):
            reg.add_spec(s)
        low1 = Lowerer(reg).lower_spec("T", {"N": 1})
        low2 = Lowerer(reg).lower_spec("T", {"N": 2})
        assert low1.extra["opcode"] == "add"
        assert low2.extra["opcode"] == "mul"

    def test_and_flattening(self):
        reg = Registry()
        for s in parse_idl("""
Constraint T
( ( {a} is add instruction and {b} is mul instruction ) and
  {c} is sub instruction )
End
"""):
            reg.add_spec(s)
        lowered = Lowerer(reg).lower_spec("T")
        assert isinstance(lowered, LAnd)
        assert all(isinstance(c, LAtom) for c in lowered.children)
        assert len(lowered.children) == 3


class TestSolver:
    def _function(self, src="int example(int a, int b, int c) "
                  "{ int d = a; return (a*b) + (c*d); }"):
        m = compile_c(src)
        optimize(m)
        return m.get_function("example")

    def test_factorization_paper_example(self):
        """The paper's Figure 3 result, reproduced exactly."""
        idl = IdiomCompiler()
        idl.load(FACTORIZATION)
        sols = idl.match(self._function(), "FactorizationOpportunity")
        assert len(sols) == 1
        sol = sols[0]
        assert sol["factor"].name == "a"
        assert sol["sum"].opcode == "add"
        assert sol["left_addend"].opcode == "mul"
        assert sol["right_addend"].opcode == "mul"

    def test_no_match_when_no_shared_factor(self):
        idl = IdiomCompiler()
        idl.load(FACTORIZATION)
        f = self._function("int example(int a, int b, int c, int e) "
                           "{ return (a*b) + (c*e); }")
        assert idl.match(f, "FactorizationOpportunity") == []

    def test_all_solutions_enumerated(self):
        idl = IdiomCompiler()
        idl.load("""
Constraint AnyMul
( {m} is mul instruction )
End
""")
        f = self._function("int example(int a) { return (a*a) * (a*2); }")
        sols = idl.match(f, "AnyMul")
        assert len(sols) == 3

    def test_unknown_constraint(self):
        idl = IdiomCompiler()
        with pytest.raises(IDLError):
            idl.compile("Nonexistent")

    def test_negative_constraint(self):
        idl = IdiomCompiler()
        idl.load("""
Constraint DistinctMuls
( {a} is mul instruction and
  {b} is mul instruction and
  {a} is not the same as {b} )
End
""")
        f = self._function("int example(int a) { return (a*2) + (a*3); }")
        sols = idl.match(f, "DistinctMuls")
        assert len(sols) == 2  # ordered pairs (m1,m2), (m2,m1)


class TestNatives:
    def test_kernel_function_pure(self):
        from repro.idioms import load_library

        idl = IdiomCompiler()
        load_library(idl)
        src = """
double f(int n, double *a) {
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += a[i] * 2.0;
  return s;
}
"""
        m = compile_c(src)
        optimize(m)
        sols = idl.match(m.get_function("f"), "Reduction")
        assert len(sols) == 1
        # kernel.input = [read, old accumulator]
        assert "kernel.input[1]" in sols[0]

    def test_kernel_rejects_unregistered_loads(self):
        from repro.idioms import load_library

        idl = IdiomCompiler()
        load_library(idl)
        # Indirect read a[b[i]] is not a collected VectorRead.
        src = """
double f(int n, double *a, int *b) {
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += a[b[i]];
  return s;
}
"""
        m = compile_c(src)
        optimize(m)
        assert idl.match(m.get_function("f"), "Reduction") == []


# ---------------------------------------------------------------------------
# Atoms the shipped library never solves with: custom idioms
# ---------------------------------------------------------------------------

#: name -> (IDL, the entry the atom must reach, C that must match, C of
#: a near miss that must not). Each idiom leans on one atom kind the
#: library does not exercise.
UNUSED_BY_LIBRARY = {
    # {l}'s only generator is the dependence edge: memory ops on a
    # may-aliasing base. Distinct globals cannot alias.
    "AliasedLoad": ("""
Constraint AliasedLoad
( {s} is store instruction and
  {s} has dependence edge to {l} and
  {l} is not the same as {s} )
End
""", "gen_dependence", """
double A[8];
void f(void) { A[0] = A[1] + 1.0; }
""", """
double A[8];
double B[8];
void f(void) { B[0] = A[1] + 1.0; }
"""),
    # Both ends bound by opcode first: the edge is a check.
    "StoreThenLoad": ("""
Constraint StoreThenLoad
( {s} is store instruction and
  {l} is load instruction and
  {l} has dependence edge to {s} )
End
""", "check_dependence", """
double A[8];
void f(void) { A[0] = A[1] + 1.0; }
""", """
double A[8];
double B[8];
void f(void) { B[0] = A[1] + 1.0; }
"""),
    "KilledByMul": ("""
Constraint KilledByMul
( {a} is an argument and
  {m} is mul instruction and
  {r} is return instruction and
  all flow from {a} to {r} is killed by {m} )
End
""", "killed", """
int f(int a) { int t = a * 3; return t + 1; }
""", """
int f(int a) { int t = a * 3; return t + a; }
"""),
    "ThroughMul": ("""
Constraint ThroughMul
( {a} is an argument and
  {m} is mul instruction and
  {r} is return instruction and
  all data flow from {a} to {r} passes through {m} )
End
""", "data_passes_through", """
int f(int a) { int t = a * 3; return t + 1; }
""", """
int f(int a) { int t = a * 3; return t + a; }
"""),
    # {x} has no cheaper generator than its type.
    "FloatFlow": ("""
Constraint FloatFlow
( {x} is float and
  {x} has data flow to {y} and
  {y} is float )
End
""", "gen_type", """
double f(double a) { return a * 2.0; }
""", """
int f(int a) { return a * 2; }
"""),
    "PointerArgument": ("""
Constraint PointerArgument
( {p} is an argument and
  {p} is pointer )
End
""", "gen_class", """
double f(double *x) { return x[0]; }
""", """
double f(double a) { return a; }
"""),
}


class TestAtomsUnusedByLibrary:
    """Each custom idiom matches its function and not the near miss, the
    atom it leans on is really solved with, and the forest agrees with
    every per-idiom oracle configuration."""

    @pytest.fixture
    def entered(self, monkeypatch):
        from repro.idl import atoms

        seen = set()

        def spy(label, fn):
            def wrapper(*args, **kwargs):
                seen.add(label)
                return fn(*args, **kwargs)
            return wrapper

        def check_edge(engine, atom, env):
            if atom.extra["edge"] == "dependence":
                seen.add("check_dependence")
            return atoms.AtomEngine._check_edge(engine, atom, env)

        def check_passes_through(engine, atom, env):
            if atom.extra.get("flow") == "data":
                seen.add("data_passes_through")
            return atoms.AtomEngine._check_passes_through(engine, atom, env)

        monkeypatch.setitem(atoms.CHECKS, "edge", check_edge)
        monkeypatch.setitem(atoms.CHECKS, "passes_through",
                            check_passes_through)
        monkeypatch.setattr(atoms, "flow_killed_by",
                            spy("killed", atoms.flow_killed_by))
        monkeypatch.setattr(atoms.AtomEngine, "_gen_dependence",
                            spy("gen_dependence",
                                atoms.AtomEngine._gen_dependence))
        for kind in ("type", "class"):
            monkeypatch.setitem(atoms.GENERATORS, kind,
                                spy(f"gen_{kind}", atoms.GENERATORS[kind]))
        return seen

    @staticmethod
    def match_sets(detector, function):
        from repro.idl import value_key

        matches, _ = detector.detect_function_with_stats(function)
        return sorted(sorted((k, value_key(v)) for k, v in m.solution.items())
                      for m in matches)

    @pytest.mark.parametrize("name", sorted(UNUSED_BY_LIBRARY))
    def test_match_and_near_miss(self, name, entered):
        from repro.idioms import IdiomDetector
        from repro.idioms.oracle import PerIdiomDetector

        idl_text, atom, hit, miss = UNUSED_BY_LIBRARY[name]
        idl = IdiomCompiler()
        idl.load(idl_text)
        detectors = [
            IdiomDetector(idl, [name]),
            PerIdiomDetector(idl, [name]),
            PerIdiomDetector(idl, [name], ordering="dynamic",
                             indexed=False)]
        found = {}
        for label, src in (("hit", hit), ("miss", miss)):
            module = compile_c(src)
            optimize(module)
            function = module.get_function("f")
            forest, *oracles = [self.match_sets(d, function)
                                for d in detectors]
            assert all(oracle == forest for oracle in oracles), label
            found[label] = len(forest)
        assert found["hit"] >= 1 and found["miss"] == 0
        assert atom in entered
