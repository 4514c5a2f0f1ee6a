"""Oracle tests for the compile path's fast paths.

Each fast path keeps its straightforward predecessor here as the oracle
and must give identical answers:

- ``FunctionAnalyses.dom``/``.postdom`` (block trees plus positions in a
  block) against ``DominatorTree.instruction_level``;
- ``Function.unique_name`` (a kept used-name set) against a rescan of the
  whole function on every call;
- ``tokenize`` (one combined regex) against the per-character loop.
"""

import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.analysis import DominatorTree, FunctionAnalyses, InstructionCFG
from repro.analysis.dominators import InstructionDominance
from repro.errors import LexError, SourceLocation
from repro.frontend import compile_c, lexer, tokenize
from repro.ir import parse_module
from repro.ir.instructions import BinaryOperator, RetInst
from repro.ir.module import BasicBlock, Function
from repro.ir.types import I32, FunctionType
from repro.ir.values import ConstantInt
from repro.passes import optimize
from repro.workloads import all_workloads


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------

def _instruction_trees(function):
    cfg = InstructionCFG(function)
    return (DominatorTree.instruction_level(cfg),
            DominatorTree.instruction_level(cfg, post=True))


def _assert_same_dominance(fast, oracle, nodes):
    for a in nodes:
        assert fast.idom(a) is oracle.idom(a), (a, fast.post)
        assert fast.contains(a) == oracle.contains(a), (a, fast.post)
        for b in nodes:
            assert fast.dominates(a, b) == oracle.dominates(a, b), \
                (a, b, fast.post)
            assert fast.strictly_dominates(a, b) == \
                oracle.strictly_dominates(a, b), (a, b, fast.post)


def _assert_function_agrees(function):
    analyses = FunctionAnalyses(function)
    dom, postdom = analyses.dom, analyses.postdom
    assert isinstance(dom, InstructionDominance)
    assert isinstance(postdom, InstructionDominance)
    oracle_dom, oracle_postdom = _instruction_trees(function)
    nodes = list(function.instructions())
    _assert_same_dominance(dom, oracle_dom, nodes)
    _assert_same_dominance(postdom, oracle_postdom, nodes)


def _optimized_workload_functions():
    for workload in all_workloads():
        module = compile_c(workload.source, workload.name)
        optimize(module)
        for function in module.functions.values():
            if not function.is_declaration():
                yield workload.name, function


def test_dominance_matches_instruction_trees_on_every_workload():
    functions = list(_optimized_workload_functions())
    assert len({name for name, _ in functions}) == 21
    for _, function in functions:
        _assert_function_agrees(function)


def _parsed(text):
    return parse_module(text).get_function("f")


def test_dominance_two_exits():
    _assert_function_agrees(_parsed("""
define i32 @f(i32 %a) {
entry:
  %c = icmp sgt i32 %a, 0
  br i1 %c, label %pos, label %neg
pos:
  %x = add i32 %a, 1
  ret i32 %x
neg:
  %y = sub i32 %a, 1
  ret i32 %y
}
"""))


def test_dominance_infinite_loop_beside_an_exit():
    _assert_function_agrees(_parsed("""
define i32 @f(i32 %a) {
entry:
  %c = icmp sgt i32 %a, 0
  br i1 %c, label %spin, label %done
spin:
  %s = add i32 %a, 2
  br label %spin
done:
  ret i32 %a
}
"""))


def test_dominance_infinite_loop_without_exit():
    _assert_function_agrees(_parsed("""
define void @f(i32 %a) {
entry:
  br label %head
head:
  %h = add i32 %a, 1
  br label %body
body:
  %b = add i32 %a, 2
  br label %head
}
"""))


def test_dominance_unreachable_block():
    _assert_function_agrees(_parsed("""
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  br label %exit
dead:
  %y = add i32 %a, 2
  br label %exit
exit:
  ret i32 %x
}
"""))


def test_dominance_ignores_instruction_inserted_after_snapshot():
    function = _parsed("""
define i32 @f(i32 %a) {
entry:
  %c = icmp sgt i32 %a, 0
  br i1 %c, label %then, label %exit
then:
  %x = add i32 %a, 1
  br label %exit
exit:
  ret i32 %a
}
""")
    analyses = FunctionAnalyses(function)
    dom, postdom = analyses.dom, analyses.postdom
    oracle_dom, oracle_postdom = _instruction_trees(function)
    then = function.blocks[1]
    late = BinaryOperator("add", function.args[0], ConstantInt(I32, 7))
    late.name = "late"
    then.insert(0, late)
    nodes = list(function.instructions())
    assert late in nodes
    _assert_same_dominance(dom, oracle_dom, nodes)
    _assert_same_dominance(postdom, oracle_postdom, nodes)
    assert not dom.dominates(late, late)
    assert dom.idom(late) is None and postdom.idom(late) is None


def test_dominance_block_without_terminator_uses_instruction_tree():
    function = Function("f", FunctionType(I32, (I32,)))
    entry = function.append_block("entry")
    entry.append(BinaryOperator("add", function.args[0], ConstantInt(I32, 1)))
    tail = function.append_block("tail")
    tail.append(RetInst(function.args[0]))
    analyses = FunctionAnalyses(function)
    assert isinstance(analyses.dom, DominatorTree)
    assert isinstance(analyses.postdom, DominatorTree)


# ---------------------------------------------------------------------------
# Naming
# ---------------------------------------------------------------------------

def oracle_unique_name(function, base, state):
    """Name generation by rescanning every block, instruction and argument
    name of the function on each call."""
    existing = {b.name for b in function.blocks}
    for inst in function.instructions():
        if inst.name:
            existing.add(inst.name)
    for arg in function.args:
        existing.add(arg.name)
    if base and base not in existing:
        return base
    while True:
        candidate = f"{base}{state['counter']}"
        state["counter"] += 1
        if candidate not in existing:
            return candidate


_BASES = st.sampled_from(["", "t", "t0", "t1", "bb", "x"])
_BLOCK = st.integers(0, 3)
_INDEX = st.integers(0, 6)
_OPS = st.one_of(
    st.tuples(st.just("insert"), _BLOCK, _INDEX, _BASES, st.booleans()),
    st.tuples(st.just("request"), _BASES),
    st.tuples(st.just("remove_inst"), _BLOCK, _INDEX),
    st.tuples(st.just("move"), _BLOCK, _INDEX, _BLOCK),
    st.tuples(st.just("append_block"), _BASES),
    st.tuples(st.just("remove_block"), _BLOCK),
)


class _Side:
    """One of the two functions the same operation sequence runs on."""

    def __init__(self, oracle: bool):
        self.function = Function("f", FunctionType(I32, (I32, I32)),
                                 arg_names=["a", "t"])
        self.state = {"counter": 0} if oracle else None
        for base in ("entry", "bb"):
            self.append_block(base)

    def name(self, base):
        if self.state is not None:
            return oracle_unique_name(self.function, base, self.state)
        return self.function.unique_name(base)

    def append_block(self, base):
        if self.state is None:
            return self.function.append_block(base).name
        block = BasicBlock(self.name(base or "bb"), self.function)
        self.function.blocks.append(block)
        return block.name

    def apply(self, op):
        """Run ``op``; returns the name it generated, if any."""
        kind, blocks = op[0], self.function.blocks
        if kind == "request":
            return self.name(op[1])
        if kind == "append_block":
            return self.append_block(op[1])
        if not blocks:
            return None
        if kind == "insert":
            _, b, pos, base, named = op
            block = blocks[b % len(blocks)]
            inst = BinaryOperator("add", self.function.args[0],
                                  ConstantInt(I32, pos))
            if named:
                inst.name = self.name(base)
            block.insert(min(pos, len(block.instructions)), inst)
            return inst.name
        if kind == "remove_block":
            self.function.remove_block(blocks[op[1] % len(blocks)])
            return None
        block = blocks[op[1] % len(blocks)]
        if not block.instructions:
            return None
        inst = block.instructions[op[2] % len(block.instructions)]
        block.remove(inst)
        if kind == "move":
            target = blocks[op[3] % len(blocks)]
            target.insert(len(target.instructions) // 2, inst)
        return None


# Long sequences, so that a removal is often followed by a request for the
# name it freed.
@seed(20181)
@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, min_size=20, max_size=80))
def test_unique_name_matches_rescan_oracle(ops):
    oracle, fast = _Side(oracle=True), _Side(oracle=False)
    for op in ops:
        assert fast.apply(op) == oracle.apply(op), op
    assert [b.name for b in fast.function.blocks] == \
        [b.name for b in oracle.function.blocks]
    assert [i.name for i in fast.function.instructions()] == \
        [i.name for i in oracle.function.instructions()]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def oracle_tokenize(source, filename="<input>"):
    """Tokenization one character at a time: float, int and identifier
    regexes tried in that order, then the operators longest first."""
    source = lexer.preprocess(source)
    tokens = []
    line = 1
    line_start = 0
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        loc = SourceLocation(line, i - line_start + 1, filename)
        fmatch = lexer._FLOAT_RE.match(source, i)
        if fmatch:
            tokens.append(lexer.Token("float", fmatch.group(0), loc))
            i = fmatch.end()
            continue
        imatch = lexer._INT_RE.match(source, i)
        if imatch:
            tokens.append(lexer.Token("int", imatch.group(0), loc))
            i = imatch.end()
            continue
        idmatch = lexer._IDENT_RE.match(source, i)
        if idmatch:
            text = idmatch.group(0)
            kind = "keyword" if text in lexer.KEYWORDS else "ident"
            tokens.append(lexer.Token(kind, text, loc))
            i = idmatch.end()
            continue
        for op in lexer.OPERATORS:
            if source.startswith(op, i):
                tokens.append(lexer.Token("op", op, loc))
                i += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", loc)
    tokens.append(lexer.Token("eof", "", SourceLocation(line, 1, filename)))
    return tokens


def _lex(tokenizer, source):
    try:
        tokens = tokenizer(source, "t.c")
    except LexError as exc:
        return ("error", str(exc), exc.location)
    return [(t.kind, t.text, t.location) for t in tokens]


def _assert_same_tokens(source):
    assert _lex(tokenize, source) == _lex(oracle_tokenize, source)


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_lexer_matches_oracle_on_workload(workload):
    _assert_same_tokens(workload.source)


@pytest.mark.parametrize("source", [
    ".5", "1e5f", "0x1Fu", "a...b", "x >>= 2;", "x-->0", "1.e3 .5e-2F 7UL",
    "int\tx =\t1;\r\ny\r= 2;", "\tfoo\n\n  bar\t", "", "a @ b", "x = 1;\n$",
    "return a->b ? c : d;", "9abc", "0x", "1..2",
])
def test_lexer_matches_oracle_on_edge_cases(source):
    _assert_same_tokens(source)


def test_lexer_reports_unexpected_character_like_oracle():
    result = _lex(tokenize, "int x;\n  y = `;")
    assert result == _lex(oracle_tokenize, "int x;\n  y = `;")
    assert result[0] == "error"
    assert result[2] == SourceLocation(2, 7, "t.c")


_C_TEXT = st.lists(
    st.sampled_from(list("abxeEfFuUlL_019.+-*/%<>=!&|^~?:;,()[]{} \t\r\n#@")
                    + ["int", "0x", "...", "->", "1e5", "// c\n", "/* c */"]),
    max_size=40).map("".join)


@seed(20182)
@settings(max_examples=300, deadline=None)
@given(_C_TEXT)
def test_lexer_matches_oracle_on_generated_text(source):
    # The preprocessor's errors are shared code; compare only past them.
    try:
        lexer.preprocess(source)
    except LexError:
        return
    _assert_same_tokens(source)


def test_combined_regex_groups_cover_every_operator():
    pattern = lexer._TOKEN_RE.pattern
    assert set(re.findall(r"\(\?P<(\w+)>", pattern)) == {
        "space", "float", "int", "ident", "op", "bad"}
    for op in lexer.OPERATORS:
        assert lexer._TOKEN_RE.fullmatch(op).lastgroup == "op"
