"""Unit tests for the IR substrate: types, values, instructions, parsing."""

import pytest

from repro.errors import IRError, VerificationError
from repro.ir import (
    F32,
    F64,
    I1,
    I32,
    I64,
    ArrayType,
    BasicBlock,
    BinaryOperator,
    BranchInst,
    ConstantFloat,
    ConstantInt,
    Function,
    FunctionType,
    GEPInst,
    ICmpInst,
    IntType,
    IRBuilder,
    LoadInst,
    Module,
    PhiInst,
    PointerType,
    RetInst,
    StoreInst,
    parse_module,
    parse_type,
    print_module,
    ptr,
    verify_module,
)
from repro.ir.types import MAX_TYPE_DEPTH


class TestTypes:
    def test_interning(self):
        assert IntType(32) is I32
        assert PointerType(F64) is PointerType(F64)
        assert ArrayType(4, F32) is ArrayType(4, F32)

    def test_type_strings(self):
        assert str(I32) == "i32"
        assert str(ptr(F64)) == "double*"
        assert str(ArrayType(4, ArrayType(8, F32))) == "[4 x [8 x float]]"

    def test_parse_type_roundtrip(self):
        for ty in (I1, I32, I64, F32, F64, ptr(F64), ptr(ptr(I32)),
                   ArrayType(3, ArrayType(5, F64)), ptr(ArrayType(7, I32))):
            assert parse_type(str(ty)) is ty

    def test_invalid_types(self):
        with pytest.raises(IRError):
            IntType(0)
        with pytest.raises(IRError):
            parse_type("banana")

    def test_deep_array_type_is_an_ir_error(self):
        def nested(depth):
            return "[2 x " * depth + "i32" + "]" * depth

        assert str(parse_type(nested(MAX_TYPE_DEPTH))) == \
            nested(MAX_TYPE_DEPTH)
        for depth in (MAX_TYPE_DEPTH + 1, 3000):
            with pytest.raises(IRError, match="nested deeper"):
                parse_type(nested(depth))

    def test_int_bounds(self):
        assert I32.min_value() == -(2**31)
        assert I32.max_value() == 2**31 - 1
        assert I1.min_value() == 0


class TestConstants:
    def test_int_wrapping(self):
        assert ConstantInt(I32, 2**31).value == -(2**31)
        assert ConstantInt(I32, -1).value == -1
        assert ConstantInt(I1, 3).value == 1

    def test_equality(self):
        assert ConstantInt(I32, 5) == ConstantInt(I32, 5)
        assert ConstantInt(I32, 5) != ConstantInt(I64, 5)
        assert ConstantFloat(F64, 0.5) == ConstantFloat(F64, 0.5)


class TestUseLists:
    def test_operand_tracking(self):
        a = ConstantInt(I32, 1)
        b = ConstantInt(I32, 2)
        add = BinaryOperator("add", a, b)
        assert add.lhs is a and add.rhs is b
        assert any(u.user is add for u in a.uses)

    def test_replace_all_uses(self):
        m = Module()
        f = m.create_function("f", FunctionType(I32, [I32, I32]))
        bb = f.append_block("entry")
        b = IRBuilder(bb)
        add = b.add(f.args[0], f.args[1])
        mul = b.mul(add, f.args[0])
        b.ret(mul)
        add.replace_all_uses_with(f.args[1])
        assert mul.lhs is f.args[1]
        assert not add.uses

    def test_erase_with_uses_fails(self):
        m = Module()
        f = m.create_function("f", FunctionType(I32, [I32]))
        bb = f.append_block("entry")
        b = IRBuilder(bb)
        add = b.add(f.args[0], f.args[0])
        b.ret(add)
        with pytest.raises(IRError):
            add.erase_from_parent()


class TestInstructions:
    def test_type_mismatch_rejected(self):
        with pytest.raises(IRError):
            BinaryOperator("add", ConstantInt(I32, 1), ConstantInt(I64, 1))
        with pytest.raises(IRError):
            BinaryOperator("fadd", ConstantInt(I32, 1), ConstantInt(I32, 1))

    def test_icmp_type(self):
        cmp = ICmpInst("slt", ConstantInt(I32, 1), ConstantInt(I32, 2))
        assert cmp.type is I1

    def test_store_type_check(self):
        m = Module()
        f = m.create_function("f", FunctionType(F64, [ptr(F64)]))
        bb = f.append_block("entry")
        b = IRBuilder(bb)
        with pytest.raises(IRError):
            StoreInst(ConstantInt(I32, 1), f.args[0])

    def test_gep_result_type(self):
        m = Module()
        arr = ArrayType(8, ArrayType(4, F64))
        f = m.create_function("f", FunctionType(F64, [ptr(arr)]))
        bb = f.append_block("entry")
        b = IRBuilder(bb)
        zero = ConstantInt(I64, 0)
        g1 = b.gep(f.args[0], [zero, zero])
        assert g1.type is ptr(ArrayType(4, F64))
        g2 = b.gep(g1, [zero, zero])
        assert g2.type is ptr(F64)

    def test_phi_incoming(self):
        m = Module()
        f = m.create_function("f", FunctionType(I32, [I32]))
        b0 = f.append_block("a")
        b1 = f.append_block("b")
        IRBuilder(b0).br(b1)
        phi = PhiInst(I32)
        phi.add_incoming(f.args[0], b0)
        assert phi.incoming_value_for(b0) is f.args[0]
        with pytest.raises(IRError):
            phi.incoming_value_for(b1)

    def test_branch_targets(self):
        m = Module()
        f = m.create_function("f", FunctionType(I32, []))
        b0, b1, b2 = (f.append_block(n) for n in "abc")
        cond = ConstantInt(I1, 1)
        br = BranchInst(cond, b1, b2)
        assert br.is_conditional()
        assert br.targets() == [b1, b2]


EXAMPLE = """
define i32 @example(i32 %a, i32 %b, i32 %c) {
entry:
  %1 = mul i32 %a, %b
  %2 = mul i32 %c, %a
  %3 = add i32 %1, %2
  ret i32 %3
}
"""


class TestParserPrinter:
    def test_roundtrip_example(self):
        m1 = parse_module(EXAMPLE)
        verify_module(m1)
        text = print_module(m1)
        m2 = parse_module(text)
        verify_module(m2)
        assert print_module(m2) == text

    def test_forward_references(self):
        text = """
define i32 @loop(i32 %n) {
entry:
  br label %hdr
hdr:
  %i = phi i32 [ 0, %entry ], [ %next, %hdr2 ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %hdr2, label %done
hdr2:
  %next = add i32 %i, 1
  br label %hdr
done:
  ret i32 %i
}
"""
        m = parse_module(text)
        verify_module(m)
        f = m.get_function("loop")
        assert len(f.blocks) == 4

    def test_undefined_value_rejected(self):
        with pytest.raises(IRError):
            parse_module("""
define i32 @f() {
entry:
  ret i32 %nope
}
""")

    def test_globals(self):
        m = parse_module("@g = global [4 x double]\n" + EXAMPLE)
        assert "g" in m.globals
        assert m.globals["g"].value_type is ArrayType(4, F64)


class TestVerifier:
    def test_missing_terminator(self):
        m = Module()
        f = m.create_function("f", FunctionType(I32, [I32]))
        bb = f.append_block("entry")
        IRBuilder(bb).add(f.args[0], f.args[0])
        with pytest.raises(VerificationError):
            verify_module(m)

    def test_use_before_def_rejected(self):
        m = Module()
        f = m.create_function("f", FunctionType(I32, [I32]))
        bb = f.append_block("entry")
        b = IRBuilder(bb)
        a1 = b.add(f.args[0], f.args[0])
        a2 = b.add(a1, f.args[0])
        b.ret(a2)
        # Manually break def-before-use ordering.
        bb.remove(a1)
        bb.insert(1, a1)
        with pytest.raises(VerificationError):
            verify_module(m)
