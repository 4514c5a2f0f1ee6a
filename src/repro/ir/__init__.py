"""LLVM-like SSA intermediate representation.

This package is the substrate the paper builds on: a typed SSA IR with the
instruction set IDL's atomic constraints name, a builder, textual
printer/parser pair and a verifier.

Typical use::

    from repro.ir import Module, Function, FunctionType, IRBuilder, types

    m = Module("demo")
    f = m.create_function("f", FunctionType(types.I32, [types.I32]))
    entry = f.append_block("entry")
    b = IRBuilder(entry)
    b.ret(f.args[0])
"""

from . import types
from .builder import IRBuilder
from .instructions import (
    BINARY_OPS,
    CAST_OPS,
    COMMUTATIVE_OPS,
    FCMP_PREDICATES,
    ICMP_PREDICATES,
    AllocaInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from .module import BasicBlock, Function, Module
from .parser import parse_module
from .printer import print_function, print_instruction, print_module
from .types import (
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    LABEL,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    IRType,
    PointerType,
    parse_type,
    ptr,
)
from .values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Use,
    User,
    Value,
    const_bool,
    const_int,
)
from .verifier import verify_function, verify_module

__all__ = [
    "types", "IRBuilder",
    "BINARY_OPS", "CAST_OPS", "COMMUTATIVE_OPS", "FCMP_PREDICATES",
    "ICMP_PREDICATES",
    "AllocaInst", "BinaryOperator", "BranchInst", "CallInst", "CastInst",
    "FCmpInst", "GEPInst", "ICmpInst", "Instruction", "LoadInst", "PhiInst",
    "RetInst", "SelectInst", "StoreInst", "UnreachableInst",
    "BasicBlock", "Function", "Module",
    "parse_module", "print_function", "print_instruction", "print_module",
    "F32", "F64", "I1", "I8", "I32", "I64", "LABEL", "VOID",
    "ArrayType", "FloatType", "FunctionType", "IntType", "IRType",
    "PointerType", "parse_type", "ptr",
    "Argument", "Constant", "ConstantFloat", "ConstantInt",
    "ConstantPointerNull", "GlobalVariable", "UndefValue", "Use", "User",
    "Value", "const_bool", "const_int",
    "verify_function", "verify_module",
]
