"""Code generation: mini-C AST → LLVM-like IR.

Classic clang-style lowering: every local lives in an entry-block alloca
and is loaded/stored on access; :mod:`repro.passes.mem2reg` later promotes
them to SSA registers, which produces the phi-based loop shapes the paper's
Figure 4 shows (and that the IDL idioms match).
"""

from __future__ import annotations

import math

from ..errors import SemanticError
from ..ir import (
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    VOID,
    ArrayType,
    BasicBlock,
    ConstantFloat,
    ConstantInt,
    FloatType,
    Function,
    FunctionType,
    GlobalVariable,
    IntType,
    IRBuilder,
    IRType,
    Module,
    PointerType,
    Value,
)
from . import cast as A

_BASE_IR_TYPES: dict[str, IRType] = {
    "void": VOID, "char": I8, "int": I32, "long": I64,
    "float": F32, "double": F64,
}

#: Math intrinsics: name -> (arity). All take/return double.
_INTRINSICS = {
    "sqrt": 1, "fabs": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "tan": 1,
    "floor": 1, "ceil": 1, "pow": 2, "fmax": 2, "fmin": 2,
}
_INT_INTRINSICS = {"abs": 1, "max": 2, "min": 2, "rand": 0}


def resolve_type(ctype: A.CType, decay: bool = False) -> IRType:
    """Resolve a syntactic C type to an IR type.

    ``decay=True`` applies parameter decay: the outermost array dimension
    becomes a pointer (``double a[]`` → ``double*``,
    ``double a[][64]`` → ``[64 x double]*``).
    """
    base = _BASE_IR_TYPES.get(ctype.base)
    if base is None:
        raise SemanticError(f"unknown type {ctype.base!r}")
    ty: IRType = base
    for _ in range(ctype.pointers):
        ty = PointerType(ty)
    dims = list(ctype.dims)
    if decay and dims:
        dims = dims[1:]
        for d in reversed(dims):
            if d < 0:
                raise SemanticError("only the first array dimension may be empty")
            ty = ArrayType(d, ty)
        return PointerType(ty)
    for d in reversed(dims):
        if d < 0:
            raise SemanticError("unsized array outside parameter position")
        ty = ArrayType(d, ty)
    return ty


def _rank(ty: IRType) -> int:
    """Numeric conversion rank for usual arithmetic conversions."""
    if isinstance(ty, FloatType):
        return 100 + ty.bits
    if isinstance(ty, IntType):
        return ty.bits
    raise SemanticError(f"non-arithmetic type {ty} in arithmetic expression")


class _Scope:
    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.symbols: dict[str, Value] = {}

    def lookup(self, name: str) -> Value | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def define(self, name: str, value: Value) -> None:
        if name in self.symbols:
            raise SemanticError(f"redefinition of {name!r}")
        self.symbols[name] = value


class CodeGen:
    """Generates IR for one translation unit."""

    def __init__(self, module_name: str = "module"):
        self.module = Module(module_name)
        self.function: Function | None = None
        self.builder = IRBuilder()
        self.scope = _Scope()
        self.loop_stack: list[tuple[BasicBlock, BasicBlock]] = []  # (step, end)
        self._terminated = False

    # -- entry point -------------------------------------------------------------
    def generate(self, unit: A.TranslationUnit) -> Module:
        for decl in unit.globals:
            self._gen_global(decl)
        # Declare all functions first so forward calls type-check.
        signatures: dict[str, FunctionType] = {}
        for fdef in unit.functions:
            ret = resolve_type(fdef.ret)
            params = tuple(resolve_type(p.ctype, decay=True) for p in fdef.params)
            sig = FunctionType(ret, params)
            prior = signatures.get(fdef.name)
            if prior is not None and prior is not sig:
                raise SemanticError(f"conflicting signatures for {fdef.name!r}")
            signatures[fdef.name] = sig
        for fdef in unit.functions:
            if fdef.name not in self.module.functions:
                self.module.create_function(
                    fdef.name, signatures[fdef.name],
                    [p.name for p in fdef.params])
        for fdef in unit.functions:
            if fdef.body is not None:
                self._gen_function(fdef)
        return self.module

    # -- globals -------------------------------------------------------------------
    def _gen_global(self, decl: A.GlobalDecl) -> None:
        ty = resolve_type(decl.ctype)
        init = None
        if decl.init is not None:
            init = _fold_constant(decl.init)
            if init is None:
                raise SemanticError(
                    f"global initializer for {decl.name!r} must be constant")
        gv = GlobalVariable(decl.name, ty, init, decl.const)
        self.module.add_global(gv)
        self.scope.define(decl.name, gv)

    # -- functions -----------------------------------------------------------------
    def _gen_function(self, fdef: A.FunctionDef) -> None:
        function = self.module.get_function(fdef.name)
        if function.blocks:
            raise SemanticError(f"redefinition of function {fdef.name!r}")
        self.function = function
        entry = function.append_block("entry")
        self.builder.position_at_end(entry)
        self._terminated = False
        self.scope = _Scope(self.scope)
        try:
            for arg in function.args:
                slot = self.builder.alloca(arg.type, name=f"{arg.name}.addr")
                self.builder.store(arg, slot)
                self.scope.define(arg.name, slot)
            self._gen_stmt(fdef.body)
            if not self._terminated:
                if function.return_type.is_void():
                    self.builder.ret()
                elif function.return_type.is_float():
                    self.builder.ret(ConstantFloat(function.return_type, 0.0))
                elif function.return_type.is_integer():
                    self.builder.ret(ConstantInt(function.return_type, 0))
                else:
                    self.builder.unreachable()
        finally:
            self.scope = self.scope.parent
            self.function = None

    # -- statements -----------------------------------------------------------------
    def _start_block(self, block: BasicBlock) -> None:
        self.builder.position_at_end(block)
        self._terminated = False

    def _branch_to(self, block: BasicBlock) -> None:
        if not self._terminated:
            self.builder.br(block)
        self._start_block(block)

    def _gen_stmt(self, stmt: A.Stmt) -> None:
        if self._terminated:
            # Unreachable code: emit into a dead block so IR stays well formed.
            dead = self.function.append_block("dead")
            self._start_block(dead)
        method = getattr(self, f"_gen_{type(stmt).__name__}", None)
        if method is None:
            raise SemanticError(f"cannot generate {type(stmt).__name__}")
        method(stmt)

    def _gen_CompoundStmt(self, stmt: A.CompoundStmt) -> None:
        self.scope = _Scope(self.scope)
        try:
            for child in stmt.body:
                self._gen_stmt(child)
        finally:
            self.scope = self.scope.parent

    def _gen_ExprStmt(self, stmt: A.ExprStmt) -> None:
        self._rvalue(stmt.expr)

    def _gen_DeclStmt(self, stmt: A.DeclStmt) -> None:
        ty = resolve_type(stmt.ctype)
        slot = self._entry_alloca(ty, stmt.name)
        self.scope.define(stmt.name, slot)
        if stmt.init is not None:
            value = self._rvalue(stmt.init)
            self.builder.store(self._coerce(value, ty), slot)

    def _entry_alloca(self, ty: IRType, name: str) -> Value:
        """Allocas go at the top of the entry block (clang style)."""
        entry = self.function.entry
        saved_block, saved_before = self.builder.block, self.builder.before
        insert_at = 0
        for i, inst in enumerate(entry.instructions):
            if inst.opcode == "alloca":
                insert_at = i + 1
            else:
                break
        if insert_at < len(entry.instructions):
            self.builder.position_before(entry.instructions[insert_at])
        else:
            self.builder.position_at_end(entry)
        slot = self.builder.alloca(ty, name=name)
        self.builder.block, self.builder.before = saved_block, saved_before
        return slot

    def _gen_ReturnStmt(self, stmt: A.ReturnStmt) -> None:
        function = self.function
        if stmt.value is None:
            if not function.return_type.is_void():
                raise SemanticError("return without value in non-void function")
            self.builder.ret()
        else:
            value = self._rvalue(stmt.value)
            self.builder.ret(self._coerce(value, function.return_type))
        self._terminated = True

    def _gen_IfStmt(self, stmt: A.IfStmt) -> None:
        cond = self._condition(stmt.cond)
        then_block = self.function.append_block("if.then")
        end_block = self.function.append_block("if.end")
        else_block = (self.function.append_block("if.else")
                      if stmt.other is not None else end_block)
        self.builder.cond_br(cond, then_block, else_block)
        self._start_block(then_block)
        self._gen_stmt(stmt.then)
        then_terminated = self._terminated
        if not then_terminated:
            self.builder.br(end_block)
        else_terminated = False
        if stmt.other is not None:
            self._start_block(else_block)
            self._gen_stmt(stmt.other)
            else_terminated = self._terminated
            if not else_terminated:
                self.builder.br(end_block)
        self._start_block(end_block)
        self._terminated = then_terminated and else_terminated and \
            stmt.other is not None
        if self._terminated:
            # Both arms returned: end block is dead, terminate it.
            self.builder.unreachable()

    def _gen_ForStmt(self, stmt: A.ForStmt) -> None:
        self.scope = _Scope(self.scope)
        try:
            if stmt.init is not None:
                self._gen_stmt(stmt.init)
            cond_block = self.function.append_block("for.cond")
            body_block = self.function.append_block("for.body")
            step_block = self.function.append_block("for.step")
            end_block = self.function.append_block("for.end")
            self._branch_to(cond_block)
            if stmt.cond is not None:
                cond = self._condition(stmt.cond)
                self.builder.cond_br(cond, body_block, end_block)
            else:
                self.builder.br(body_block)
            self._start_block(body_block)
            self.loop_stack.append((step_block, end_block))
            self._gen_stmt(stmt.body)
            self.loop_stack.pop()
            if not self._terminated:
                self.builder.br(step_block)
            self._start_block(step_block)
            if stmt.step is not None:
                self._rvalue(stmt.step)
            self.builder.br(cond_block)
            self._start_block(end_block)
        finally:
            self.scope = self.scope.parent

    def _gen_WhileStmt(self, stmt: A.WhileStmt) -> None:
        cond_block = self.function.append_block("while.cond")
        body_block = self.function.append_block("while.body")
        end_block = self.function.append_block("while.end")
        if stmt.do_while:
            self._branch_to(body_block)
        else:
            self._branch_to(cond_block)
        if not stmt.do_while:
            cond = self._condition(stmt.cond)
            self.builder.cond_br(cond, body_block, end_block)
            self._start_block(body_block)
        self.loop_stack.append((cond_block, end_block))
        self._gen_stmt(stmt.body)
        self.loop_stack.pop()
        if not self._terminated:
            self.builder.br(cond_block)
        if stmt.do_while:
            self._start_block(cond_block)
            cond = self._condition(stmt.cond)
            self.builder.cond_br(cond, body_block, end_block)
        self._start_block(end_block)

    def _gen_BreakStmt(self, stmt: A.BreakStmt) -> None:
        if not self.loop_stack:
            raise SemanticError("break outside loop")
        self.builder.br(self.loop_stack[-1][1])
        self._terminated = True

    def _gen_ContinueStmt(self, stmt: A.ContinueStmt) -> None:
        if not self.loop_stack:
            raise SemanticError("continue outside loop")
        self.builder.br(self.loop_stack[-1][0])
        self._terminated = True

    # -- expressions: lvalues ----------------------------------------------------
    def _lvalue(self, expr: A.Expr) -> Value:
        if isinstance(expr, A.NameRef):
            slot = self.scope.lookup(expr.name)
            if slot is None:
                raise SemanticError(f"use of undeclared name {expr.name!r}")
            return slot
        if isinstance(expr, A.UnaryExpr) and expr.op == "*":
            return self._rvalue(expr.operand)
        if isinstance(expr, A.IndexExpr):
            return self._index_address(expr)
        raise SemanticError(f"expression is not an lvalue: {type(expr).__name__}")

    def _index_address(self, expr: A.IndexExpr) -> Value:
        base = self._rvalue_decayed(expr.base)
        if not isinstance(base.type, PointerType):
            raise SemanticError("indexed expression is not a pointer or array")
        index = self._rvalue(expr.index)
        if not index.type.is_integer():
            raise SemanticError("array index must be an integer")
        if isinstance(base.type.pointee, ArrayType):
            zero = ConstantInt(I64, 0)
            return self.builder.gep(base, [zero, index])
        return self.builder.gep(base, [index])

    def _rvalue_decayed(self, expr: A.Expr) -> Value:
        """Evaluate; arrays decay to a pointer to their first element."""
        if isinstance(expr, (A.NameRef, A.IndexExpr)):
            addr = self._lvalue(expr)
            if isinstance(addr.type, PointerType) and \
                    isinstance(addr.type.pointee, ArrayType):
                return addr  # pointer-to-array: indexable via [0, i] gep
            return self.builder.load(addr)
        return self._rvalue(expr)

    # -- expressions: rvalues ------------------------------------------------------
    def _rvalue(self, expr: A.Expr) -> Value:
        method = getattr(self, f"_rv_{type(expr).__name__}", None)
        if method is None:
            raise SemanticError(f"cannot evaluate {type(expr).__name__}")
        return method(expr)

    def _rv_IntLiteral(self, expr: A.IntLiteral) -> Value:
        ty = I32 if -(2**31) <= expr.value < 2**31 else I64
        return ConstantInt(ty, expr.value)

    def _rv_FloatLiteral(self, expr: A.FloatLiteral) -> Value:
        return ConstantFloat(F32 if expr.is_single else F64, expr.value)

    def _rv_NameRef(self, expr: A.NameRef) -> Value:
        addr = self._lvalue(expr)
        if isinstance(addr.type, PointerType) and \
                isinstance(addr.type.pointee, ArrayType):
            zero = ConstantInt(I64, 0)
            return self.builder.gep(addr, [zero, zero])
        return self.builder.load(addr, name=expr.name)

    def _rv_IndexExpr(self, expr: A.IndexExpr) -> Value:
        addr = self._index_address(expr)
        if isinstance(addr.type.pointee, ArrayType):
            zero = ConstantInt(I64, 0)
            return self.builder.gep(addr, [zero, zero])
        return self.builder.load(addr)

    def _rv_UnaryExpr(self, expr: A.UnaryExpr) -> Value:
        if expr.op == "&":
            return self._lvalue(expr.operand)
        if expr.op == "*":
            pointer = self._rvalue(expr.operand)
            if not isinstance(pointer.type, PointerType):
                raise SemanticError("cannot dereference non-pointer")
            return self.builder.load(pointer)
        if expr.op == "-":
            value = self._rvalue(expr.operand)
            if value.type.is_float():
                return self.builder.fsub(ConstantFloat(value.type, 0.0), value)
            return self.builder.sub(ConstantInt(value.type, 0), value)
        if expr.op == "!":
            cond = self._condition(expr.operand)
            as_int = self.builder.zext(cond, I32)
            return self.builder.icmp("eq", as_int, ConstantInt(I32, 0))
        if expr.op == "~":
            value = self._rvalue(expr.operand)
            return self.builder.binop("xor", value,
                                      ConstantInt(value.type, -1))
        raise SemanticError(f"unsupported unary operator {expr.op!r}")

    def _rv_IncDecExpr(self, expr: A.IncDecExpr) -> Value:
        addr = self._lvalue(expr.operand)
        old = self.builder.load(addr)
        one: Value
        if old.type.is_float():
            one = ConstantFloat(old.type, 1.0)
            op = "fadd" if expr.op == "++" else "fsub"
        else:
            one = ConstantInt(old.type, 1)
            op = "add" if expr.op == "++" else "sub"
        new = self.builder.binop(op, old, one)
        self.builder.store(new, addr)
        return new if expr.prefix else old

    def _rv_AssignExpr(self, expr: A.AssignExpr) -> Value:
        addr = self._lvalue(expr.target)
        if not isinstance(addr.type, PointerType):
            raise SemanticError("assignment target is not addressable")
        target_ty = addr.type.pointee
        if expr.op == "=":
            value = self._coerce(self._rvalue(expr.value), target_ty)
            self.builder.store(value, addr)
            return value
        old = self.builder.load(addr)
        rhs = self._rvalue(expr.value)
        base_op = expr.op[:-1]
        result = self._arith(base_op, old, rhs)
        result = self._coerce(result, target_ty)
        self.builder.store(result, addr)
        return result

    def _rv_BinaryExpr(self, expr: A.BinaryExpr) -> Value:
        if expr.op in _SHORT_CIRCUIT:
            return self._short_circuit(expr)
        # Walk the left spine iteratively: a left-associative chain
        # (``x+x+...+x``) is as deep as it is long, and the parser does
        # not bound its length.
        spine = _left_spine(expr, lambda op: op not in _SHORT_CIRCUIT)
        value = self._rvalue(spine[-1].lhs)
        for node in reversed(spine):
            rhs = self._rvalue(node.rhs)
            if node.op == ",":
                value = rhs
            elif node.op in _COMPARISONS:
                value = self._comparison(node.op, value, rhs)
            else:
                value = self._arith(node.op, value, rhs)
        return value

    def _arith(self, op: str, lhs: Value, rhs: Value) -> Value:
        # Pointer arithmetic.
        if isinstance(lhs.type, PointerType) and rhs.type.is_integer():
            if op == "+":
                return self.builder.gep(lhs, [rhs])
            if op == "-":
                neg = self.builder.sub(ConstantInt(rhs.type, 0), rhs)
                return self.builder.gep(lhs, [neg])
            raise SemanticError(f"invalid pointer operation {op!r}")
        if isinstance(rhs.type, PointerType) and lhs.type.is_integer() and op == "+":
            return self.builder.gep(rhs, [lhs])
        lhs, rhs = self._usual_conversions(lhs, rhs)
        is_float = lhs.type.is_float()
        table = {
            "+": "fadd" if is_float else "add",
            "-": "fsub" if is_float else "sub",
            "*": "fmul" if is_float else "mul",
            "/": "fdiv" if is_float else "sdiv",
            "%": "srem",
            "<<": "shl", ">>": "ashr",
            "&": "and", "|": "or", "^": "xor",
        }
        opcode = table.get(op)
        if opcode is None:
            raise SemanticError(f"unsupported binary operator {op!r}")
        if is_float and op in ("%", "<<", ">>", "&", "|", "^"):
            raise SemanticError(f"operator {op!r} requires integer operands")
        return self.builder.binop(opcode, lhs, rhs)

    def _comparison(self, op: str, lhs: Value, rhs: Value) -> Value:
        if isinstance(lhs.type, PointerType) or isinstance(rhs.type, PointerType):
            raise SemanticError("pointer comparison is not supported")
        lhs, rhs = self._usual_conversions(lhs, rhs)
        if lhs.type.is_float():
            pred = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole",
                    ">": "ogt", ">=": "oge"}[op]
            return self.builder.fcmp(pred, lhs, rhs)
        pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                ">": "sgt", ">=": "sge"}[op]
        return self.builder.icmp(pred, lhs, rhs)

    def _short_circuit(self, expr: A.BinaryExpr) -> Value:
        # One block pair per operand along the left spine, as in
        # ``_rv_BinaryExpr``: a long ``&&``/``||`` chain costs no stack.
        from ..ir import const_bool

        spine = _left_spine(expr, _SHORT_CIRCUIT.__contains__)
        cond = self._condition(spine[-1].lhs)
        for node in reversed(spine):
            lhs_block = self.builder.block
            rhs_block = self.function.append_block("sc.rhs")
            end_block = self.function.append_block("sc.end")
            if node.op == "&&":
                self.builder.cond_br(cond, rhs_block, end_block)
            else:
                self.builder.cond_br(cond, end_block, rhs_block)
            self._start_block(rhs_block)
            rhs_cond = self._condition(node.rhs)
            rhs_exit = self.builder.block
            self.builder.br(end_block)
            self._start_block(end_block)
            cond = self.builder.phi(I1, name="sc")
            cond.add_incoming(const_bool(node.op == "||"), lhs_block)
            cond.add_incoming(rhs_cond, rhs_exit)
        return cond

    def _rv_ConditionalExpr(self, expr: A.ConditionalExpr) -> Value:
        if _is_pure(expr.then) and _is_pure(expr.other):
            cond = self._condition(expr.cond)
            tval = self._rvalue(expr.then)
            fval = self._rvalue(expr.other)
            tval, fval = self._usual_conversions(tval, fval)
            return self.builder.select(cond, tval, fval)
        cond = self._condition(expr.cond)
        then_block = self.function.append_block("cond.then")
        else_block = self.function.append_block("cond.else")
        end_block = self.function.append_block("cond.end")
        self.builder.cond_br(cond, then_block, else_block)
        self._start_block(then_block)
        tval = self._rvalue(expr.then)
        then_exit = self.builder.block
        self._start_block(else_block)
        fval = self._rvalue(expr.other)
        else_exit = self.builder.block
        # Unify types before the phi (conversions go in the arms).
        target = tval.type
        if _rank(fval.type) > _rank(tval.type):
            target = fval.type
        self.builder.position_at_end(then_exit)
        tval = self._coerce(tval, target)
        self.builder.br(end_block)
        self.builder.position_at_end(else_exit)
        fval = self._coerce(fval, target)
        self.builder.br(end_block)
        self._start_block(end_block)
        phi = self.builder.phi(target, name="cond")
        phi.add_incoming(tval, then_exit)
        phi.add_incoming(fval, else_exit)
        return phi

    def _rv_CastExpr(self, expr: A.CastExpr) -> Value:
        value = self._rvalue(expr.operand)
        return self._coerce(value, resolve_type(expr.ctype))

    def _rv_CallExpr(self, expr: A.CallExpr) -> Value:
        name = expr.callee
        if name in _INTRINSICS:
            arity = _INTRINSICS[name]
            if len(expr.args) != arity:
                raise SemanticError(f"{name} expects {arity} argument(s)")
            args = [self._coerce(self._rvalue(a), F64) for a in expr.args]
            return self.builder.call(name, args, F64)
        if name in _INT_INTRINSICS:
            arity = _INT_INTRINSICS[name]
            if len(expr.args) != arity:
                raise SemanticError(f"{name} expects {arity} argument(s)")
            args = [self._coerce(self._rvalue(a), I32) for a in expr.args]
            return self.builder.call(name, args, I32)
        callee = self.module.functions.get(name)
        if callee is None:
            raise SemanticError(f"call to undeclared function {name!r}")
        params = callee.type.params
        if len(expr.args) != len(params):
            raise SemanticError(
                f"{name} expects {len(params)} argument(s), got {len(expr.args)}")
        args = []
        for arg_expr, pty in zip(expr.args, params):
            value = self._rvalue_decayed(arg_expr)
            if isinstance(value.type, PointerType) and \
                    isinstance(value.type.pointee, ArrayType) and \
                    isinstance(pty, PointerType) and \
                    not isinstance(pty.pointee, ArrayType):
                zero = ConstantInt(I64, 0)
                value = self.builder.gep(value, [zero, zero])
            args.append(self._coerce(value, pty))
        return self.builder.call(name, args, callee.return_type)

    # -- helpers --------------------------------------------------------------------
    def _condition(self, expr: A.Expr) -> Value:
        """Evaluate as an i1 truth value."""
        value = self._rvalue(expr)
        if value.type is I1:
            return value
        if value.type.is_integer():
            return self.builder.icmp("ne", value,
                                     ConstantInt(value.type, 0))
        if value.type.is_float():
            return self.builder.fcmp("une", value,
                                     ConstantFloat(value.type, 0.0))
        raise SemanticError(f"cannot convert {value.type} to boolean")

    def _usual_conversions(self, lhs: Value, rhs: Value) -> tuple[Value, Value]:
        if lhs.type is rhs.type:
            return lhs, rhs
        if _rank(lhs.type) < _rank(rhs.type):
            return self._coerce(lhs, rhs.type), rhs
        return lhs, self._coerce(rhs, lhs.type)

    def _coerce(self, value: Value, ty: IRType) -> Value:
        if value.type is ty:
            return value
        # Fold constant conversions immediately (clang does too).
        if isinstance(value, ConstantInt):
            if isinstance(ty, IntType):
                return ConstantInt(ty, value.value)
            if isinstance(ty, FloatType):
                return ConstantFloat(ty, float(value.value))
        if isinstance(value, ConstantFloat):
            if isinstance(ty, FloatType):
                return ConstantFloat(ty, value.value)
            if isinstance(ty, IntType):
                return ConstantInt(ty, int(value.value))
        return self.builder.coerce(value, ty)


_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))
_SHORT_CIRCUIT = frozenset(("&&", "||"))


def _left_spine(expr: A.BinaryExpr, follow=lambda op: True) -> list:
    """``expr`` and its chain of left operands that are binary
    expressions (outermost first), ending before any whose operator
    ``follow`` rejects."""
    spine = [expr]
    while isinstance(spine[-1].lhs, A.BinaryExpr) and \
            follow(spine[-1].lhs.op):
        spine.append(spine[-1].lhs)
    return spine


def _is_pure(expr: A.Expr) -> bool:
    """Side-effect-free expressions may be evaluated eagerly for select."""
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, (A.IntLiteral, A.FloatLiteral, A.NameRef)):
            continue
        if isinstance(node, A.UnaryExpr):
            if node.op not in ("-", "!", "~", "*"):
                return False
            pending.append(node.operand)
        elif isinstance(node, A.BinaryExpr):
            if node.op in ("&&", "||", ","):
                return False
            pending += (node.lhs, node.rhs)
        elif isinstance(node, A.IndexExpr):
            pending += (node.base, node.index)
        elif isinstance(node, A.CastExpr):
            pending.append(node.operand)
        else:
            return False
    return True


_FOLDS = {
    "+": lambda lhs, rhs: lhs + rhs,
    "-": lambda lhs, rhs: lhs - rhs,
    "*": lambda lhs, rhs: lhs * rhs,
    "/": lambda lhs, rhs: lhs / rhs if isinstance(lhs, float) or
    isinstance(rhs, float) else lhs // rhs,
}


def _fold_constant(expr: A.Expr):
    """Fold a global initializer to a python scalar."""
    if isinstance(expr, A.IntLiteral):
        return expr.value
    if isinstance(expr, A.FloatLiteral):
        return expr.value
    if isinstance(expr, A.UnaryExpr) and expr.op == "-":
        inner = _fold_constant(expr.operand)
        return -inner if inner is not None else None
    if isinstance(expr, A.BinaryExpr):
        # Iterative over the left spine, as in ``_rv_BinaryExpr``.
        spine = _left_spine(expr)
        value = _fold_constant(spine[-1].lhs)
        for node in reversed(spine):
            rhs = _fold_constant(node.rhs)
            if value is None or rhs is None or node.op not in _FOLDS:
                return None
            try:
                value = _FOLDS[node.op](value, rhs)
            except ZeroDivisionError:
                return None
        return value
    return None
