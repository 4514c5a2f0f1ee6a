"""Parser for the textual IR format produced by :mod:`.printer`.

Round-tripping (``parse(print(m)) == m`` structurally) is property-tested.
The parser is line-oriented: one instruction per line, blocks introduced by
``name:`` labels, functions by ``define``/``declare`` headers.

Forward references (branches to later blocks, phis over later values) are
resolved with placeholder values that are patched after the function body
has been read.
"""

from __future__ import annotations

import re

from ..errors import IRError
from .instructions import (
    BINARY_OPS,
    CAST_OPS,
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
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from .module import BasicBlock, Function, Module
from .types import FunctionType, IRType, IntType, FloatType, PointerType, parse_type
from .values import (
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
)

_DEFINE_RE = re.compile(
    r"^(define|declare)\s+(?P<ret>.+?)\s+@(?P<name>[\w.$-]+)\s*\((?P<params>.*)\)\s*(\{)?\s*$")
_LABEL_RE = re.compile(r"^([\w.$-]+):$")
_GLOBAL_RE = re.compile(
    r"^@(?P<name>[\w.$-]+)\s*=\s*(?P<kind>global|constant)\s+(?P<type>.+)$")


class _Placeholder(Value):
    """Stands in for a not-yet-defined local value during parsing."""

    def __init__(self, ty: IRType, name: str):
        super().__init__(ty, name)


class _FunctionParser:
    def __init__(self, module: Module, function: Function):
        self.module = module
        self.function = function
        self.values: dict[str, Value] = {f"%{a.name}": a for a in function.args}
        self.blocks: dict[str, BasicBlock] = {}
        self.placeholders: dict[str, _Placeholder] = {}
        self.current: BasicBlock | None = None

    # -- scaffolding ------------------------------------------------------------
    def get_block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name, self.function)
            self.blocks[name] = block
        return block

    def define(self, name: str, value: Value) -> None:
        key = f"%{name}"
        if key in self.values and not isinstance(self.values[key], _Placeholder):
            raise IRError(f"redefinition of {key}")
        self.values[key] = value

    def operand(self, text: str, ty: IRType) -> Value:
        """Resolve an operand reference of a known type."""
        text = text.strip()
        if text.startswith("%"):
            existing = self.values.get(text)
            if existing is not None:
                return existing
            ph = self.placeholders.get(text)
            if ph is None:
                ph = _Placeholder(ty, text[1:])
                self.placeholders[text] = ph
            return ph
        if text.startswith("@"):
            gv = self.module.globals.get(text[1:])
            if gv is None:
                raise IRError(f"unknown global {text}")
            return gv
        if text == "undef":
            return UndefValue(ty)
        if text == "null":
            if not isinstance(ty, PointerType):
                raise IRError("null requires pointer type")
            return ConstantPointerNull(ty)
        if text == "true":
            return ConstantInt(IntType(1), 1)
        if text == "false":
            return ConstantInt(IntType(1), 0)
        if isinstance(ty, IntType):
            return ConstantInt(ty, int(text, 0))
        if isinstance(ty, FloatType):
            return ConstantFloat(ty, float(text))
        raise IRError(f"cannot parse operand {text!r} of type {ty}")

    def finish(self) -> None:
        """Patch placeholders and attach blocks in definition order."""
        for key, ph in self.placeholders.items():
            real = self.values.get(key)
            if real is None or isinstance(real, _Placeholder):
                raise IRError(f"undefined value {key} in @{self.function.name}")
            ph.replace_all_uses_with(real)

    # -- per-line parsing ----------------------------------------------------------
    def parse_line(self, line: str) -> None:
        label = _LABEL_RE.match(line)
        if label:
            block = self.get_block(label.group(1))
            if block in self.function.blocks:
                raise IRError(f"duplicate block {label.group(1)}")
            self.function.blocks.append(block)
            self.current = block
            return
        if self.current is None:
            raise IRError(f"instruction outside block: {line!r}")
        inst, name = self._parse_instruction(line)
        if name is not None:
            inst.name = name
            self.define(name, inst)
        self.current.append(inst)

    def _parse_instruction(self, line: str):
        name = None
        if "=" in line and not line.startswith(("store", "br", "ret", "call")):
            lhs, line = line.split("=", 1)
            lhs = lhs.strip()
            if not lhs.startswith("%"):
                raise IRError(f"bad assignment target {lhs!r}")
            name = lhs[1:]
            line = line.strip()
        parts = line.split(None, 1)
        op = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if op in BINARY_OPS:
            return self._parse_binop(op, rest), name
        if op == "icmp":
            return self._parse_cmp(rest, ICMP_PREDICATES, ICmpInst), name
        if op == "fcmp":
            return self._parse_cmp(rest, FCMP_PREDICATES, FCmpInst), name
        if op == "alloca":
            return AllocaInst(parse_type(rest)), name
        if op == "load":
            return self._parse_load(rest), name
        if op == "store":
            return self._parse_store(rest), name
        if op == "gep":
            return self._parse_gep(rest), name
        if op == "br":
            return self._parse_br(rest), name
        if op == "ret":
            return self._parse_ret(rest), name
        if op == "unreachable":
            return UnreachableInst(), name
        if op == "phi":
            return self._parse_phi(rest), name
        if op == "select":
            return self._parse_select(rest), name
        if op in CAST_OPS:
            return self._parse_cast(op, rest), name
        if op == "call":
            return self._parse_call(rest), name
        raise IRError(f"unknown instruction {line!r}")

    def _split_typed(self, text: str) -> tuple[IRType, str]:
        """Split ``"double* %p"`` into (type, operand-text)."""
        text = text.strip()
        idx = text.rfind(" ")
        if idx < 0:
            raise IRError(f"expected 'type value', got {text!r}")
        return parse_type(text[:idx]), text[idx + 1:]

    def _parse_binop(self, op: str, rest: str):
        ty_text, operands = rest.split(None, 1)
        # Type may contain spaces only for arrays, which binops never use.
        ty = parse_type(ty_text)
        lhs_text, rhs_text = _split_top_commas(operands, 2)
        lhs = self.operand(lhs_text, ty)
        rhs = self.operand(rhs_text, ty)
        return BinaryOperator(op, lhs, rhs)

    def _parse_cmp(self, rest: str, predicates, cls):
        pred, rest = rest.split(None, 1)
        if pred not in predicates:
            raise IRError(f"unknown predicate {pred!r}")
        ty_text, operands = rest.split(None, 1)
        ty = parse_type(ty_text)
        lhs_text, rhs_text = _split_top_commas(operands, 2)
        return cls(pred, self.operand(lhs_text, ty), self.operand(rhs_text, ty))

    def _parse_load(self, rest: str):
        val_ty_text, ptr_part = _split_top_commas(rest, 2)
        parse_type(val_ty_text)  # validated, value type is implied by pointer
        ptr_ty, ptr_text = self._split_typed(ptr_part)
        return LoadInst(self.operand(ptr_text, ptr_ty))

    def _parse_store(self, rest: str):
        val_part, ptr_part = _split_top_commas(rest, 2)
        val_ty, val_text = self._split_typed(val_part)
        ptr_ty, ptr_text = self._split_typed(ptr_part)
        return StoreInst(self.operand(val_text, val_ty),
                         self.operand(ptr_text, ptr_ty))

    def _parse_gep(self, rest: str):
        parts = _split_top_commas(rest)
        ptr_ty, ptr_text = self._split_typed(parts[0])
        pointer = self.operand(ptr_text, ptr_ty)
        indices = []
        for part in parts[1:]:
            idx_ty, idx_text = self._split_typed(part)
            indices.append(self.operand(idx_text, idx_ty))
        return GEPInst(pointer, indices)

    def _parse_br(self, rest: str):
        parts = _split_top_commas(rest)
        if len(parts) == 1:
            label = parts[0].split()
            if label[0] != "label":
                raise IRError(f"bad branch {rest!r}")
            return BranchInst(self.get_block(label[1].lstrip("%")))
        if len(parts) == 3:
            cond_ty, cond_text = self._split_typed(parts[0])
            cond = self.operand(cond_text, cond_ty)
            then_name = parts[1].split()[1].lstrip("%")
            else_name = parts[2].split()[1].lstrip("%")
            return BranchInst(cond, self.get_block(then_name),
                              self.get_block(else_name))
        raise IRError(f"bad branch {rest!r}")

    def _parse_ret(self, rest: str):
        rest = rest.strip()
        if rest == "void":
            return RetInst()
        ty, text = self._split_typed(rest)
        return RetInst(self.operand(text, ty))

    def _parse_phi(self, rest: str):
        ty_text, arms_text = rest.split(None, 1)
        ty = parse_type(ty_text)
        phi = PhiInst(ty)
        for arm in re.finditer(r"\[\s*([^,\]]+)\s*,\s*%([\w.$-]+)\s*\]", arms_text):
            value = self.operand(arm.group(1).strip(), ty)
            block = self.get_block(arm.group(2))
            phi.add_incoming(value, block)
        if not phi.incoming:
            raise IRError(f"phi with no incoming arms: {rest!r}")
        return phi

    def _parse_select(self, rest: str):
        parts = _split_top_commas(rest, 3)
        cond_ty, cond_text = self._split_typed(parts[0])
        tty, ttext = self._split_typed(parts[1])
        fty, ftext = self._split_typed(parts[2])
        return SelectInst(self.operand(cond_text, cond_ty),
                          self.operand(ttext, tty),
                          self.operand(ftext, fty))

    def _parse_cast(self, op: str, rest: str):
        src_part, dest_part = rest.rsplit(" to ", 1)
        src_ty, src_text = self._split_typed(src_part)
        return CastInst(op, self.operand(src_text, src_ty),
                        parse_type(dest_part))

    def _parse_call(self, rest: str):
        match = re.match(r"^(?P<ret>.+?)\s+@(?P<callee>[\w.$-]+)\((?P<args>.*)\)$",
                         rest.strip())
        if not match:
            raise IRError(f"bad call {rest!r}")
        ret = parse_type(match.group("ret"))
        args = []
        args_text = match.group("args").strip()
        if args_text:
            for part in _split_top_commas(args_text):
                ty, text = self._split_typed(part)
                args.append(self.operand(text, ty))
        return CallInst(match.group("callee"), args, ret)


def _split_top_commas(text: str, expected: int | None = None) -> list[str]:
    """Split on commas not inside brackets/parens."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current).strip())
    if expected is not None and len(parts) != expected:
        raise IRError(f"expected {expected} comma-separated parts in {text!r}")
    return parts


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a whole module from its textual form."""
    module = Module(name)
    lines = [_strip_comment(line) for line in text.splitlines()]
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        gmatch = _GLOBAL_RE.match(line)
        if gmatch:
            module.add_global(GlobalVariable(
                gmatch.group("name"), parse_type(gmatch.group("type")),
                constant=gmatch.group("kind") == "constant"))
            i += 1
            continue
        dmatch = _DEFINE_RE.match(line)
        if dmatch:
            i = _parse_function(module, lines, i, dmatch)
            continue
        raise IRError(f"unexpected top-level line: {line!r}")
    return module


def _strip_comment(line: str) -> str:
    idx = line.find(";")
    return line[:idx] if idx >= 0 else line


def _parse_function(module: Module, lines: list[str], i: int, match) -> int:
    ret = parse_type(match.group("ret"))
    params_text = match.group("params").strip()
    param_types: list[IRType] = []
    param_names: list[str] = []
    if params_text:
        for part in _split_top_commas(params_text):
            ty, text = part.rsplit(" ", 1) if " " in part else (part, "")
            param_types.append(parse_type(ty))
            param_names.append(text.lstrip("%") or f"arg{len(param_names)}")
    function = module.create_function(
        match.group("name"), FunctionType(ret, param_types), param_names)
    if match.group(1) == "declare":
        return i + 1
    fparser = _FunctionParser(module, function)
    i += 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "}":
            fparser.finish()
            return i
        fparser.parse_line(line)
    raise IRError(f"unterminated function @{function.name}")
