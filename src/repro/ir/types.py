"""Type system for the LLVM-like IR.

Types are interned: constructing the same type twice yields the same object,
so identity comparison (``is``) works and types are hashable dictionary keys.
The set of types mirrors what the paper's IDL atoms can observe: integers,
floats, pointers (plus void/array/function types needed to build programs).
"""

from __future__ import annotations

from ..errors import IRError


class IRType:
    """Base class for all IR types."""

    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    def is_first_class(self) -> bool:
        """True for types a register value may have."""
        return not (self.is_void() or self.is_function())

    def __repr__(self) -> str:
        return f"<IRType {self}>"


class VoidType(IRType):
    _instance: "VoidType | None" = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"


class LabelType(IRType):
    """The type of basic-block labels (only used by branch operands)."""

    _instance: "LabelType | None" = None

    def __new__(cls) -> "LabelType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "label"


class IntType(IRType):
    """An integer type of a fixed bit width (i1, i8, i32, i64...)."""

    _cache: dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        if bits <= 0:
            raise IRError(f"invalid integer width: {bits}")
        inst = cls._cache.get(bits)
        if inst is None:
            inst = super().__new__(cls)
            inst._bits = bits
            cls._cache[bits] = inst
        return inst

    @property
    def bits(self) -> int:
        return self._bits

    def min_value(self) -> int:
        return -(1 << (self._bits - 1)) if self._bits > 1 else 0

    def max_value(self) -> int:
        return (1 << (self._bits - 1)) - 1 if self._bits > 1 else 1

    def __str__(self) -> str:
        return f"i{self._bits}"


class FloatType(IRType):
    """An IEEE floating point type: 32-bit ``float`` or 64-bit ``double``."""

    _cache: dict[int, "FloatType"] = {}

    def __new__(cls, bits: int) -> "FloatType":
        if bits not in (32, 64):
            raise IRError(f"invalid float width: {bits}")
        inst = cls._cache.get(bits)
        if inst is None:
            inst = super().__new__(cls)
            inst._bits = bits
            cls._cache[bits] = inst
        return inst

    @property
    def bits(self) -> int:
        return self._bits

    def __str__(self) -> str:
        return "float" if self._bits == 32 else "double"


class PointerType(IRType):
    """A typed pointer (``<pointee>*``)."""

    _cache: dict[IRType, "PointerType"] = {}

    def __new__(cls, pointee: IRType) -> "PointerType":
        inst = cls._cache.get(pointee)
        if inst is None:
            if pointee.is_void():
                raise IRError("pointer to void is not allowed; use i8*")
            inst = super().__new__(cls)
            inst._pointee = pointee
            cls._cache[pointee] = inst
        return inst

    @property
    def pointee(self) -> IRType:
        return self._pointee

    def __str__(self) -> str:
        return f"{self._pointee}*"


class ArrayType(IRType):
    """A fixed-length array ``[N x T]`` used by globals and allocas."""

    _cache: dict[tuple[int, IRType], "ArrayType"] = {}

    def __new__(cls, count: int, element: IRType) -> "ArrayType":
        key = (count, element)
        inst = cls._cache.get(key)
        if inst is None:
            if count < 0:
                raise IRError(f"invalid array length: {count}")
            inst = super().__new__(cls)
            inst._count = count
            inst._element = element
            cls._cache[key] = inst
        return inst

    @property
    def count(self) -> int:
        return self._count

    @property
    def element(self) -> IRType:
        return self._element

    def base_element(self) -> IRType:
        """The scalar element type after peeling all array dimensions."""
        ty: IRType = self
        while isinstance(ty, ArrayType):
            ty = ty.element
        return ty

    def __str__(self) -> str:
        return f"[{self._count} x {self._element}]"


class FunctionType(IRType):
    """A function signature ``ret(params...)``."""

    _cache: dict[tuple, "FunctionType"] = {}

    def __new__(cls, ret: IRType, params: tuple[IRType, ...] | list) -> "FunctionType":
        params = tuple(params)
        key = (ret, params)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst._ret = ret
            inst._params = params
            cls._cache[key] = inst
        return inst

    @property
    def ret(self) -> IRType:
        return self._ret

    @property
    def params(self) -> tuple[IRType, ...]:
        return self._params

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self._params)
        return f"{self._ret} ({params})"


# Commonly used singletons.
VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def ptr(ty: IRType) -> PointerType:
    """Shorthand for :class:`PointerType`."""
    return PointerType(ty)


#: Deepest array nesting :func:`parse_type` accepts; deeper text raises
#: IRError instead of exhausting the interpreter stack.
MAX_TYPE_DEPTH = 64


def parse_type(text: str) -> IRType:
    """Parse a type from its textual form (inverse of ``str``).

    Supports scalars, pointers and arrays, e.g. ``"double*"``,
    ``"[4 x [8 x float]]"``.
    """
    # An array has one element type, so every bracket opens one more
    # level of nesting.
    if text.count("[") > MAX_TYPE_DEPTH:
        raise IRError(f"type nested deeper than {MAX_TYPE_DEPTH} arrays")
    text = text.strip()
    stars = 0
    while text.endswith("*"):
        stars += 1
        text = text[:-1].strip()
    base = _parse_base_type(text)
    for _ in range(stars):
        base = PointerType(base)
    return base


def _parse_base_type(text: str) -> IRType:
    if text == "void":
        return VOID
    if text == "label":
        return LABEL
    if text == "float":
        return F32
    if text == "double":
        return F64
    if text.startswith("i") and text[1:].isdigit():
        return IntType(int(text[1:]))
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1]
        # Split "N x T" at the first 'x' that is not inside brackets.
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "x" and depth == 0:
                count = int(inner[:i].strip())
                elem = parse_type(inner[i + 1:])
                return ArrayType(count, elem)
        raise IRError(f"malformed array type: {text!r}")
    raise IRError(f"unknown type: {text!r}")
