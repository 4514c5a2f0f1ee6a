"""Runtime memory model: numpy-backed buffers and fat pointers.

Every allocated object (global array, array alloca, or externally supplied
numpy array) is a :class:`Buffer` over one scalar element type. Pointers
are (buffer, offset) pairs with offsets measured in scalar elements; GEP
arithmetic uses the static type layout to convert indices to offsets.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpreterError
from ..ir.types import ArrayType, FloatType, IntType, IRType, PointerType

_DTYPES = {
    ("int", 1): np.int8,  # i1 stored as int8
    ("int", 8): np.int8,
    ("int", 32): np.int32,
    ("int", 64): np.int64,
    ("float", 32): np.float32,
    ("float", 64): np.float64,
}


def scalar_type_of(ty: IRType) -> IRType:
    """The base scalar element type of a (possibly nested) array type."""
    while isinstance(ty, ArrayType):
        ty = ty.element
    return ty


def scalar_count(ty: IRType) -> int:
    """How many base scalars a value of type ``ty`` occupies."""
    count = 1
    while isinstance(ty, ArrayType):
        count *= ty.count
        ty = ty.element
    if isinstance(ty, PointerType):
        raise InterpreterError("arrays of pointers are not supported")
    return count


def dtype_of(ty: IRType) -> np.dtype:
    scalar = scalar_type_of(ty)
    if isinstance(scalar, IntType):
        key = ("int", scalar.bits if scalar.bits in (8, 32, 64) else 64)
    elif isinstance(scalar, FloatType):
        key = ("float", scalar.bits)
    else:
        raise InterpreterError(f"no dtype for type {scalar}")
    return np.dtype(_DTYPES[(key[0], key[1])])


class Buffer:
    """A flat scalar array with an element width in bytes."""

    __slots__ = ("name", "data", "element_bits")

    def __init__(self, name: str, data: np.ndarray, element_bits: int):
        self.name = name
        self.data = data
        self.element_bits = element_bits

    @classmethod
    def for_type(cls, name: str, ty: IRType) -> "Buffer":
        scalar = scalar_type_of(ty)
        data = np.zeros(scalar_count(ty), dtype=dtype_of(ty))
        bits = scalar.bits  # type: ignore[union-attr]
        return cls(name, data, bits)

    @classmethod
    def from_numpy(cls, name: str, array: np.ndarray) -> "Buffer":
        flat = np.ascontiguousarray(array).reshape(-1)
        return cls(name, flat, flat.dtype.itemsize * 8)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        return f"<Buffer {self.name} x{self.size}>"


class Pointer:
    """A fat pointer: buffer plus element offset.

    A ``__slots__`` class rather than a dataclass: the execution engines
    allocate one per GEP, so construction cost is on the hot path.
    """

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: Buffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Pointer) and other.buffer is self.buffer
                and other.offset == self.offset)

    def __hash__(self) -> int:
        return hash((id(self.buffer), self.offset))

    def add(self, elements: int) -> "Pointer":
        return Pointer(self.buffer, self.offset + elements)

    def load(self):
        try:
            return self.buffer.data.item(self.offset)
        except IndexError:
            raise InterpreterError(
                f"out-of-bounds load at {self.buffer.name}[{self.offset}]"
            ) from None

    def store(self, value) -> None:
        try:
            self.buffer.data[self.offset] = value
        except IndexError:
            raise InterpreterError(
                f"out-of-bounds store at {self.buffer.name}[{self.offset}]"
            ) from None

    def view(self, length: int | None = None) -> np.ndarray:
        """A numpy view starting at this pointer (for API backends)."""
        if length is None:
            return self.buffer.data[self.offset:]
        return self.buffer.data[self.offset:self.offset + length]

    def __repr__(self) -> str:
        return f"<Pointer {self.buffer.name}+{self.offset}>"
