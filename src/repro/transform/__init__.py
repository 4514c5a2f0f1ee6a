"""Idiom replacement: kernel extraction, API call generation, C backend."""

from .c_backend import expr_to_c, kernel_to_c
from .kernels import (
    ExtractedKernel,
    KBin,
    KCall,
    KCapture,
    KCast,
    KCmp,
    KConst,
    KParam,
    KSelect,
    KernelExtractor,
    compile_kernel,
    match_accumulator_form,
)
from .region import Region, make_alias_guard
from .replace import AppliedTransform, RejectedTransform, Transformer

__all__ = [
    "expr_to_c", "kernel_to_c",
    "ExtractedKernel", "KBin", "KCall", "KCapture", "KCast", "KCmp",
    "KConst", "KParam", "KSelect", "KernelExtractor", "compile_kernel",
    "match_accumulator_form",
    "Region", "make_alias_guard",
    "AppliedTransform", "RejectedTransform", "Transformer",
]
