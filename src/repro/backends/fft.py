"""Spectral backend: simulated FFTW / cuFFT descriptors.

No idiom in the IDL library lowers to a spectral API yet (FT's Fourier
kernels are below the matcher's reach), so this backend registers
*descriptors only*: it participates in registry discovery, backend
filtering, and planner capability queries under the ``spectral_op``
category.
"""

from __future__ import annotations


def register_backend(registry) -> None:
    from .api import CUFFT, FFTW
    from .registry import BackendEntry

    registry.register(BackendEntry(
        name="fft", title="Spectral transform libraries",
        descriptors=(FFTW, CUFFT),
        contracts={}))
