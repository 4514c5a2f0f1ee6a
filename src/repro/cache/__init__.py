"""Content-addressed incremental compilation and detection artifacts.

The service-shaped entry point for warm traffic: detection results are
keyed by a fingerprint of everything that can change them (canonical IR
text, module globals, idiom library, detector configuration, pass
pipeline — :mod:`.fingerprint`), kept in a versioned, byte-budgeted
store — in process memory by default, or on disk (atomic,
corruption-tolerant, kept across restarts) when given a directory
(:mod:`.store`) — and replayed by the detection scheduler so that
re-submitting a module after editing one function re-solves only that
function (:mod:`.detection`, wired through
:class:`repro.idioms.scheduler.DetectionSession`).
"""

from .detection import (
    CachedDetection,
    DetectionCache,
    decode_detection,
    encode_detection,
)
from .fingerprint import (
    FINGERPRINT_VERSION,
    detection_config_signature,
    function_fingerprint,
    globals_signature,
    module_fingerprints,
)
from .store import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    STORE_VERSION,
    ArtifactStore,
    StoreStats,
)

__all__ = [
    "ArtifactStore", "StoreStats",
    "STORE_VERSION", "DEFAULT_MEMORY_BUDGET_BYTES",
    "CachedDetection", "DetectionCache",
    "decode_detection", "encode_detection",
    "FINGERPRINT_VERSION", "detection_config_signature",
    "function_fingerprint", "globals_signature", "module_fingerprints",
]
