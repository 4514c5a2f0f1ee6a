"""The idiom library (IDL sources), detection driver and scheduler."""

from .detector import (
    DETECTOR_LIMITS,
    IdiomDetector,
    TOP_LEVEL_IDIOMS,
    detect_idioms,
)
from .library import (
    IDIOM_CATEGORIES,
    LIBRARY_SOURCES,
    SPECIFICITY_ORDER,
    library_line_count,
    load_library,
)
from .matches import (
    CATEGORY_OF,
    DetectionReport,
    IdiomMatch,
    report_fingerprint,
)
from .scheduler import DetectionSession

__all__ = [
    "DETECTOR_LIMITS", "IdiomDetector", "detect_idioms", "TOP_LEVEL_IDIOMS",
    "IDIOM_CATEGORIES", "LIBRARY_SOURCES", "SPECIFICITY_ORDER",
    "library_line_count", "load_library",
    "CATEGORY_OF", "DetectionReport", "IdiomMatch", "report_fingerprint",
    "DetectionSession",
]
