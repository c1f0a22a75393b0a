"""Check reports: one fixed schema shared by every verification entry point.

Serialized shape: {"check": str, "pass": bool, "max_deviation": float,
"details": {...}, "provenance": {...}?}, pretty-printed with sorted keys and
a trailing newline.  NaN anywhere in a report is a hard error, never emitted.
The module only writes reports; a reader parses them as plain JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Report:
    check: str
    passed: bool
    max_deviation: float = 0.0
    details: dict = field(default_factory=dict)
    provenance: dict | None = None

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "check": self.check,
            "pass": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "details": self.details,
        }
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return doc


def _reject_nan(obj: Any, path: str = "$") -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"NaN forbidden in reports (at {path})")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_nan(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reject_nan(v, f"{path}[{i}]")


def render_report(report: Report) -> str:
    """The report's bytes; json.dumps refuses NaN and infinities itself, so
    the walk that names their path runs only after it has refused."""
    doc = report.to_dict()
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        _reject_nan(doc)
        raise
    return text + "\n"


def emit_report(report: Report, path: str | Path) -> None:
    text = render_report(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
