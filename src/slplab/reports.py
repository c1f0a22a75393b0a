"""Check reports: one fixed schema shared by every verification entry point.

Serialized shape: {"check": str, "pass": bool, "max_deviation": float,
"details": {...}, "provenance": {...}?}, pretty-printed with sorted keys and
a trailing newline.  NaN anywhere in a report is a hard error, never emitted.
The module only writes reports; a reader parses them as plain JSON.

A large value can write its own text: a `Layout` in the report stands in
for it.  json.dumps lays out the document around a stand-in string, and the
layout's text goes in its place, indented as that line is, so a list of
many thousand entries is written from its arrays with no object per entry
and the bytes stay those of json.dumps over the whole document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable


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


class Layout:
    """A report value written by `write(indent)`: its text, in pieces, as
    json.dumps(indent=2, sort_keys=True) lays it out as the value of a
    line that starts with `indent`.  A plain class, not a dataclass: every
    import of the package would pay for the generated methods."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[[str], Iterable[str]]) -> None:
        self.write = write


# what json.dumps writes in a Layout's place; json escapes the NULs, so a
# report string holding them would read back the same, and is refused
_STAND_IN = "\0layout\0"
_STAND_IN_TEXT = json.dumps(_STAND_IN)


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
    the walk that names their path runs only after it has refused.  Each
    Layout's text is spliced in where json.dumps wrote its stand-in."""
    doc = report.to_dict()
    layouts = []

    def stand_in(value):
        if not isinstance(value, Layout):
            raise TypeError(f"Object of type {type(value).__name__} is not "
                            "JSON serializable")
        layouts.append(value)
        return _STAND_IN

    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                          default=stand_in)
    except ValueError:
        _reject_nan(doc)
        raise
    if not layouts:
        return text + "\n"
    parts = text.split(_STAND_IN_TEXT)
    if len(parts) != len(layouts) + 1:
        raise ValueError("a report string equals the layout stand-in")
    pieces = [parts[0]]
    for layout, before, after in zip(layouts, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        pieces += layout.write(line[:len(line) - len(line.lstrip(" "))])
        pieces.append(after)
    pieces.append("\n")
    return "".join(pieces)


def emit_report(report: Report, path: str | Path) -> None:
    text = render_report(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
