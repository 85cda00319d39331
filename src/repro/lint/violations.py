"""The unit of lint output: one rule firing at one source location."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

__all__ = ["Violation"]


def _format_bytes(count: Any) -> str:
    """Human-scale byte count for the text output (1.2 MB, 340.0 KB)."""
    value = float(count or 0)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GB"  # pragma: no cover - loop always returns


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation.  Field order gives the natural sort:
    by file, then line, then column, then rule.

    ``provenance`` lists the files that contributed to the finding; it
    is empty for single-file rules and names every involved module for
    cross-module (SIM1xx) findings, e.g. the caller and the callee of a
    unit-dimension mismatch.

    ``fix`` is an optional machine-applicable edit (the payload
    :mod:`repro.lint.fixes` consumes); it never participates in
    ordering/equality and is omitted from the JSON form when absent, so
    fix-less producers and consumers are byte-compatible with v2.

    ``profile`` is the measured ranking attached by
    :func:`repro.lint.hotpath.annotate_profile`: with ``--profile``,
    ``{"bucket": "hot"|"warm"|"cold", "cum_seconds", "fraction"}`` on
    SIM3xx/SIM4xx findings; with ``--memprofile``, ``{"bucket",
    "alloc_bytes", "fraction"}`` on SIM5xx findings.  Like ``fix`` it is
    presentation metadata -- excluded from ordering/equality and absent
    from JSON unless set.
    """

    path: str
    line: int
    col: int
    rule_id: str  # e.g. "SIM001"
    rule_name: str  # e.g. "global-random" (also the pragma name)
    message: str
    provenance: Tuple[str, ...] = field(default=())
    fix: Optional[Dict[str, Any]] = field(default=None, compare=False)
    profile: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def format(self) -> str:
        """``path:line:col: SIM001 [global-random] message`` -- the text
        output format, clickable in editors and CI logs.  Profile-ranked
        findings carry their bucket (and the measured seconds or
        allocated bytes when hot)."""
        marker = ""
        if self.profile is not None:
            bucket = self.profile.get("bucket", "")
            if bucket == "hot":
                if "alloc_bytes" in self.profile:
                    marker = f"hot ({_format_bytes(self.profile['alloc_bytes'])}): "
                else:
                    marker = f"hot ({self.profile.get('cum_seconds', 0.0)}s): "
            elif bucket == "cold":
                marker = "note: "
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {marker}{self.message}"
        )
        if self.provenance:
            text += f"  (via {', '.join(self.provenance)})"
        return text

    def to_dict(self) -> Dict[str, Union[str, int, Tuple[str, ...]]]:
        """JSON-ready form for ``repro-qos lint --format json``."""
        payload: Dict[str, Union[str, int, Tuple[str, ...]]] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "name": self.rule_name,
            "message": self.message,
            "provenance": list(self.provenance),  # type: ignore[dict-item]
        }
        if self.fix is not None:
            payload["fix"] = self.fix  # type: ignore[assignment]
        if self.profile is not None:
            payload["profile"] = self.profile  # type: ignore[assignment]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Violation":
        """Inverse of :meth:`to_dict` (used to replay cached findings)."""
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            rule_id=str(payload["rule"]),
            rule_name=str(payload["name"]),
            message=str(payload["message"]),
            provenance=tuple(payload.get("provenance", ())),
            fix=payload.get("fix"),
            profile=payload.get("profile"),
        )
