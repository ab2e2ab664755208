"""Typed, machine-readable diagnostics for the static analyzer.

Every finding the analyzer makes is a :class:`Diagnostic` — severity,
the pass that produced it, a stable machine code, and the offending
layer/unit/register/surface — collected into an
:class:`AnalysisReport`.  Reports serialize to JSON (the CI artifact
format) and convert to a typed
:class:`~repro.errors.StaticAnalysisError` when a caller asked for
verification to be fatal, mirroring how the bundle store surfaces
:class:`~repro.errors.StoreIntegrityError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import StaticAnalysisError


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the artifact must not be executed; a report
    is *clean* iff it has none.  ``WARNING`` marks legal-but-suspect
    programming; ``INFO`` carries capacity/perf observations (kernel
    splits, CBUF band refetch) that are expected on large layers.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, addressable down to the offending field."""

    severity: Severity
    pass_id: str  # which analysis pass produced it
    code: str  # stable machine code, e.g. "dma-out-of-window"
    message: str  # human-readable explanation
    layer: str = ""  # scheduled op name, e.g. "conv1"
    op_index: int = -1  # position in the schedule (-1: artifact-level)
    unit: str = ""  # NVDLA unit, e.g. "CDMA"
    register: str = ""  # offending register, e.g. "D_DAIN_ADDR_LOW"
    surface: str = ""  # offending surface label, e.g. "conv1_out"

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "pass": self.pass_id,
            "code": self.code,
            "message": self.message,
            "layer": self.layer,
            "op_index": self.op_index,
            "unit": self.unit,
            "register": self.register,
            "surface": self.surface,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        return cls(
            severity=Severity(data["severity"]),
            pass_id=data["pass"],
            code=data["code"],
            message=data["message"],
            layer=data.get("layer", ""),
            op_index=data.get("op_index", -1),
            unit=data.get("unit", ""),
            register=data.get("register", ""),
            surface=data.get("surface", ""),
        )

    def render(self) -> str:
        where = []
        if self.layer:
            where.append(self.layer)
        if self.unit:
            where.append(self.unit)
        if self.register:
            where.append(self.register)
        if self.surface:
            where.append(f"surface={self.surface}")
        location = " ".join(where)
        head = f"{self.severity.value}[{self.pass_id}/{self.code}]"
        return f"{head} {location}: {self.message}" if location else f"{head} {self.message}"


@dataclass
class AnalysisReport:
    """Everything one analysis run found about one artifact."""

    artifact: str  # e.g. "lenet5/nv_small"
    config: str = ""
    passes: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    chains: int = 0  # hardware layers analyzed
    surfaces: int = 0  # DMA surfaces extracted

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        """No errors.  Warnings and infos do not spoil cleanliness."""
        return not self.errors

    def sorted_diagnostics(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics, key=lambda d: (d.severity.rank, d.op_index, d.pass_id, d.code)
        )

    def raise_for_errors(self) -> None:
        """Raise a typed :class:`StaticAnalysisError` if any error."""
        errors = self.errors
        if not errors:
            return
        head = "; ".join(d.render() for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        raise StaticAnalysisError(
            f"{self.artifact}: static analysis found {len(errors)} error(s): {head}{more}",
            diagnostics=errors,
        )

    def to_dict(self) -> dict:
        return {
            "artifact": self.artifact,
            "config": self.config,
            "passes": list(self.passes),
            "chains": self.chains,
            "surfaces": self.surfaces,
            "clean": self.clean,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.diagnostics) - len(self.errors) - len(self.warnings),
            },
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        return cls(
            artifact=data["artifact"],
            config=data.get("config", ""),
            passes=list(data.get("passes", [])),
            diagnostics=[Diagnostic.from_dict(d) for d in data.get("diagnostics", [])],
            chains=data.get("chains", 0),
            surfaces=data.get("surfaces", 0),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self, verbose: bool = False) -> str:
        lines = [
            f"{self.artifact}: {'clean' if self.clean else 'FAILED'} "
            f"({self.chains} chains, {self.surfaces} surfaces, "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings)"
        ]
        for diag in self.sorted_diagnostics():
            if diag.severity is Severity.INFO and not verbose:
                continue
            lines.append(f"  {diag.render()}")
        return "\n".join(lines)
