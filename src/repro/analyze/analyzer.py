"""The analyzer driver: artifact in, :class:`AnalysisReport` out.

Three entry points, all execution-free:

- :func:`analyze_loadable` — build descriptor chains from a compiled
  loadable with the shared :mod:`repro.nvdla.programming` builder and
  analyze them (the compile-pipeline ``--verify`` path),
- :func:`analyze_chains` — analyze an explicit chain list against a
  loadable (what the mutation harness uses to inject miscompiles at
  the register level),
- :func:`analyze_bundle` — a built bare-metal bundle: the loadable
  analysis plus a decode check of the generated command stream against
  the CSB address map.

A pass that itself crashes is downgraded to an ``analyzer-crash``
ERROR diagnostic — a corrupted artifact must always yield a report (or
a typed :class:`~repro.errors.StaticAnalysisError` via
``raise_for_errors``), never a stray traceback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.compiler.loadable import Loadable
from repro.nvdla.config import HardwareConfig, get_config
from repro.nvdla.csb import decode_address
from repro.nvdla.programming import LayerChain, build_chains
from repro.nvdla.registers import D_OP_ENABLE, S_POINTER, S_STATUS
from repro.nvdla.units import fresh_units
from repro.analyze.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analyze.passes import DEFAULT_PASSES, AnalysisContext
from repro.analyze.surfaces import parse_chain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.baremetal.pipeline import BaremetalBundle


def pass_ids() -> list[str]:
    """Names of the default passes, in execution order."""
    return [name for name, _ in DEFAULT_PASSES]


def analyze_chains(
    chains: list[LayerChain],
    loadable: Loadable,
    config: HardwareConfig | None = None,
    passes: list[str] | None = None,
    artifact: str | None = None,
) -> AnalysisReport:
    """Analyze explicit descriptor chains against their loadable."""
    config = config or get_config(loadable.config)
    selected = set(passes) if passes is not None else None
    report = AnalysisReport(
        artifact=artifact or f"{loadable.network}/{loadable.config}",
        config=config.name,
    )
    ops = loadable.schedule.ops
    layers = []
    for chain in chains:
        if not 0 <= chain.op_index < len(ops):
            report.add(
                Diagnostic(
                    severity=Severity.ERROR,
                    pass_id="chain",
                    code="bad-op-index",
                    message=f"chain references schedule op {chain.op_index} "
                    f"(schedule has {len(ops)})",
                    layer=chain.op_name,
                    op_index=chain.op_index,
                )
            )
            continue
        layer = parse_chain(chain, ops[chain.op_index], config)
        report.extend(layer.diagnostics)
        layers.append(layer)
    report.chains = len(layers)
    report.surfaces = sum(len(layer.surfaces) for layer in layers)
    ctx = AnalysisContext(loadable=loadable, config=config, layers=layers)
    for name, pass_fn in DEFAULT_PASSES:
        if selected is not None and name not in selected:
            continue
        report.passes.append(name)
        try:
            report.extend(pass_fn(ctx))
        except Exception as exc:  # analyzer bug — surface it as a finding
            report.add(
                Diagnostic(
                    severity=Severity.ERROR,
                    pass_id=name,
                    code="analyzer-crash",
                    message=f"pass crashed: {type(exc).__name__}: {exc}",
                )
            )
    return report


def analyze_loadable(
    loadable: Loadable,
    config: HardwareConfig | None = None,
    passes: list[str] | None = None,
    artifact: str | None = None,
) -> AnalysisReport:
    """Build the canonical descriptor chains and analyze them."""
    config = config or get_config(loadable.config)
    chains = build_chains(loadable, config)
    return analyze_chains(chains, loadable, config, passes=passes, artifact=artifact)


def _check_command_stream(bundle: "BaremetalBundle", report: AnalysisReport) -> None:
    """Every generated register command must decode to a known unit
    register (or one of the per-unit control words)."""
    units = fresh_units()
    for position, command in enumerate(bundle.commands):
        try:
            unit_name, reg_offset = decode_address(command.address)
        except Exception as exc:
            report.add(
                Diagnostic(
                    severity=Severity.ERROR,
                    pass_id="command-stream",
                    code="undecodable-address",
                    message=f"command {position}: {exc}",
                )
            )
            continue
        if reg_offset in (S_STATUS, S_POINTER, D_OP_ENABLE):
            continue
        unit = units.get(unit_name)
        if unit is None:
            continue  # GLB/MCIF/... control traffic has no descriptor file here
        if reg_offset not in unit.block._specs:
            report.add(
                Diagnostic(
                    severity=Severity.ERROR,
                    pass_id="command-stream",
                    code="unknown-register",
                    message=f"command {position}: {unit_name} has no register at "
                    f"+0x{reg_offset:03x}",
                    unit=unit_name,
                )
            )


def analyze_bundle(
    bundle: "BaremetalBundle",
    config: HardwareConfig | None = None,
    passes: list[str] | None = None,
    artifact: str | None = None,
) -> AnalysisReport:
    """Analyze a built bundle: loadable chains + command-stream decode."""
    report = analyze_loadable(
        bundle.loadable,
        config=config,
        passes=passes,
        artifact=artifact or f"{bundle.loadable.network}/{bundle.loadable.config}",
    )
    if passes is None or "command-stream" in passes:
        report.passes.append("command-stream")
        try:
            _check_command_stream(bundle, report)
        except Exception as exc:
            report.add(
                Diagnostic(
                    severity=Severity.ERROR,
                    pass_id="command-stream",
                    code="analyzer-crash",
                    message=f"pass crashed: {type(exc).__name__}: {exc}",
                )
            )
    return report
