"""One-shot markdown report: every experiment, paper vs measured.

``python -m repro report`` writes a self-contained markdown document
with the regenerated Tables I-III, the figure diagrams and the
ablations: the paper-vs-measured record of the reproduction.
"""

from __future__ import annotations

import io

from repro.fpga import ZCU102, synthesize
from repro.harness.experiments import (
    run_ablation_baremetal,
    run_ablation_frequency,
    run_ablation_width,
    run_fig1,
    run_fig2,
    run_table1,
    run_table2,
    run_table3,
)
from repro.harness.reporting import Comparison, ratio_summary
from repro.nvdla import NV_FULL


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    out.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(out)


def generate_report(
    include_figures: bool = True,
    table2_models: tuple[str, ...] = ("lenet5", "resnet18", "resnet50"),
    table3_models: tuple[str, ...] = ("lenet5", "resnet18", "resnet50"),
) -> str:
    """Run the experiments and return the markdown report text.

    The default Table III model set is trimmed to the three shared
    models so the report stays fast; pass the full six-model tuple for
    the complete run.
    """
    out = io.StringIO()
    out.write("# Generated experiment report\n\n")
    out.write("Regenerated by `python -m repro report`.\n\n")

    out.write("## Table I — FPGA resources (ZCU102)\n\n```\n")
    out.write(run_table1().render())
    out.write("\n```\n\n")
    nv_full_synth = synthesize(NV_FULL, ZCU102)
    out.write(
        f"nv_full feasibility: {'fits' if nv_full_synth.fits else 'over-utilised'} "
        f"(LUTs {nv_full_synth.utilization['luts'] * 100:.0f}%)\n\n"
    )

    out.write("## Table II — nv_small @100 MHz\n\n")
    rows2 = run_table2(models=table2_models)
    out.write(
        _md_table(
            ["model", "ms", "paper ms", "ratio", "ESP ms", "speedup"],
            [
                [
                    r.model,
                    f"{r.ms_at_100mhz:.1f}",
                    f"{r.paper_ms:g}",
                    f"{r.ratio:.2f}",
                    f"{r.baseline_ms:.0f}" if r.baseline_ms else "-",
                    f"{r.speedup_vs_baseline:.0f}x" if r.speedup_vs_baseline else "-",
                ]
                for r in rows2
            ],
        )
    )
    out.write("\n\n")

    out.write("## Table III — nv_full FP16 (cycles)\n\n")
    rows3 = run_table3(models=table3_models)
    out.write(
        _md_table(
            ["model", "cycles", "paper cycles", "ratio"],
            [
                [r.model, f"{r.cycles:,}", f"{r.paper_cycles:,}", f"{r.ratio:.2f}"]
                for r in rows3
            ],
        )
    )
    comparisons = [Comparison(r.model, r.paper_cycles, r.cycles) for r in rows3]
    out.write(f"\n\n{ratio_summary(comparisons)}\n\n")

    out.write("## Ablations\n\n### A1 — driver-stack overhead (LeNet-5)\n\n")
    out.write(
        _md_table(
            ["configuration", "ms"],
            [[p.label, f"{p.ms:.2f}"] for p in run_ablation_baremetal("lenet5")],
        )
    )
    out.write("\n\n### A2 — memory-path width (ResNet-50, nv_full)\n\n")
    out.write(
        _md_table(
            ["width", "cycles"],
            [[p.label, f"{p.cycles:,}"] for p in run_ablation_width("resnet50")],
        )
    )
    out.write("\n\n### A3 — clock sweep (LeNet-5)\n\n")
    out.write(
        _md_table(
            ["clock", "ms"],
            [[p.label, f"{p.ms:.2f}"] for p in run_ablation_frequency("lenet5")],
        )
    )
    out.write("\n")

    if include_figures:
        out.write("\n## Figures\n\n### Fig. 1\n\n```\n")
        out.write(run_fig1("lenet5"))
        out.write("\n```\n\n### Fig. 2\n\n```\n")
        out.write(run_fig2())
        out.write("\n```\n")
    return out.getvalue()
