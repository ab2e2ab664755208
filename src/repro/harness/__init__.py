"""Benchmark harness: canonical experiment runners and reporting.

Every table and figure of the paper has a runner here that regenerates
it from the library; ``benchmarks/`` are thin wrappers around these,
and ``python -m repro report`` (:mod:`repro.harness.report_md`) writes
the paper-vs-measured outcomes as one markdown document.
"""

from repro.harness.experiments import (
    Table2Row,
    Table3Row,
    run_ablation_baremetal,
    run_ablation_width,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
)
from repro.harness.reporting import (
    PAPER_TABLE2_MS,
    PAPER_TABLE3_CYCLES,
    format_table,
    ratio_summary,
)

__all__ = [
    "PAPER_TABLE2_MS",
    "PAPER_TABLE3_CYCLES",
    "Table2Row",
    "Table3Row",
    "format_table",
    "ratio_summary",
    "run_ablation_baremetal",
    "run_ablation_width",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_table1",
    "run_table2",
    "run_table3",
]
