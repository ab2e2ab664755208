"""Harness and diagrams: experiment runners produce shape-correct data."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import (
    format_table,
    ratio_summary,
    run_ablation_baremetal,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
)
from repro.harness.reporting import Comparison
from repro.nvdla import NV_SMALL

#: The ISS golden file: one timing-fidelity SoC run per zoo program.
ISS_GOLDEN = Path(__file__).parents[1] / "nvdla" / "golden" / "iss_golden.json"


def test_table1_report_runner():
    report = run_table1()
    assert "nv_small NVDLA" in report.rows
    assert report.rows["Our SoC"].luts > report.rows["uRISC_V core"].luts


def test_table2_lenet_row_shape():
    rows = run_table2(models=("lenet5",))
    row = rows[0]
    assert row.layers == 9
    assert abs(row.model_size_mb - 1.7) < 0.1
    assert 0.3 <= row.ratio <= 3.0  # within band of the paper's 4.8 ms
    assert row.speedup_vs_baseline and row.speedup_vs_baseline > 10


def test_table_cycles_equal_the_golden_iss_runs():
    """Table II (nv_small INT8 @32 bit) and Table III (nv_full FP16
    @64 bit) report each bundle's recorded cycle profile, so their
    cycles are exactly the golden SoC runs of the same programs."""
    golden = json.loads(ISS_GOLDEN.read_text())
    [small] = run_table2(("lenet5",), with_baseline=False)
    [full] = run_table3(("lenet5",))
    assert small.cycles == golden["lenet5/nv_small"]["cycles"]
    assert full.cycles == golden["lenet5/nv_full"]["cycles"]
    assert small.ms_at_100mhz == pytest.approx(small.cycles / 1e5)
    assert full.ms_at_100mhz == pytest.approx(full.cycles / 1e5)


def test_fig1_diagram_mentions_artefacts():
    text = run_fig1("lenet5")
    assert "NVDLA compiler" in text
    assert "read/write_reg" in text
    assert "weights.bin" in text


def test_fig2_diagram_reflects_soc():
    text = run_fig2(NV_SMALL)
    assert "nv_small" in text
    assert "0x100000" in text
    assert "64 MACs" in text.replace("  ", " ")


def test_fig3_diagram_reports_trace_counts():
    text = run_fig3("lenet5")
    assert "csb_adaptor" in text
    assert "dbb_adaptor" in text


def test_fig4_diagram_reports_preload():
    text = run_fig4("lenet5")
    assert "SmartConnect" in text
    assert "preloaded" in text
    assert "MIG DDR4" in text


def test_ablation_baremetal_monotone_in_overhead():
    points = run_ablation_baremetal("lenet5")
    linux_points = [p for p in points if p.label.startswith("linux")]
    values = [p.ms for p in linux_points]
    assert values == sorted(values)  # more overhead, more latency
    bare = points[0]
    assert bare.ms < linux_points[-1].ms


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert len(lines) == 5  # title + header + rule + 2 rows


def test_ratio_summary():
    comparisons = [Comparison("x", 10.0, 20.0), Comparison("y", 10.0, 5.0)]
    text = ratio_summary(comparisons)
    assert "geomean" in text and "2 rows" in text
    assert ratio_summary([]) == "no comparable rows"
