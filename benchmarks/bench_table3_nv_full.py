"""Table III — nv_full simulation results (FP16, cycle counts).

Runs all six models through the flow on nv_full with the widened
64-bit memory path.  Paper rows (cycles): LeNet-5 143,188; ResNet-18
324,387; ResNet-50 26,565,315; MobileNet 22,525,704; GoogLeNet
40,889,646; AlexNet 35,535,582.

Known divergences (visible in the ratio column this benchmark prints;
ROADMAP item 3 tracks them): our compiler's zero-copy concat and
block-diagonal depthwise lowering make GoogLeNet and MobileNet
*faster* than the authors' toolchain; our FC-layer weight padding
makes LeNet slower.  The small-vs-large model split and
the MobileNet ≈ ResNet-50 anomaly (tiny model, comparable cycles)
reproduce.
"""

from __future__ import annotations

from repro.harness import PAPER_TABLE3_CYCLES, format_table, run_table3
from repro.harness.reporting import Comparison, ratio_summary

from benchmarks.conftest import single_shot


def test_table3_full(benchmark, report):
    rows = single_shot(benchmark, lambda: run_table3())
    report(
        format_table(
            ["model", "input", "size MB", "hw ops", "cycles", "paper cycles", "ratio", "ms@100MHz"],
            [
                [
                    r.model,
                    "x".join(map(str, r.input_shape)),
                    f"{r.model_size_mb:.1f}",
                    str(r.hw_ops),
                    f"{r.cycles:,}",
                    f"{r.paper_cycles:,}",
                    f"{r.ratio:.2f}",
                    f"{r.ms_at_100mhz:.1f}",
                ]
                for r in rows
            ],
            title="Table III — nv_full simulation results (FP16)",
        )
    )
    by_model = {r.model: r for r in rows}

    # Small models are 1-2 orders of magnitude quicker than the 224x224 ones.
    assert by_model["lenet5"].cycles < by_model["resnet18"].cycles
    assert by_model["resnet18"].cycles * 10 < by_model["resnet50"].cycles

    # The paper's striking anomaly: MobileNet (17 MB) costs the same
    # order as ResNet-50 (102.5 MB) because depthwise wastes the array.
    assert by_model["mobilenet"].cycles > by_model["resnet50"].cycles / 6

    # Every row within 4x of the published cycle count.
    comparisons = []
    for row in rows:
        assert 0.2 <= row.ratio <= 4.0, (row.model, row.ratio)
        comparisons.append(Comparison(row.model, row.paper_cycles, row.cycles))
    report(ratio_summary(comparisons))


def test_table3_nv_full_beats_nv_small_on_resnet50(benchmark, report):
    """The paper's cross-table comparison: nv_full is ~4x faster than
    nv_small on ResNet-50 (1.1 s -> 265 ms)."""
    from repro.harness import run_table2

    def run_both():
        small = {r.model: r for r in run_table2(models=("resnet50",), with_baseline=False)}
        full = {r.model: r for r in run_table3(models=("resnet50",))}
        return small["resnet50"], full["resnet50"]

    small_row, full_row = single_shot(benchmark, run_both)
    speedup = small_row.ms_at_100mhz / full_row.ms_at_100mhz
    report(
        f"ResNet-50: nv_small {small_row.ms_at_100mhz:.0f} ms vs nv_full "
        f"{full_row.ms_at_100mhz:.0f} ms -> {speedup:.1f}x (paper: 1100/265 = 4.2x)"
    )
    assert 2.0 <= speedup <= 9.0
