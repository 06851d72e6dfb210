"""Figure 20: hardware texture acceleration vs the software sampling path.

The paper renders a source texture into an equally sized target with point,
bilinear and trilinear filtering, comparing the ``tex``-accelerated pipeline
(HW) against an all-software sampler (SW) at 1, 2, 4 and 8 cores.
"""

from benchmarks.harness import print_table, run_texture

MODES = ("point", "bilinear", "trilinear")
CORE_COUNTS = (1, 2, 4)


def _collect():
    results = {}
    for cores in CORE_COUNTS:
        for mode in MODES:
            for use_hw in (False, True):
                report = run_texture(mode, use_hw, num_cores=cores)
                results[(cores, mode, use_hw)] = report.cycles
    return results


def test_fig20_texture_acceleration(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = []
    for cores in CORE_COUNTS:
        for mode in MODES:
            sw = results[(cores, mode, False)]
            hw = results[(cores, mode, True)]
            rows.append([cores, mode, sw, hw, f"{sw / hw:.2f}x"])
    print_table(
        "Figure 20 — texture filtering execution time (cycles)",
        ["Cores", "Filter", "SW cycles", "HW cycles", "HW speed-up"],
        rows,
    )

    single_core_bilinear_gain = results[(1, "bilinear", False)] / results[(1, "bilinear", True)]
    for cores in CORE_COUNTS:
        point_gain = results[(cores, "point", False)] / results[(cores, "point", True)]
        bilinear_gain = results[(cores, "bilinear", False)] / results[(cores, "bilinear", True)]
        trilinear_gain = results[(cores, "trilinear", False)] / results[(cores, "trilinear", True)]
        # Shape: point sampling gains little from acceleration (the software
        # path degenerates into a copy); bilinear gains at least ~2x; the
        # filtered modes gain far more than point sampling.  (The paper sees
        # trilinear gain *less* than bilinear because its doubled memory
        # traffic saturates DRAM at 1080p; our reduced render target fits in
        # cache, so that saturation point is not reached — bench/README.md,
        # "Caveats": the model is unvalidated against the paper's absolutes.)
        assert bilinear_gain > 1.5, cores
        assert bilinear_gain > point_gain, cores
        assert trilinear_gain > point_gain, cores
        assert point_gain < 1.6, cores
    # As in the paper, the acceleration advantage shrinks as the core count
    # grows and memory contention increases.
    final_bilinear_gain = results[(CORE_COUNTS[-1], "bilinear", False)] / results[
        (CORE_COUNTS[-1], "bilinear", True)
    ]
    assert final_bilinear_gain <= single_core_bilinear_gain
    # Adding cores reduces execution time for the accelerated path.
    assert results[(CORE_COUNTS[-1], "bilinear", True)] < results[(1, "bilinear", True)]
