"""Figure 21: the effect of memory latency and bandwidth scaling on
performance, explored with the SIMX cycle-level driver.

The paper sweeps memory latency and bandwidth for a 16-core / 16-wavefront /
16-thread configuration; the reproduction uses a smaller 2-core 8W-4T
machine (sizes in ``benchmarks/harness.py``; README.md "Tests and
benchmarks") — the trend of interest is how IPC
falls with latency and recovers with added bandwidth on a memory-bounded
kernel.
"""

from benchmarks.harness import print_table, run_kernel

LATENCIES = (25, 100, 400)
BANDWIDTHS = (1, 4)
KERNEL = "saxpy"


def _collect():
    results = {}
    for latency in LATENCIES:
        for bandwidth in BANDWIDTHS:
            report = run_kernel(
                KERNEL,
                num_cores=2,
                num_warps=8,
                num_threads=4,
                mem_latency=latency,
                mem_bandwidth=bandwidth,
                size=256,
            )
            results[(latency, bandwidth)] = report.ipc
    return results


def test_fig21_memory_scaling(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = []
    for latency in LATENCIES:
        rows.append([latency] + [results[(latency, bandwidth)] for bandwidth in BANDWIDTHS])
    print_table(
        f"Figure 21 — IPC vs memory latency/bandwidth ({KERNEL}, 2 cores, 8W-4T)",
        ["Latency (cycles)"] + [f"BW x{bandwidth}" for bandwidth in BANDWIDTHS],
        rows,
    )

    # Shape: IPC decreases as latency grows (at fixed bandwidth) and higher
    # bandwidth never hurts and helps most at high latency, where the DRAM
    # queue (16 entries per channel) is what limits throughput.
    for bandwidth in BANDWIDTHS:
        series = [results[(latency, bandwidth)] for latency in LATENCIES]
        assert series[0] > series[-1]
    for latency in LATENCIES:
        gain = 1.2 if latency >= 100 else 0.95
        assert results[(latency, BANDWIDTHS[-1])] >= gain * results[(latency, BANDWIDTHS[0])]
    low_lat_gain = results[(LATENCIES[0], 4)] / results[(LATENCIES[0], 1)]
    high_lat_gain = results[(LATENCIES[-1], 4)] / results[(LATENCIES[-1], 1)]
    assert high_lat_gain >= low_lat_gain * 0.95
