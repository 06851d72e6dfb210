"""Figure 19: the effect of virtual multi-port caches on bank utilization
and IPC (single 4W-4T core, 4-bank data cache).

A 4-thread warp never has more lanes than four ports can take, so the
4-port column is trivially full; the 4W-16T row (threads > ports) is where
ports keep paying off."""

from benchmarks.harness import print_table, run_kernel

FIG19_KERNELS = ("sgemm", "vecadd", "sfilter", "saxpy", "nearn")
PORT_COUNTS = (1, 2, 4)
#: Threads per warp of the figure's rows: the paper's 4 and a threads > ports row.
THREAD_COUNTS = (4, 16)


def _bank_utilization(report) -> float:
    # Per attempt, as ``NonBlockingCache.bank_utilization``: every retry of a
    # refused lane counts as one more bank conflict.
    dcache = report.counters["dcache0"]
    accepted = dcache.get("accepted", 0)
    conflicts = dcache.get("bank_conflicts", 0)
    if accepted + conflicts == 0:
        return 1.0
    return accepted / (accepted + conflicts)


def _collect():
    results = {}
    for threads in THREAD_COUNTS:
        for kernel in FIG19_KERNELS:
            for ports in PORT_COUNTS:
                report = run_kernel(kernel, num_threads=threads, dcache_ports=ports)
                results[(kernel, ports, threads)] = (_bank_utilization(report), report.ipc)
    return results


def test_fig19_multiport_cache(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    for threads in THREAD_COUNTS:
        rows = []
        for kernel in FIG19_KERNELS:
            row = [kernel]
            for ports in PORT_COUNTS:
                utilization, ipc = results[(kernel, ports, threads)]
                row.append(f"{100 * utilization:.0f}% / {ipc:.2f}")
            rows.append(row)
        print_table(
            f"Figure 19 — bank utilization / IPC per virtual-port count (4W-{threads}T)",
            ["Kernel"] + [f"{ports}-port" for ports in PORT_COUNTS],
            rows,
        )

    for kernel in FIG19_KERNELS:
        util_by_port = [results[(kernel, ports, 4)][0] for ports in PORT_COUNTS]
        ipc_by_port = [results[(kernel, ports, 4)][1] for ports in PORT_COUNTS]
        # Shape: adding virtual ports never reduces bank utilization, and the
        # 4-port configuration removes essentially all direct conflicts.
        assert util_by_port[-1] >= util_by_port[0] - 1e-9, kernel
        assert util_by_port[-1] > 0.95, kernel
        # IPC does not degrade when ports are added.
        assert ipc_by_port[-1] >= 0.95 * ipc_by_port[0], kernel
        # With more threads than ports every port added raises utilization,
        # and four ports still leave lanes refused.
        wide = [results[(kernel, ports, 16)][0] for ports in PORT_COUNTS]
        assert wide[0] < wide[1] < wide[2] < 0.95, (kernel, wide)
    # The kernels with the most bank conflicts at 1 port gain the most utilization.
    gains = {k: results[(k, 4, 4)][0] - results[(k, 1, 4)][0] for k in FIG19_KERNELS}
    most_conflicted = min(FIG19_KERNELS, key=lambda k: results[(k, 1, 4)][0])
    assert gains[most_conflicted] == max(gains.values())
