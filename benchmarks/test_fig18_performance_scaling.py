"""Figure 18: performance scaling of the Vortex processor with core count.

The paper reports aggregate IPC for the Rodinia kernels at increasing core
counts: compute-bounded kernels scale almost linearly, memory-bounded ones
scale less, and nearn behaves compute-bound because of its long-latency
square root.

The sweep — every kernel at every core count — is one batch served by
:meth:`repro.service.ServiceClient.run_batch`: all (kernel, cores) jobs run
concurrently on the client's fleet of worker processes, which pull from one
shared queue.
"""

from benchmarks.harness import make_config, print_table
from repro.kernels import COMPUTE_BOUND, MEMORY_BOUND
from repro.runtime.jobs import KernelJob
from repro.service import ServiceClient

CORE_COUNTS = (1, 2, 4, 8)
FIG18_KERNELS = tuple(COMPUTE_BOUND) + tuple(MEMORY_BOUND)

#: Problem sizes for the scaling study: large enough that every hardware
#: thread of the biggest configuration still has several tasks to execute.
FIG18_SIZES = {
    "sgemm": 12 * 12,
    "vecadd": 512,
    "sfilter": 16 * 16,
    "saxpy": 512,
    "nearn": 512,
    "gaussian": 40,
    "bfs": 256,
}


def _collect():
    jobs = [
        KernelJob(
            kernel=kernel,
            config=make_config(num_cores=cores),
            driver="simx",
            size=FIG18_SIZES[kernel],
            label=f"{kernel}x{cores}",
        )
        for kernel in FIG18_KERNELS
        for cores in CORE_COUNTS
    ]
    with ServiceClient() as client:
        batch = client.run_batch(jobs)
    print(batch.summary())
    results = {}
    for result in batch.results:
        assert result.ok, f"{result.job.describe()}: {result.error or 'failed verification'}"
        results[(result.job.kernel, result.job.config.num_cores)] = result.report.ipc
    return results


def test_fig18_performance_scaling(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = []
    for kernel in FIG18_KERNELS:
        group = "compute" if kernel in COMPUTE_BOUND else "memory"
        rows.append([kernel, group] + [results[(kernel, cores)] for cores in CORE_COUNTS])
    print_table(
        "Figure 18 — IPC vs core count",
        ["Kernel", "Group"] + [f"{cores} cores" for cores in CORE_COUNTS],
        rows,
    )

    # Shape: every kernel gains IPC from 1 to 8 cores...
    for kernel in FIG18_KERNELS:
        assert results[(kernel, CORE_COUNTS[-1])] > results[(kernel, 1)], kernel

    def scaling(kernel):
        return results[(kernel, CORE_COUNTS[-1])] / results[(kernel, 1)]

    # ... compute-bounded kernels scale close to linearly at 4 cores ...
    for kernel in COMPUTE_BOUND:
        assert results[(kernel, 4)] / results[(kernel, 1)] > 2.0, kernel
    # ... and the weakest-scaling kernel belongs to the memory-bounded group
    # (the paper singles out the memory-bounded kernels, with nearn as the
    # exception that still scales because of its long-latency square root).
    weakest = min(FIG18_KERNELS, key=scaling)
    assert weakest in MEMORY_BOUND
    assert scaling("nearn") > scaling(weakest)
