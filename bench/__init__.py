"""The repository's measured benchmark (see ``bench/README.md``).

``python3 -m bench.run`` is the one command: seven workloads, host-speed and
modelled-IPC end-to-end metrics, and an outside-in per-layer host-time trace.
Nothing here is imported by ``src/``; the benchmark only observes it.
"""
