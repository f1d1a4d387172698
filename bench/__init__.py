"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 bench/run.py --help``; see ``bench/README.md``.
"""
