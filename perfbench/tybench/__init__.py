"""End-to-end benchmark of the TyBEC cost model: four closed-loop workloads.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for
the workloads, the metrics and which layer each per-layer metric should
move.
"""
