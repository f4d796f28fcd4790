"""Golden equivalence fixture for the simulation hot path.

``python -m repro.perf.golden --write`` regenerates the golden
equivalence fixture used by ``tests/test_golden_equivalence.py``; only
regenerate it when a PR *intentionally* changes simulation results.

Speed is measured by the repository benchmark, ``perfbench/`` at the
repository root (see ``perfbench/README.md``), not by this package.
"""
