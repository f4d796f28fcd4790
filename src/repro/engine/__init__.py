"""The simulation engine: one core loop, and the name that selects it.

The simulation driver (:func:`repro.sim.simulator.simulate_cores`)
resumes the loop of :class:`repro.cpu.core.OutOfOrderCore` a bounded
stretch at a time, or a whole span at once when it runs one core.
:attr:`repro.sim.config.SystemConfig.engine` names that loop; ``scalar``
is its only legal value, and the field stays out of result-cache keys,
so configuration files and cached results written when it had other
values keep loading.
"""

from __future__ import annotations

from repro.registry import UnknownComponentError

#: The legal values of ``SystemConfig.engine``.
ENGINES = ("scalar",)


def numpy_or_none():
    """The ``numpy`` module if importable, else ``None`` (never raises)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def check_engine(name: str) -> None:
    """Raise :class:`~repro.registry.UnknownComponentError` unless
    ``name`` is a legal engine name (case-insensitive)."""
    if name.lower() not in ENGINES:
        raise UnknownComponentError("engine", name, list(ENGINES))


__all__ = ["ENGINES", "check_engine", "numpy_or_none"]
