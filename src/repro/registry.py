"""Decorator-driven component registries.

A :class:`Registry` maps lower-cased names to factories (classes or
builder functions).  Components self-register at import time::

    from repro.offchip.registry import register_predictor

    @register_predictor("popet")
    class POPET(OffChipPredictor):
        ...

which keeps construction serialization-safe — a worker process can
rebuild any component from its registered name plus keyword options —
and makes new predictors/prefetchers pluggable without touching the
factory modules.  Duplicate names are rejected loudly so two components
can never silently shadow each other.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Iterator, List, TypeVar

T = TypeVar("T")
F = TypeVar("F", bound=Callable[..., Any])


class UnknownComponentError(KeyError):
    """Lookup of a name no component registered under.

    A ``KeyError`` whose message lists the names that *are* registered,
    so a configuration typo tells the user what to type instead.  The
    CLI surfaces the message directly (no traceback).
    """

    def __init__(self, kind: str, name: str, available: List[str]) -> None:
        super().__init__(
            f"unknown {kind} {name!r}; available: {', '.join(available) or '(none)'}")
        self.kind = kind
        self.name = name
        self.available = available

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; show the message plain.
        return self.args[0]

    def __reduce__(self):
        # Rebuild from the constructor arguments, not args (the message
        # tuple), so the exception survives the pickle round-trip from a
        # process-pool worker back to the parent.
        return (type(self), (self.kind, self.name, self.available))


class Registry(Generic[T]):
    """A name -> factory mapping with decorator-based registration."""

    def __init__(self, kind: str) -> None:
        #: Human-readable component kind, used in error messages.
        self.kind = kind
        self._factories: Dict[str, Callable[..., T]] = {}

    def register(self, name: str) -> Callable[[F], F]:
        """Return a decorator registering its target under ``name``.

        The decorated object (a class or a zero-or-keyword-argument
        builder function) is returned unchanged.  Registering a name
        twice raises ``ValueError``.
        """
        key = name.lower()

        def decorator(factory: F) -> F:
            if key in self._factories:
                raise ValueError(
                    f"duplicate {self.kind} name {name!r} "
                    f"(already registered as {self._factories[key]!r})")
            self._factories[key] = factory
            return factory

        return decorator

    def create(self, name: str, **options: Any) -> T:
        """Instantiate the component registered under ``name``.

        Unknown names raise :class:`UnknownComponentError` (a
        ``KeyError``) listing every registered name.
        """
        return self.factory(name)(**options)

    def factory(self, name: str) -> Callable[..., T]:
        """The class or builder registered under ``name``, not called.

        Unknown names raise :class:`UnknownComponentError`, as in
        :meth:`create`.
        """
        try:
            return self._factories[name.lower()]
        except KeyError:
            raise UnknownComponentError(self.kind, name, self.names()) from None

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)
