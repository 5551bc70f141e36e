"""A minimal name → factory registry used for models and multipliers."""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")


class Registry(Generic[T]):
    """Case-insensitive mapping from names to factories.

    Used by :mod:`repro.models` and :mod:`repro.approx` so that experiment
    configs can refer to components by string name.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, Callable[..., T]] = {}

    def register(self, name: str, factory: Callable[..., T] | None = None):
        """Register ``factory`` under ``name``; usable as a decorator."""
        key = name.lower()

        def _do_register(fn: Callable[..., T]) -> Callable[..., T]:
            if key in self._entries:
                raise KeyError(f"{self._kind} {name!r} is already registered")
            self._entries[key] = fn
            return fn

        if factory is None:
            return _do_register
        return _do_register(factory)

    def create(self, name: str, /, **kwargs) -> T:
        """Instantiate the entry registered under ``name``.

        An unknown name raises :class:`~repro.errors.ConfigError`.
        """
        key = name.lower()
        if key not in self._entries:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise ConfigError(f"unknown {self._kind} {name!r}; known: {known}")
        return self._entries[key](**kwargs)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def names(self) -> list[str]:
        """Sorted list of registered names."""
        return sorted(self._entries)
