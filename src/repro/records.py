"""Immutable positional records: the shape of every observability event.

Events are built on the observed hot path (one per retired instruction,
cache access, reservation change, GLSC line group, directory message),
so their constructor cost is most of what observation costs.  A frozen
dataclass pays one ``object.__setattr__`` per field; a
:class:`typing.NamedTuple` is one tuple allocation behind a positional
``__new__``.  :func:`record` turns a NamedTuple class into an event
record by restoring the dataclass invariants tuples lack:

* **frozen** — assigning or deleting an attribute raises
  :class:`dataclasses.FrozenInstanceError` (an ``AttributeError``);
* **typed equality** — two records are equal only if they are of the
  same class and their fields are equal, so ``GetS(...)`` never equals
  a ``GetM(...)`` (or a plain tuple) with the same values; hashing is
  the tuple hash of the fields.

Class-level constants (``category``, a protocol message's ``kind``)
are written without an annotation, so they stay class attributes and
never become fields.  Construction goes through ``type.__call__``,
which still runs the (inherited, no-op) ``__init__`` — the hook the
no-allocation guard test poisons.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Type, TypeVar

__all__ = ["record"]

R = TypeVar("R")


def _setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _eq(self: Any, other: Any) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self: Any, other: Any) -> bool:
    return not _eq(self, other)


def record(cls: Type[R]) -> Type[R]:
    """Class decorator: make NamedTuple ``cls`` a frozen, typed record."""
    cls.__setattr__ = _setattr  # type: ignore[assignment]
    cls.__delattr__ = _delattr  # type: ignore[assignment]
    cls.__eq__ = _eq  # type: ignore[assignment]
    cls.__ne__ = _ne  # type: ignore[assignment]
    cls.__hash__ = tuple.__hash__  # type: ignore[assignment]
    return cls
