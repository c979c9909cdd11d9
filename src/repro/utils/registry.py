"""One name table for every pluggable zoo.

Attacks, defenses, lint rules, aggregators and arrival processes all
resolve by name, and all follow one registration policy, kept here: a
name must match the table's pattern, a duplicate is refused unless
``replace=True``, an unknown name raises an error that lists the
registered names, and names list in registration order.

Register at import time, in a module that parallel sweep workers also
import: under the ``spawn`` start method (the default off Linux) each
worker re-imports the tables fresh, so an entry registered only in the
parent process is unknown to the workers.
"""

from __future__ import annotations

import re
from typing import Generic, Optional, TypeVar

Entry = TypeVar("Entry")


class Registry(Generic[Entry]):
    """A name -> entry table for one kind of pluggable component.

    ``kind`` names the entries in messages (``"unknown attack 'x';
    registered attacks: ..."``).  Every name must fully match
    ``pattern``; ``rule`` says in words what the pattern allows.  Bad
    names raise ``error``; unknown and duplicate names raise ``unknown``
    and ``duplicate``, which default to ``error``.
    """

    def __init__(
        self,
        kind: str,
        pattern: str,
        rule: str,
        error: type[Exception] = ValueError,
        unknown: Optional[type[Exception]] = None,
        duplicate: Optional[type[Exception]] = None,
    ) -> None:
        self.kind = kind
        self._plural = kind + ("es" if kind.endswith("s") else "s")
        self._pattern = re.compile(pattern)
        self._rule = rule
        self._error = error
        self._unknown = unknown or error
        self._duplicate = duplicate or error
        self._entries: dict[str, Entry] = {}

    def register(
        self, entry: Entry, name: Optional[str] = None, replace: bool = False
    ) -> Entry:
        """Add ``entry`` under ``name`` (default ``entry.name``); return it."""
        name = entry.name if name is None else name
        if not isinstance(name, str) or not self._pattern.fullmatch(name):
            raise self._error(f"{self.kind} name {name!r} must be {self._rule}")
        if name in self._entries and not replace:
            raise self._duplicate(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to overwrite it deliberately"
            )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (plugin teardown / test hygiene)."""
        if name not in self._entries:
            raise self._unknown(f"cannot unregister unknown {self.kind} {name!r}")
        del self._entries[name]

    def __getitem__(self, name: str) -> Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise self._unknown(
                f"unknown {self.kind} {name!r}; registered {self._plural}: "
                f"{', '.join(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._entries)

    def values(self) -> tuple[Entry, ...]:
        """Every registered entry, in registration order."""
        return tuple(self._entries.values())
