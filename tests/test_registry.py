"""The one name table behind every zoo: attacks, defenses, lint rules,
aggregators and arrival processes all follow the same registration policy."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.attacks import (
    ATTACKS,
    AttackRegistryError,
    AttackSpec,
    DuplicateAttackError,
    UnknownAttackError,
)
from repro.defense import (
    DEFENSES,
    DefenseRegistryError,
    DefenseSpec,
    DuplicateDefenseError,
    NoDefense,
    UnknownDefenseError,
)
from repro.fl import AGGREGATORS, ARRIVALS, FedAvgAggregator, UniformArrivals
from repro.lint import (
    RULES,
    DuplicateRuleError,
    LintRegistryError,
    Rule,
    UnknownRuleError,
)
from repro.utils.registry import Registry

SRC = Path(__file__).resolve().parent.parent / "src"


class _ProbeAttack:
    def __init__(self, num_neurons):
        self.num_neurons = num_neurons


@dataclass(frozen=True)
class Table:
    """One registry under test and how to make a scratch entry for it."""

    label: str
    registry: Registry
    make_entry: Callable[[str], object]
    scratch: tuple[str, str]  # two valid, unregistered names
    invalid: str
    error: type[Exception]
    unknown: type[Exception]
    duplicate: type[Exception]


TABLES = (
    Table(
        "attacks", ATTACKS,
        lambda name: AttackSpec(name=name, factory=_ProbeAttack),
        ("scratch_a", "scratch_b"), "bad name",
        AttackRegistryError, UnknownAttackError, DuplicateAttackError,
    ),
    Table(
        "defenses", DEFENSES,
        lambda name: DefenseSpec(name=name, factory=NoDefense),
        ("scratch_a", "scratch+b"), "MR>dpsgd",
        DefenseRegistryError, UnknownDefenseError, DuplicateDefenseError,
    ),
    Table(
        "rules", RULES,
        lambda name: Rule(name=name, check=lambda context: []),
        ("scratch-a", "scratch-b"), "Has_Caps",
        LintRegistryError, UnknownRuleError, DuplicateRuleError,
    ),
    Table(
        "aggregators", AGGREGATORS,
        lambda name: type("Scratch", (FedAvgAggregator,), {"name": name}),
        ("scratch_a", "scratch_b"), "FedAvg",
        ValueError, ValueError, ValueError,
    ),
    Table(
        "arrivals", ARRIVALS,
        lambda name: type("Scratch", (UniformArrivals,), {"name": name}),
        ("scratch-a", "scratch-b"), "scratch a",
        ValueError, ValueError, ValueError,
    ),
)


@pytest.fixture(params=TABLES, ids=lambda table: table.label)
def table(request):
    table = request.param
    builtins = table.registry.names()
    yield table
    for name in table.scratch:
        if name in table.registry.names():
            table.registry.unregister(name)
    assert table.registry.names() == builtins


class TestRegistryPolicy:
    def test_errors_are_value_errors(self, table):
        for error in (table.error, table.unknown, table.duplicate):
            assert issubclass(error, ValueError)

    def test_unknown_name_lists_registered_names(self, table):
        with pytest.raises(table.unknown) as excinfo:
            table.registry["no_such_entry"]
        message = str(excinfo.value)
        assert f"unknown {table.registry.kind} 'no_such_entry'" in message
        assert "registered " in message
        for name in table.registry.names():
            assert name in message

    def test_duplicate_refused_unless_replace(self, table):
        name = table.scratch[0]
        first = table.registry.register(table.make_entry(name))
        with pytest.raises(table.duplicate, match="already registered"):
            table.registry.register(table.make_entry(name))
        assert table.registry[name] is first
        second = table.registry.register(table.make_entry(name), replace=True)
        assert table.registry[name] is second

    def test_names_list_in_registration_order(self, table):
        builtins = table.registry.names()
        entries = [table.registry.register(table.make_entry(name))
                   for name in table.scratch]
        assert table.registry.names() == builtins + table.scratch
        assert table.registry.values()[-2:] == tuple(entries)

    def test_unregister_round_trip(self, table):
        builtins = table.registry.names()
        name = table.scratch[0]
        table.registry.register(table.make_entry(name))
        assert name in table.registry.names()
        table.registry.unregister(name)
        assert table.registry.names() == builtins
        with pytest.raises(table.unknown):
            table.registry[name]
        with pytest.raises(table.unknown, match="cannot unregister"):
            table.registry.unregister(name)

    def test_invalid_name_refused(self, table):
        with pytest.raises(table.error, match="name"):
            table.registry.register(table.make_entry(table.invalid))
        assert table.invalid not in table.registry.names()


def test_plural_of_a_kind_ending_in_s():
    with pytest.raises(ValueError, match="registered arrival processes: "):
        ARRIVALS["bursty"]


def test_protocol_aggregators_resolve_in_a_fresh_interpreter():
    # The secagg rules register from repro.fl.secagg at import time; a
    # fresh interpreter (like a spawn-started sweep worker) must see them
    # after importing only repro.fl.aggregators.
    code = (
        "from repro.fl.aggregators import make_aggregator; "
        "make_aggregator('secagg'); make_aggregator('secagg_oneshot')"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
