"""Lazy-fleet tests: O(cohort) materialization, factory contract, soak.

The fleet is what makes 100k–1M registered users affordable: registration
stores a factory and a count, and a ``Client`` (shard, RNG stream)
exists only once the engine dispatches its id.  These tests pin the
laziness itself (materialized counts), the purity contract that makes
laziness sound (``factory(i).client_id == i``, same client object across
rounds), and — behind the ``fleet_scale`` marker — the sustained
multi-round soak at 1k active clients from a 100k-user registry that the
CI ``fleet-scale`` job runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_synthetic_dataset
from repro.fl import (
    FederationConfig,
    FederatedSimulation,
    Fleet,
    Server,
    TimeCutoff,
    make_lazy_fleet,
)
from repro.fl.engine import ticks
from repro.nn import MLP
from repro.nn.module import Module
from stubs import StubClient


class TestFleetRegistry:
    def test_registration_is_lazy(self):
        built = []

        def factory(client_id: int) -> StubClient:
            built.append(client_id)
            return StubClient(client_id)

        fleet = Fleet(100_000, factory)
        assert len(fleet) == 100_000
        assert fleet.materialized_count == 0
        assert built == []
        assert fleet.client_ids == range(100_000)

    def test_materialization_caches(self):
        calls = []
        fleet = Fleet(10, lambda i: (calls.append(i), StubClient(i))[1])
        first = fleet.get(7)
        again = fleet.get(7)
        assert first is again
        assert calls == [7]
        assert fleet.materialized_count == 1

    def test_factory_contract_enforced(self):
        fleet = Fleet(10, lambda i: StubClient(i + 1))
        with pytest.raises(ValueError, match="factory returned client_id"):
            fleet.get(0)

    def test_out_of_range_rejected(self):
        fleet = Fleet(5, StubClient)
        with pytest.raises(KeyError):
            fleet.get(5)
        with pytest.raises(KeyError):
            fleet.get(-1)
        assert 4 in fleet and 5 not in fleet

    def test_from_clients_requires_dense_ids(self):
        with pytest.raises(ValueError, match="at least one client"):
            Fleet.from_clients([])
        with pytest.raises(ValueError, match="0..n-1"):
            Fleet.from_clients([StubClient(0), StubClient(2)])
        fleet = Fleet.from_clients([StubClient(0), StubClient(1)])
        assert fleet.materialized_count == 2
        assert [c.client_id for c in fleet] == [0, 1]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Fleet(0, StubClient)


class TestServerOverLazyFleet:
    def test_server_materializes_only_dispatched_clients(self):
        fleet = Fleet(10_000, StubClient)
        server = Server(Module(), fleet, clients_per_round=16, seed=0)
        record = server.run_round()
        assert len(record.participant_ids) == 16
        assert fleet.materialized_count == 16

    def test_sampling_identical_to_eager_fleet(self):
        # The engine draws selection from fleet *size*, so a lazy fleet
        # and an eager roster of the same size share the RNG stream.
        lazy = Server(Module(), Fleet(64, StubClient), clients_per_round=8, seed=5)
        eager = Server(
            Module(), [StubClient(i) for i in range(64)], clients_per_round=8, seed=5
        )
        for _ in range(4):
            a, b = lazy.run_round(), eager.run_round()
            assert a.selected_ids == b.selected_ids
            assert a.participant_ids == b.participant_ids
        assert lazy.fleet.materialized_count <= 32

    def test_sampled_client_is_same_object_across_rounds(self):
        fleet = Fleet(4, StubClient)
        server = Server(Module(), fleet, seed=0)
        server.run(2)
        assert fleet.materialized_count == 4
        assert fleet.get(0) is fleet.get(0)


class TestLazySimulation:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_synthetic_dataset(4, 24, image_size=8, seed=13, name="fleet")

    def make_config(self, fleet_size, **kwargs):
        return FederationConfig(
            batch_size=2,
            seed=3,
            fleet_size=fleet_size,
            **kwargs,
        )

    def test_shards_are_pure_functions_of_client_id(self, dataset):
        config = self.make_config(1000, shard_size=4)
        one = make_lazy_fleet(dataset, config)
        other = make_lazy_fleet(dataset, config)
        # Materialize in different orders; shards must match per id.
        for cid in (977, 3, 500):
            np.testing.assert_array_equal(
                one.get(cid).dataset.images, other.get(cid).dataset.images
            )
        assert one.materialized_count == 3

    def test_simulation_over_lazy_fleet_runs(self, dataset):
        config = self.make_config(
            500,
            clients_per_round=8,
            arrivals="tiered",
            round_duration_s=1.0,
            min_arrivals=1,
        )
        sim = FederatedSimulation(
            dataset,
            lambda: MLP(
                [dataset.flat_dim, 4, dataset.num_classes],
                rng=np.random.default_rng(0),
            ),
            config,
        )
        records = sim.run(3)
        assert sim.fleet.materialized_count <= 3 * 8
        assert any(np.isfinite(r.mean_loss) for r in records)
        for record in records:
            assert record.timing is not None

    @pytest.mark.parametrize("fleet_size", [0, 100_000])
    def test_model_factory_builds_one_model(self, dataset, fleet_size):
        # One global model per federation, however many clients exist:
        # clients train in the server's workspace, never in a model of
        # their own.
        builds = []

        def factory():
            builds.append(1)
            return MLP(
                [dataset.flat_dim, 4, dataset.num_classes],
                rng=np.random.default_rng(0),
            )

        config = self.make_config(fleet_size, num_clients=10, clients_per_round=8)
        sim = FederatedSimulation(dataset, factory, config)
        sim.run(1)
        assert sim.fleet.materialized_count == (8 if fleet_size else 10)
        assert len(builds) == 1
        assert not hasattr(sim.fleet.get(0), "model")

    def test_lazy_fleet_validates_inputs(self, dataset):
        with pytest.raises(ValueError, match="fleet_size"):
            make_lazy_fleet(dataset, self.make_config(0))
        with pytest.raises(ValueError, match="shard_size"):
            make_lazy_fleet(dataset, self.make_config(10, shard_size=10_000))


@pytest.mark.fleet_scale
class TestFleetScaleSoak:
    """Sustained multi-round soak at 1k active clients (CI fleet-scale job)."""

    def test_1k_active_clients_from_100k_fleet_sustained(self):
        fleet = Fleet(100_000, StubClient)
        server = Server(
            Module(),
            fleet,
            clients_per_round=1000,
            arrivals="tiered",
            cutoff=TimeCutoff(ticks(2.0), min_arrivals=100),
            seed=0,
        )
        records = server.run(5)
        for record in records:
            assert len(record.selected_ids) == 1000
            assert len(record.participant_ids) >= 100
        # Laziness holds at scale: only dispatched clients ever exist.
        assert fleet.materialized_count <= 5 * 1000
        assert server.clock.now > 0

    def test_1k_real_clients_train_the_global_model(self):
        dataset = make_synthetic_dataset(
            4, 32, image_size=8, seed=29, name="fleet-soak"
        )
        config = FederationConfig(
            batch_size=2,
            seed=11,
            fleet_size=100_000,
            shard_size=4,
            clients_per_round=1000,
            learning_rate=0.05,
            arrivals="tiered",
            round_duration_s=3.0,
            min_arrivals=200,
        )
        sim = FederatedSimulation(
            dataset,
            lambda: MLP(
                [dataset.flat_dim, 8, dataset.num_classes],
                rng=np.random.default_rng(0),
            ),
            config,
        )
        records = sim.run(3)
        assert all(len(r.participant_ids) >= 200 for r in records)
        assert all(np.isfinite(r.mean_loss) for r in records)
        assert sim.fleet.materialized_count <= 3 * 1000
