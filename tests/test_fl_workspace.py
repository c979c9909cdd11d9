"""Workspace isolation: one shared model trains exactly like a fresh one.

Clients own no model; every update loads its broadcast into the server's
single workspace.  That is only sound if nothing a previous client left
behind in the workspace (parameters, gradients, BatchNorm running stats,
pooled gradient buffers) can reach the next client's upload.  Each test
runs one client sequence through a shared workspace and a twin roster
(same ids, shards and seeds) through a fresh ``model_factory()`` model
per update, and requires the uploads to match byte for byte.  The fresh-
model reference exists only here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel
from repro.attacks.loki import LOKIAttack
from repro.data import make_synthetic_dataset
from repro.defense import make_defense
from repro.fl import Client, DishonestServer, ModelBroadcast, partition_dataset
from repro.nn import MLP, CrossEntropyLoss
from repro.nn.resnet import ResNet

NUM_CLIENTS = 3
# Client ids in dispatch order: repeats carry each client's RNG stream
# across rounds, interleaved so the workspace is never reused by the
# client that last wrote it.
SEQUENCE = (0, 1, 2, 0, 2, 1)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(4, 12, image_size=8, seed=41, name="workspace")


def mlp_factory(dataset):
    return lambda: MLP(
        [dataset.flat_dim, 16, dataset.num_classes],
        rng=np.random.default_rng(0),
    )


def imprint_factory(dataset, num_neurons=32):
    return lambda: ImprintedModel(
        dataset.image_shape,
        num_neurons,
        dataset.num_classes,
        rng=np.random.default_rng(5),
    )


def resnet_factory(dataset):
    return lambda: ResNet(
        [1, 1, 1, 1],
        dataset.num_classes,
        base_width=4,
        rng=np.random.default_rng(2),
    )


def make_roster(dataset, defense_spec=None):
    """Fresh clients with fixed seeds; one defense shared by the roster."""
    defense = None if defense_spec is None else make_defense(defense_spec, seed=9)
    return [
        Client(i, shard, CrossEntropyLoss(), batch_size=3, defense=defense, seed=4)
        for i, shard in enumerate(partition_dataset(dataset, NUM_CLIENTS, seed=1))
    ]


def drifting_broadcasts(factory):
    """One broadcast per step, each a different perturbation of the model."""
    base = factory().state_dict()
    rng = np.random.default_rng(17)
    return [
        ModelBroadcast(
            round_index=step,
            state={
                name: value + 0.05 * rng.standard_normal(value.shape)
                if name.endswith(("weight", "bias"))
                else value.copy()
                for name, value in base.items()
            },
        )
        for step in range(len(SEQUENCE))
    ]


def assert_same_upload(shared, fresh):
    assert shared.client_id == fresh.client_id
    assert shared.round_index == fresh.round_index
    assert shared.num_examples == fresh.num_examples
    assert np.float64(shared.loss).tobytes() == np.float64(fresh.loss).tobytes()
    assert list(shared.gradients) == list(fresh.gradients)
    for name, gradient in shared.gradients.items():
        assert gradient.dtype == fresh.gradients[name].dtype, name
        assert gradient.tobytes() == fresh.gradients[name].tobytes(), name


def run_both_ways(dataset, factory, defense_spec=None):
    """Replay SEQUENCE through one workspace and through fresh models."""
    broadcasts = drifting_broadcasts(factory)
    shared_roster = make_roster(dataset, defense_spec)
    fresh_roster = make_roster(dataset, defense_spec)
    workspace = factory()
    for client_id, broadcast in zip(SEQUENCE, broadcasts):
        shared = shared_roster[client_id].local_update(broadcast, workspace)
        own_model = factory()
        fresh = fresh_roster[client_id].local_update(broadcast, own_model)
        assert_same_upload(shared, fresh)
        # Buffers (BatchNorm running stats) advance identically too.
        after, expected = workspace.state_dict(), own_model.state_dict()
        assert list(after) == list(expected)
        for name, value in after.items():
            assert value.tobytes() == expected[name].tobytes(), name


class TestWorkspaceIsolation:
    def test_mlp(self, dataset):
        run_both_ways(dataset, mlp_factory(dataset))

    def test_imprinted_model_under_oasis(self, dataset):
        run_both_ways(dataset, imprint_factory(dataset), "MR+SH")

    def test_per_sample_clipping_loop(self, dataset):
        run_both_ways(dataset, imprint_factory(dataset), "MR>dpsgd")

    def test_batchnorm_resnet_buffers(self, dataset):
        run_both_ways(dataset, resnet_factory(dataset))

    def test_loki_per_client_crafted_round(self, dataset):
        factory = imprint_factory(dataset)

        class Recording(DishonestServer):
            """Keeps each client's crafted broadcast and every upload."""

            def broadcast_to(self, client, broadcast):
                sent = super().broadcast_to(client, broadcast)
                self.sent[client.client_id] = sent
                return sent

            def inspect_updates(self, updates):
                self.received = list(updates)
                return super().inspect_updates(updates)

        attack = LOKIAttack(32, seed=3)
        attack.calibrate_from_public_data(dataset.images)
        server = Recording(
            factory(), make_roster(dataset), attack=attack, seed=0
        )
        server.sent = {}
        server.run_round()
        assert len(server.received) == NUM_CLIENTS
        # The crafted broadcasts really are per client.
        states = [server.sent[i].state for i in range(NUM_CLIENTS)]
        assert any(
            not np.array_equal(states[0][name], states[1][name])
            for name in states[0]
        )
        fresh_roster = make_roster(dataset)
        for update in server.received:
            client_id = update.client_id
            fresh = fresh_roster[client_id].local_update(
                server.sent[client_id], factory()
            )
            assert_same_upload(update, fresh)
