"""Property-based tests (hypothesis) for core invariants.

Invariant families, each load-bearing for the reproduction:

1. Autograd: gradients match finite differences on random inputs/shapes.
2. Augmentation: the geometric identities the defense analysis relies on
   (mean preservation, involutions, rotation group structure).
3. PSNR: metric axioms (symmetry in error magnitude, monotonicity, range).
4. Aggregation: FedAvg linearity/convexity (Eq. 1).
5. Partitioning: Dirichlet label skew covers every sample exactly once.
6. Aggregators: every rule is invariant to the order clients report in.
7. SecAgg: any supra-threshold survivor set recovers the exact sum.
8. Event engine: heap pop order and arrival plans are pure functions of
   the event/cohort *set*, never of push or registration order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.augment import horizontal_flip, rotate, shear, vertical_flip
from repro.fl import (
    Event,
    EventQueue,
    UniformArrivals,
    average_gradients,
    dirichlet_partition_indices,
    make_aggregator,
)
from repro.fl.engine import EVENT_KINDS
from repro.fl.secagg.field import PRIME_INT, f_pow
from repro.metrics import PSNR_CEILING, psnr
from repro.tensor import Tensor
from repro.utils import numerical_gradient

finite_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def small_arrays(min_dims=1, max_dims=2, max_side=5):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=min_dims, max_dims=max_dims, max_side=max_side),
        elements=finite_floats,
    )


def images(side=8):
    return arrays(
        dtype=np.float64,
        shape=(3, side, side),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


class TestAutogradProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_arrays())
    def test_sum_gradient_is_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    @settings(max_examples=20, deadline=None)
    @given(small_arrays())
    def test_square_gradient(self, x):
        t = Tensor(x, requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, 2.0 * x, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(max_dims=1, max_side=6))
    def test_elementwise_chain_matches_numeric(self, x):
        x = x + 0.1 * np.sign(x) + 0.05  # avoid the ReLU kink

        def loss(t):
            return ((t.relu() + 1.0) * t).sum()

        t = Tensor(x.copy(), requires_grad=True)
        loss(t).backward()
        numeric = numerical_gradient(lambda p: loss(Tensor(p)).item(), x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(
        arrays(np.float64, (3, 4), elements=finite_floats),
        arrays(np.float64, (4, 2), elements=finite_floats),
    )
    def test_matmul_grad_shapes(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape

    @settings(max_examples=15, deadline=None)
    @given(small_arrays())
    def test_linearity_of_backward(self, x):
        # d(3L)/dx == 3 dL/dx
        t1 = Tensor(x.copy(), requires_grad=True)
        (t1 * t1).sum().backward()
        t3 = Tensor(x.copy(), requires_grad=True)
        ((t3 * t3).sum() * 3.0).backward()
        np.testing.assert_allclose(t3.grad, 3.0 * t1.grad, atol=1e-10)


class TestAugmentationProperties:
    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_rot90_four_times_identity(self, image):
        out = image
        for _ in range(4):
            out = rotate(out, 90)
        np.testing.assert_array_equal(out, image)

    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_rot90_composition(self, image):
        np.testing.assert_array_equal(
            rotate(rotate(image, 90), 90), rotate(image, 180)
        )

    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_flip_involutions(self, image):
        np.testing.assert_array_equal(horizontal_flip(horizontal_flip(image)), image)
        np.testing.assert_array_equal(vertical_flip(vertical_flip(image)), image)

    @settings(max_examples=20, deadline=None)
    @given(images(), st.sampled_from([30.0, 45.0, 60.0, 15.0, 75.0]))
    def test_minor_rotation_preserves_mean(self, image, angle):
        assert np.isclose(rotate(image, angle).mean(), image.mean(), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(images(), st.floats(min_value=0.1, max_value=1.5))
    def test_shear_preserves_mean(self, image, factor):
        assert np.isclose(shear(image, factor).mean(), image.mean(), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_major_rotation_preserves_multiset(self, image):
        np.testing.assert_allclose(
            np.sort(rotate(image, 270).ravel()), np.sort(image.ravel())
        )

    @settings(max_examples=10, deadline=None)
    @given(images())
    def test_transforms_preserve_shape(self, image):
        for out in (
            rotate(image, 37.0),
            shear(image, 0.8),
            horizontal_flip(image),
            vertical_flip(image),
        ):
            assert out.shape == image.shape


class TestPSNRProperties:
    @settings(max_examples=20, deadline=None)
    @given(images(side=6))
    def test_self_psnr_is_ceiling(self, image):
        assert psnr(image, image) == PSNR_CEILING

    @settings(max_examples=20, deadline=None)
    @given(images(side=6), st.floats(min_value=0.01, max_value=0.3))
    def test_symmetric(self, image, eps):
        other = np.clip(image + eps, 0, 1)
        assert np.isclose(psnr(image, other), psnr(other, image))

    @settings(max_examples=20, deadline=None)
    @given(images(side=6), st.floats(min_value=0.01, max_value=0.2))
    def test_monotone_in_perturbation(self, image, eps):
        closer = image + eps / 2
        farther = image + eps
        assert psnr(image, closer) >= psnr(image, farther)

    @settings(max_examples=20, deadline=None)
    @given(images(side=6), images(side=6))
    def test_bounded_above_by_ceiling(self, a, b):
        assert psnr(a, b) <= PSNR_CEILING


class TestAggregationProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(arrays(np.float64, (4,), elements=finite_floats),
                    min_size=1, max_size=6))
    def test_average_within_convex_hull(self, grads):
        updates = [{"w": g} for g in grads]
        out = average_gradients(updates)["w"]
        stacked = np.stack(grads)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (4,), elements=finite_floats),
           st.integers(min_value=1, max_value=8))
    def test_average_of_identical_is_identity(self, grad, count):
        out = average_gradients([{"w": grad.copy()} for _ in range(count)])["w"]
        np.testing.assert_allclose(out, grad, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (3,), elements=finite_floats),
           arrays(np.float64, (3,), elements=finite_floats))
    def test_permutation_invariance(self, a, b):
        ab = average_gradients([{"w": a}, {"w": b}])["w"]
        ba = average_gradients([{"w": b}, {"w": a}])["w"]
        np.testing.assert_allclose(ab, ba, atol=1e-12)


class TestDirichletPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        labels=arrays(
            np.int64,
            array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=60),
            elements=st.integers(min_value=0, max_value=5),
        ),
        num_clients=st.integers(min_value=1, max_value=7),
        alpha=st.floats(min_value=1e-3, max_value=100.0,
                        allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_covers_all_samples_exactly_once(self, labels, num_clients, alpha, seed):
        rng = np.random.default_rng(seed)
        parts = dirichlet_partition_indices(labels, num_clients, alpha, rng)
        assert len(parts) == num_clients
        merged = np.sort(np.concatenate([p for p in parts] + [np.array([], int)]))
        np.testing.assert_array_equal(merged, np.arange(len(labels)))


class TestAggregatorOrderInvariance:
    @pytest.mark.parametrize(
        "name", ["fedavg", "median", "trimmed_mean", "masked_sum"]
    )
    @settings(max_examples=15, deadline=None)
    @given(
        grads=st.lists(arrays(np.float64, (5,), elements=finite_floats),
                       min_size=2, max_size=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_aggregate_is_permutation_invariant(self, name, grads, seed):
        updates = [{"w": g} for g in grads]
        base = make_aggregator(name).aggregate(updates)["w"]
        order = np.random.default_rng(seed).permutation(len(updates))
        shuffled = make_aggregator(name).aggregate(
            [updates[i] for i in order]
        )["w"]
        np.testing.assert_allclose(shuffled, base, atol=1e-9)


class TestFieldPowProperties:
    """``f_pow`` with array exponents is Python's ``pow`` mod the prime,
    elementwise and under broadcasting — the kernel that computes every
    pairwise Diffie–Hellman secret of a SecAgg round in one pass."""

    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, PRIME_INT - 1),
                st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**64 - 1)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_array_exponents_match_python_pow(self, pairs):
        bases = np.array([b for b, _ in pairs], dtype=np.uint64)
        exps = np.array([e for _, e in pairs], dtype=np.uint64)
        np.testing.assert_array_equal(
            f_pow(bases, exps),
            np.array([pow(b, e, PRIME_INT) for b, e in pairs], dtype=np.uint64),
        )
        outer = f_pow(bases[None, :], exps[:, None])
        expected = [[pow(b, e, PRIME_INT) for b, _ in pairs] for _, e in pairs]
        np.testing.assert_array_equal(outer, np.array(expected, dtype=np.uint64))


class TestSecAggRecoveryProperties:
    """Protocol invariant: ANY survivor set of at least the threshold
    recovers the survivors' exact quantized sum bit-for-bit, and any
    smaller set must raise — for both protocol families."""

    def _grid_matrix(self, data, n, dim=4):
        cells = data.draw(
            st.lists(
                st.lists(st.integers(-4000, 4000), min_size=dim, max_size=dim),
                min_size=n,
                max_size=n,
            )
        )
        return np.asarray(cells, dtype=np.float64) / 1024.0

    @pytest.mark.parametrize("protocol_name", ["secagg", "secagg_oneshot"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_supra_threshold_survivor_set_recovers_exact_sum(
        self, protocol_name, data
    ):
        n = data.draw(st.integers(min_value=3, max_value=8), label="n")
        matrix = self._grid_matrix(data, n)
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        aggregator = make_aggregator(protocol_name, seed=seed)
        threshold = aggregator.threshold_for(n)
        k = data.draw(st.integers(min_value=threshold, max_value=n), label="k")
        survivors = sorted(
            data.draw(st.permutations(list(range(n))), label="order")[:k]
        )
        committed = list(range(n))
        recovered = aggregator.protocol_round(
            matrix[survivors], survivors, committed, round_index=2
        )
        exact = aggregator.codec.quantize(matrix[survivors], count=n).sum(
            axis=0, dtype=np.uint64
        )
        expected = aggregator.codec.dequantize_sum(exact) / len(survivors)
        np.testing.assert_array_equal(recovered, expected)

    @pytest.mark.parametrize("protocol_name", ["secagg", "secagg_oneshot"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_sub_threshold_survivor_set_raises(self, protocol_name, data):
        from repro.fl import BelowThresholdError

        n = data.draw(st.integers(min_value=3, max_value=8), label="n")
        matrix = self._grid_matrix(data, n)
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        aggregator = make_aggregator(protocol_name, seed=seed)
        threshold = aggregator.threshold_for(n)
        k = data.draw(st.integers(min_value=1, max_value=threshold - 1), label="k")
        survivors = sorted(
            data.draw(st.permutations(list(range(n))), label="order")[:k]
        )
        with pytest.raises(BelowThresholdError):
            aggregator.protocol_round(
                matrix[survivors], survivors, list(range(n)), round_index=2
            )


class TestEventHeapOrderInvariance:
    """Engine invariant: pop order is a pure function of the event *set*.

    The sort key is the event's identity ``(time, kind priority,
    client_id)`` — never a heap insertion counter — so the order clients
    were registered, selected, or pushed can never leak into the round's
    timeline.  This is what makes time-cutoff arms byte-identical across
    serial and parallel sweep executions.
    """

    event_triples = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.sampled_from(EVENT_KINDS),
            st.integers(min_value=-1, max_value=40),
        ),
        min_size=1,
        max_size=24,
        unique=True,
    )

    @settings(max_examples=40, deadline=None)
    @given(triples=event_triples, seed=st.integers(min_value=0, max_value=2**16))
    def test_pop_order_invariant_to_push_order(self, triples, seed):
        events = [Event(time=t, kind=k, client_id=c) for t, k, c in triples]
        expected = sorted(e.sort_key for e in events)
        order = np.random.default_rng(seed).permutation(len(events))
        queue = EventQueue([events[i] for i in order])
        popped = []
        while queue:
            popped.append(queue.pop().sort_key)
        assert popped == expected

    @settings(max_examples=40, deadline=None)
    @given(triples=event_triples, seed=st.integers(min_value=0, max_value=2**16))
    def test_interleaved_push_pop_emits_sorted_remainder(self, triples, seed):
        # Pops interleaved with further pushes (the engine schedules the
        # close event mid-round) still always emit the smallest queued
        # keys, and the final drain is the sorted remaining set.
        events = [Event(time=t, kind=k, client_id=c) for t, k, c in triples]
        rng = np.random.default_rng(seed)
        shuffled = [events[i] for i in rng.permutation(len(events))]
        half = len(shuffled) // 2
        queue = EventQueue(shuffled[:half])
        early = [queue.pop().sort_key for _ in range(len(queue) // 2)]
        assert early == sorted(e.sort_key for e in shuffled[:half])[: len(early)]
        for event in shuffled[half:]:
            queue.push(event)
        drained = []
        while queue:
            drained.append(queue.pop().sort_key)
        remaining = set(e.sort_key for e in events) - set(early)
        assert drained == sorted(remaining)

    @settings(max_examples=25, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=16,
            unique=True,
        ),
        round_index=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        arrivals_seed=st.integers(min_value=0, max_value=2**8),
    )
    def test_arrival_plans_invariant_to_registration_order(
        self, ids, round_index, seed, arrivals_seed
    ):
        # Trace RNG streams are keyed per (client, round), so the plan's
        # completion tick for a client cannot depend on cohort order.
        process = UniformArrivals(seed=arrivals_seed)
        order = np.random.default_rng(seed).permutation(len(ids))
        base = process.plan_round(ids, round_index, 0, np.random.default_rng(0))
        shuffled = process.plan_round(
            [ids[i] for i in order], round_index, 0, np.random.default_rng(0)
        )
        by_id = {s.client_id: s.time for s in base.dispatched}
        assert {s.client_id: s.time for s in shuffled.dispatched} == by_id
