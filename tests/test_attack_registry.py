"""The pluggable attack zoo: registration, factories, round-trips, detection."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.attacks import (
    ATTACKS,
    AttackRegistryError,
    AttackSpec,
    DuplicateAttackError,
    ImprintedModel,
    LinearClassifier,
    UnknownAttackError,
    make_attack,
)
from repro.defense import inspect_state
from repro.fl import compute_batch_gradients
from repro.nn import CrossEntropyLoss

BUILTIN_ATTACKS = ("rtf", "cah", "linear", "qbi", "loki")
NUM_NEURONS = 96

# The knob sets the constructors' signatures must keep yielding.
EXPECTED_KNOBS = {
    "rtf": {
        "measurement_mean", "measurement_std", "scale", "signal_tolerance",
        "denominator_floor",
    },
    "cah": {
        "activation_probability", "pixel_mean", "pixel_std",
        "signal_tolerance", "deduplicate",
    },
    "linear": {"signal_tolerance"},
    "qbi": {
        "expected_batch_size", "pixel_mean", "pixel_std",
        "signal_tolerance", "deduplicate",
    },
    "loki": {
        "activation_probability", "scale", "pixel_mean", "pixel_std",
        "signal_tolerance", "deduplicate",
    },
}


class _ProbeAttack:
    """Records what the registry passes; declares no ``seed``."""

    def __init__(self, num_neurons, strength=1.0, *, mode="a"):
        self.args = (num_neurons, strength, mode)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_ATTACKS) <= set(ATTACKS.names())

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(UnknownAttackError) as excinfo:
            ATTACKS["definitely-not-an-attack"]
        message = str(excinfo.value)
        for name in BUILTIN_ATTACKS:
            assert name in message

    def test_unknown_attack_error_is_a_value_error(self):
        # The per-figure harnesses historically caught ValueError.
        with pytest.raises(ValueError):
            make_attack("nope", 8, None)

    def test_duplicate_registration_refused(self):
        spec = AttackSpec(name="dup_test", factory=_ProbeAttack)
        ATTACKS.register(spec)
        try:
            with pytest.raises(DuplicateAttackError):
                ATTACKS.register(spec)
            # ... unless replacement is explicit.
            ATTACKS.register(spec, replace=True)
        finally:
            ATTACKS.unregister("dup_test")
        assert "dup_test" not in ATTACKS.names()

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownAttackError):
            ATTACKS.unregister("never_registered")

    def test_invalid_name_refused(self):
        with pytest.raises(AttackRegistryError):
            ATTACKS.register(AttackSpec(name="", factory=_ProbeAttack))
        with pytest.raises(AttackRegistryError):
            ATTACKS.register(AttackSpec(name="bad name", factory=_ProbeAttack))

    def test_unknown_knob_raises(self):
        with pytest.raises(AttackRegistryError, match="declared knobs"):
            make_attack("rtf", 8, None, not_a_knob=3)

    def test_declared_knobs_pass_through(self, cifar_like):
        attack = make_attack(
            "cah", 32, cifar_like.images[:64], activation_probability=0.07
        )
        assert attack.activation_probability == pytest.approx(0.07)

    def test_specs_declare_model_family(self):
        assert ATTACKS["linear"].model == "linear"
        assert not ATTACKS["linear"].crafts_model
        for name in ("rtf", "cah", "qbi", "loki"):
            assert ATTACKS[name].model == "imprint"
            assert ATTACKS[name].crafts_model

    def test_every_spec_has_description_and_knob_docs(self):
        # Knobs are documented where they are declared: the constructor.
        for name in BUILTIN_ATTACKS:
            spec = ATTACKS[name]
            assert spec.description
            doc = inspect.getdoc(spec.factory)
            for knob in spec.knobs:
                assert knob in doc, f"{name} does not document {knob}"


class TestSignatureKnobs:
    """Knobs come from the factory's signature: one declaration, no drift."""

    @pytest.mark.parametrize("name", BUILTIN_ATTACKS)
    def test_knobs_are_constructor_defaults(self, name):
        assert set(ATTACKS[name].knobs) == EXPECTED_KNOBS[name]

    @pytest.mark.parametrize("name", ATTACKS.names())
    def test_builds_with_signature_defaults(self, name):
        spec = ATTACKS[name]
        parameters = inspect.signature(spec.factory).parameters
        defaults = {knob: parameters[knob].default for knob in spec.knobs}
        assert make_attack(name, 6, None, seed=0, **defaults) is not None

    @pytest.mark.parametrize("name", ATTACKS.names())
    def test_undeclared_knob_raises(self, name):
        with pytest.raises(AttackRegistryError, match="declared knobs"):
            make_attack(name, 6, None, not_a_knob=1)

    def test_supplies_only_what_the_constructor_declares(self):
        spec = ATTACKS.register(AttackSpec(name="probe", factory=_ProbeAttack))
        try:
            assert spec.knobs == ("strength", "mode")
            attack = make_attack(
                "probe", 7, np.zeros((2, 3)), seed=5, strength=2.0
            )
        finally:
            ATTACKS.unregister("probe")
        assert attack.args == (7, 2.0, "a")

    def test_var_keyword_factory_refused(self):
        def factory(num_neurons, **knobs):
            raise AssertionError("never built")

        with pytest.raises(AttackRegistryError, match=r"\*\*kwargs"):
            ATTACKS.register(AttackSpec(name="kwargs_attack", factory=factory))
        assert "kwargs_attack" not in ATTACKS.names()


class TestRoundTrips:
    """Every registered attack survives craft -> client gradients -> reconstruct."""

    @pytest.fixture
    def batch(self, tiny_dataset, rng):
        return tiny_dataset.sample_batch(4, rng)

    @pytest.mark.parametrize(
        "name", [n for n in BUILTIN_ATTACKS if n != "linear"]
    )
    def test_imprint_attacks_round_trip(self, name, tiny_dataset, batch):
        images, labels = batch
        attack = make_attack(
            name, NUM_NEURONS, tiny_dataset.images[:96], seed=3
        )
        model = ImprintedModel(
            tiny_dataset.image_shape,
            NUM_NEURONS,
            tiny_dataset.num_classes,
            rng=np.random.default_rng(17),
        )
        attack.craft(model)
        gradients, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(gradients)
        assert len(result) >= 1, f"{name} recovered nothing from 4 images"
        assert result.images.shape[1:] == tiny_dataset.image_shape
        assert np.all(np.isfinite(result.images))
        assert result.occupancy is not None
        assert len(result.occupancy) == len(result)

    def test_linear_attack_round_trips(self, tiny_dataset, rng):
        from repro.data.loaders import class_balanced_batch

        images, labels = class_balanced_batch(
            tiny_dataset, 4, rng, unique_labels=True
        )
        attack = make_attack("linear", NUM_NEURONS, None)
        model = LinearClassifier(
            tiny_dataset.image_shape,
            tiny_dataset.num_classes,
            rng=np.random.default_rng(17),
        )
        attack.craft(model)
        gradients, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(gradients)
        assert len(result) >= 1
        assert np.all(np.isfinite(result.images))


class TestDetectionCoverage:
    """Client-side inspection flags every model-crafting attack in the zoo."""

    @pytest.mark.parametrize(
        "name", [n for n in BUILTIN_ATTACKS if ATTACKS[n].crafts_model]
    )
    def test_crafted_state_is_flagged(self, name, cifar_like):
        attack = make_attack(name, 100, cifar_like.images[:100], seed=1)
        model = ImprintedModel(
            cifar_like.image_shape, 100, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        if getattr(attack, "per_client_crafting", False):
            attack.assign_clients([0, 1, 2, 3])
            attack.craft_for_client(model, 1)
        else:
            attack.craft(model)
        report = inspect_state(
            model.state_dict(), probe_inputs=cifar_like.images[:64]
        )
        assert report.suspicious, f"{name} crafted state escaped detection"

    def test_clean_model_still_passes(self, cifar_like):
        model = ImprintedModel(
            cifar_like.image_shape, 100, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        report = inspect_state(
            model.state_dict(), probe_inputs=cifar_like.images[:64]
        )
        assert not report.suspicious, report.findings
