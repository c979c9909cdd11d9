"""Experiment harnesses: runners, sweeps, lineups, Table I, Fig 14, visuals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel, LinearClassifier, make_global_model
from repro.data import make_synthetic_dataset
from repro.defense import DPGradientDefense, OasisDefense, make_defense
from repro.experiments import (
    TABLE1_LINEUP,
    PaperComparison,
    SweepStore,
    comparison_table,
    format_table,
    monotone_in_batch_size,
    reconstruction_gallery,
    render_ascii_image,
    render_pairs,
    run_ats_comparison,
    run_attack_trial,
    run_defense_lineup,
    run_sweep,
    run_table1,
    side_by_side,
    table1_report,
    train_with_defense,
)
from repro.nn import MLP


class TestRunner:
    def test_rtf_trial_undefended_is_perfect(self, cifar_like):
        result = run_attack_trial(cifar_like, "rtf", 4, 100, seed=3)
        assert result.average_psnr > 120.0
        assert result.attack == "rtf"
        assert result.defense == "WO"

    def test_rtf_trial_defended_is_low(self, cifar_like):
        result = run_attack_trial(
            cifar_like, "rtf", 4, 100, defense=OasisDefense("MR"), seed=3
        )
        assert result.average_psnr < 40.0

    def test_cah_trial_runs(self, cifar_like):
        result = run_attack_trial(cifar_like, "cah", 8, 100, seed=3)
        assert result.num_reconstructions > 0

    def test_unknown_attack_rejected(self, cifar_like):
        with pytest.raises(ValueError):
            run_attack_trial(cifar_like, "dlg", 4, 100)

    def test_linear_trial(self, cifar_like):
        result = run_attack_trial(cifar_like, "linear", 8, 0, seed=3)
        assert result.attack == "linear"
        assert result.num_reconstructions == 8
        # Sec. IV-D: the linear batch carries unique labels.
        assert len(result.originals) == 8
        assert result.reconstructions.shape == result.originals.shape

    def test_linear_batch_caps_at_class_count(self, tiny_dataset):
        result = run_attack_trial(tiny_dataset, "linear", 8, 0, seed=3)
        assert len(result.originals) == tiny_dataset.num_classes

    def test_trial_carries_batch_and_reconstructions(self, cifar_like):
        result = run_attack_trial(cifar_like, "rtf", 4, 100, seed=3)
        assert result.originals.shape == (4,) + cifar_like.image_shape
        assert len(result.reconstructions) == result.num_reconstructions
        assert len(result.per_image_best) == 4

    def test_dp_defense_reduces_rtf(self, cifar_like):
        clean = run_attack_trial(cifar_like, "rtf", 4, 100, seed=3)
        noisy = run_attack_trial(
            cifar_like, "rtf", 4, 100,
            defense=DPGradientDefense(clip_norm=1.0, noise_multiplier=0.5), seed=3,
        )
        assert noisy.average_psnr < clean.average_psnr

    def test_trials_reproducible(self, cifar_like):
        a = run_attack_trial(cifar_like, "rtf", 4, 100, seed=5)
        b = run_attack_trial(cifar_like, "rtf", 4, 100, seed=5)
        assert a.psnrs == b.psnrs


class TestGlobalModel:
    """Trials build the global model the attack's spec names."""

    def test_linear_trial_runs_on_the_linear_model(self, cifar_like):
        result = run_attack_trial(cifar_like, "linear", 4, 32, seed=3)
        assert result.attack == "linear"
        assert result.num_reconstructions > 0
        assert len(result.psnrs) == result.num_reconstructions

    def test_linear_lineup_has_no_errors(self, cifar_like):
        result = run_defense_lineup(
            cifar_like, "linear", 4, 32, ("WO", "MR"), num_trials=1
        )
        assert result.errors == {}
        assert all(len(values) for values in result.distributions.values())

    def test_model_family_follows_the_spec(self, cifar_like):
        assert isinstance(
            make_global_model("linear", cifar_like, 32, 1), LinearClassifier
        )
        for name in ("rtf", "cah", "qbi", "loki"):
            assert isinstance(
                make_global_model(name, cifar_like, 32, 1), ImprintedModel
            )

    def test_imprint_model_keeps_its_bytes(self, cifar_like):
        # The model every imprint trial, the sweep and Fig. 14 built
        # inline before sharing the builder.
        inline = ImprintedModel(
            cifar_like.image_shape, 100, cifar_like.num_classes,
            rng=np.random.default_rng(4),
        )
        shared = make_global_model("rtf", cifar_like, 100, 4)
        for (name, a), (_, b) in zip(
            inline.named_parameters(), shared.named_parameters()
        ):
            assert a.data.tobytes() == b.data.tobytes(), name


class TestSweep:
    def test_grid_shape_and_trend(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 16, 64),
            neuron_counts=(50, 150),
            num_trials=1,
        )
        assert result.grid.shape == (2, 3)
        assert monotone_in_batch_size(result) >= 0.5

    def test_optima_selected_per_batch(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 16),
            neuron_counts=(50, 150),
            num_trials=1,
        )
        assert set(result.optima) == {4, 16}
        for n, value in result.optima.values():
            assert n in (50, 150)
            assert value > 0.0

    def test_oversized_batch_is_nan(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 100_000),
            neuron_counts=(50,),
            num_trials=1,
        )
        assert np.isnan(result.grid[0, 1])

    def test_table_renders(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf", batch_sizes=(4,), neuron_counts=(50,), num_trials=1
        )
        table = result.to_table()
        assert "50" in table


class TestLineups:
    def test_fig5_style_lineup(self, cifar_like):
        result = run_defense_lineup(
            cifar_like, "rtf", 4, 100, ("WO", "MR"), num_trials=1
        )
        averages = result.averages()
        assert averages["WO"] > averages["MR"] + 80.0
        assert "WO" in result.to_table()

    def test_fig13_lineup(self, cifar_like):
        result = run_defense_lineup(
            cifar_like, "linear", 4, 0, ("WO", "MR"), num_trials=1
        )
        averages = result.averages()
        assert averages["WO"] > averages["MR"]

    def test_fig13_lineup_store_bytes_serial_vs_workers(self, cifar_like, tmp_path):
        paths = []
        for workers in (1, 2):
            path = tmp_path / f"fig13_w{workers}.log"
            result = run_defense_lineup(
                cifar_like, "linear", 4, 0, ("WO", "MR", "dpsgd"),
                num_trials=2, seed=19, store=SweepStore(path), workers=workers,
            )
            assert result.errors == {}
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTable1:
    def _factory(self, dataset):
        return lambda: MLP([dataset.flat_dim, 32, dataset.num_classes],
                           rng=np.random.default_rng(1))

    def test_training_improves_over_chance(self, tiny_dataset):
        outcome = train_with_defense(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            epochs=15, batch_size=8,
        )
        assert outcome.test_accuracy > 1.5 / tiny_dataset.num_classes

    def test_oasis_arm_trains_comparably(self, tiny_dataset):
        base = train_with_defense(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            epochs=15, batch_size=8,
        )
        oasis = train_with_defense(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            defense=OasisDefense("HFlip"), epochs=15, batch_size=8,
        )
        assert oasis.test_accuracy > base.test_accuracy - 0.35

    @pytest.mark.parametrize("arm", ["dpsgd", "MR>dpsgd", "prune"])
    def test_gradient_stage_arm_raises(self, tiny_dataset, arm):
        with pytest.raises(ValueError, match="gradient-stage"):
            run_table1(
                tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
                lineup=(arm,), epochs=1, batch_size=8,
            )

    def test_paper_lineup_is_batch_only(self, tiny_dataset):
        outcomes = run_table1(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            lineup=TABLE1_LINEUP, epochs=1, batch_size=8,
        )
        assert set(outcomes) == set(TABLE1_LINEUP)

    def test_run_table1_and_report(self, tiny_dataset):
        outcomes = run_table1(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            lineup=("HFlip", "WO"), epochs=5, batch_size=8,
        )
        report = table1_report(outcomes)
        assert "WO" in report and "HFlip" in report


class TestATSComparison:
    def test_transform_replace_fails_oasis_succeeds(self, cifar_like):
        result = run_ats_comparison(cifar_like, batch_size=4, num_neurons=100)
        # Fig. 14's claim: ATS reconstructions reveal the (transformed)
        # training inputs at perfect-reconstruction quality...
        assert result.ats_vs_training_inputs > 100.0
        # ...while OASIS reconstructions match nothing.
        assert result.oasis_vs_originals < 40.0
        assert result.oasis_vs_training_inputs < 60.0


class TestVisual:
    def test_gallery_without_defense(self, cifar_like):
        gallery = reconstruction_gallery(cifar_like, "rtf", None, 4, 100, max_pairs=2)
        assert len(gallery.originals) == 2
        assert all(p > 100.0 for p in gallery.psnrs)

    def test_gallery_with_defense(self, cifar_like):
        gallery = reconstruction_gallery(cifar_like, "rtf", "MR", 4, 100, max_pairs=2)
        assert all(p < 60.0 for p in gallery.psnrs)

    @pytest.mark.parametrize(
        "attack,defense,num_neurons",
        [
            ("rtf", None, 64),
            ("rtf", "MR", 64),
            ("rtf", "dpsgd", 64),
            ("rtf", "prune", 64),
            ("linear", None, 0),
        ],
    )
    def test_gallery_scores_are_the_trial_best(self, attack, defense, num_neurons):
        dataset = make_synthetic_dataset(4, 12, image_size=8, seed=3)
        gallery = reconstruction_gallery(
            dataset, attack, defense, 4, num_neurons, seed=0, max_pairs=3
        )
        trial = run_attack_trial(
            dataset, attack, 4, num_neurons,
            defense=make_defense(defense or "WO", seed=0), seed=0,
        )
        assert trial.num_reconstructions > 0
        assert gallery.defense == trial.defense
        assert gallery.psnrs == list(trial.per_image_best[:3])
        assert np.array_equal(gallery.originals, trial.originals[:3])
        assert len(gallery.reconstructions) == 3

    def test_gallery_without_reconstructions_is_empty(self):
        dataset = make_synthetic_dataset(4, 12, image_size=8, seed=3)
        gallery = reconstruction_gallery(dataset, "rtf", "prune", 4, 64, seed=3)
        assert gallery.psnrs == []
        assert gallery.originals.shape == (0,) + dataset.image_shape
        assert gallery.reconstructions.shape == (0,) + dataset.image_shape

    def test_render_pairs(self, cifar_like):
        gallery = reconstruction_gallery(cifar_like, "rtf", "MR", 4, 100, max_pairs=1)
        art = render_pairs(gallery, width=16, max_pairs=1)
        assert "PSNR" in art
        assert "|" in art

    def test_gallery_save(self, cifar_like, tmp_path):
        gallery = reconstruction_gallery(cifar_like, "rtf", "MR", 4, 100, max_pairs=1)
        gallery.save(tmp_path)
        saved = list(tmp_path.glob("*.npy"))
        assert len(saved) == 2


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "2.50" in table

    def test_comparison_table(self):
        rows = [PaperComparison("fig5", "MR psnr", "15-20", 16.5, True)]
        table = comparison_table(rows)
        assert "fig5" in table and "yes" in table

    def test_render_ascii_image_dimensions(self, rng):
        art = render_ascii_image(rng.random((3, 16, 16)), width=20)
        lines = art.splitlines()
        assert all(len(line) == 20 for line in lines)

    def test_side_by_side(self):
        joined = side_by_side("ab\ncd", "xy\nzw")
        assert "ab" in joined.splitlines()[0]
        assert "xy" in joined.splitlines()[0]
