"""Figure 6: OASIS vs CAH — single transforms vs the MR+SH integration.

Paper shape: at B=8 neither SH nor MR alone fully prevents perfect
reconstructions (random trap directions are not invariant to any single
transform); integrating MR+SH drives PSNR below ~25 dB.  At B=64 all arms
improve and MR+SH remains the strongest.  Settings: ImageNet (8,100)/
(64,700); CIFAR100 (8,300)/(64,600).
"""

from __future__ import annotations

from common import cifar100_bench, imagenet_bench, record_report
from repro.experiments import FIG6_LINEUP, PAPER_SETTINGS, run_defense_lineup


def _run(dataset, batch_size, num_neurons):
    return run_defense_lineup(
        dataset, "cah", batch_size, num_neurons, FIG6_LINEUP, num_trials=2, seed=13
    )


def _check_shape(result):
    averages = result.averages()
    assert averages["WO"] > averages["MR+SH"] + 20.0, "integration must defend"
    assert averages["MR+SH"] <= averages["MR"] + 2.0, "MR+SH should not lose to MR"
    assert averages["MR+SH"] <= averages["SH"] + 2.0, "MR+SH should not lose to SH"
    assert averages["MR+SH"] < 30.0, "paper: integration reaches <25 dB regime"
    return averages


def test_fig06_cah_transforms_imagenet(benchmark):
    settings = PAPER_SETTINGS[("cah", "imagenet")].items()

    def run_both():
        return [
            _run(imagenet_bench(), batch, neurons)
            for batch, neurons in settings
        ]

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    body = []
    for (batch, neurons), result in zip(settings, results):
        _check_shape(result)
        body.append(f"(B, n) = ({batch}, {neurons})\n{result.to_table()}")
    record_report("Figure 6a — CAH vs OASIS transformations, ImageNet", "\n\n".join(body))


def test_fig06_cah_transforms_cifar100(benchmark):
    settings = PAPER_SETTINGS[("cah", "cifar100")].items()

    def run_both():
        return [
            _run(cifar100_bench(), batch, neurons)
            for batch, neurons in settings
        ]

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    body = []
    for (batch, neurons), result in zip(settings, results):
        _check_shape(result)
        body.append(f"(B, n) = ({batch}, {neurons})\n{result.to_table()}")
    record_report("Figure 6b — CAH vs OASIS transformations, CIFAR100", "\n\n".join(body))
