"""Figure 5: OASIS vs RTF, PSNR distribution per transformation.

Paper shape: without OASIS most reconstructions sit at 130-145 dB; every
transformation collapses that to low dB, with major rotation the strongest
(15-20 dB) and flips slightly above it.  Settings follow the paper's
strongest-attack pairs: ImageNet (8,900)/(64,800), CIFAR100 (8,500)/(64,600).
"""

from __future__ import annotations

import numpy as np

from common import cifar100_bench, imagenet_bench, record_report
from repro.experiments import FIG5_LINEUP, PAPER_SETTINGS, run_defense_lineup


def _run(dataset, batch_size, num_neurons):
    return run_defense_lineup(
        dataset, "rtf", batch_size, num_neurons, FIG5_LINEUP, num_trials=2, seed=11
    )


def _check_shape(result):
    averages = result.averages()
    assert averages["WO"] > 100.0, "undefended RTF must be near-perfect"
    for suite in ("MR", "mR", "SH", "HFlip", "VFlip"):
        assert averages[suite] < averages["WO"] - 80.0, f"{suite} failed to defend"
    assert averages["MR"] < 30.0, "major rotation should be in the 15-20 dB regime"
    return averages


def test_fig05_rtf_transforms_imagenet(benchmark):
    settings = PAPER_SETTINGS[("rtf", "imagenet")].items()

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
    record_report("Figure 5a — RTF vs OASIS transformations, ImageNet", "\n\n".join(body))


def test_fig05_rtf_transforms_cifar100(benchmark):
    settings = PAPER_SETTINGS[("rtf", "cifar100")].items()

    def run_both():
        return [
            _run(cifar100_bench(), batch, neurons)
            for batch, neurons in settings
        ]

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    body = []
    for (batch, neurons), result in zip(settings, results):
        averages = _check_shape(result)
        # The paper's fine ordering: flips slightly above major rotation.
        assert averages["HFlip"] >= averages["MR"] - 2.0
        body.append(f"(B, n) = ({batch}, {neurons})\n{result.to_table()}")
    record_report("Figure 5b — RTF vs OASIS transformations, CIFAR100", "\n\n".join(body))
