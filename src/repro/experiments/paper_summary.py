"""One-call paper-vs-measured summary across the headline experiments.

``build_paper_summary`` runs a compact version of every headline
comparison and returns :class:`PaperComparison` rows, so a user (or CI
job) can regenerate the reproduction scorecard in one call:

>>> from repro.data import synthetic_cifar100
>>> from repro.experiments import build_paper_summary, comparison_table
>>> rows = build_paper_summary(synthetic_cifar100(samples_per_class=4))
>>> print(comparison_table(rows))

The full-scale regenerations live in ``benchmarks/`` (one per figure);
this summary trades their resolution for a fast end-to-end health check.
"""

from __future__ import annotations

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.oasis import OasisDefense
from repro.experiments.ats_comparison import run_ats_comparison
from repro.experiments.reporting import PaperComparison
from repro.experiments.runner import run_attack_trial


def build_paper_summary(
    dataset: SyntheticImageDataset,
    batch_size: int = 8,
    num_neurons: int = 300,
    seed: int = 0,
) -> list[PaperComparison]:
    """Regenerate the headline claims on one dataset; return scorecard rows."""
    rows: list[PaperComparison] = []

    rtf_wo = run_attack_trial(dataset, "rtf", batch_size, num_neurons, seed=seed)
    rows.append(
        PaperComparison(
            experiment="Fig 5",
            quantity="RTF without OASIS (dB)",
            paper_value="130-145",
            measured=rtf_wo.average_psnr,
            agrees=rtf_wo.average_psnr > 100.0,
        )
    )
    rtf_mr = run_attack_trial(
        dataset, "rtf", batch_size, num_neurons, defense=OasisDefense("MR"), seed=seed
    )
    rows.append(
        PaperComparison(
            experiment="Fig 5",
            quantity="RTF vs OASIS-MR (dB)",
            paper_value="15-20",
            measured=rtf_mr.average_psnr,
            agrees=rtf_mr.average_psnr < 30.0,
        )
    )

    cah_wo = run_attack_trial(dataset, "cah", batch_size, num_neurons, seed=seed)
    cah_mrsh = run_attack_trial(
        dataset, "cah", batch_size, num_neurons,
        defense=OasisDefense("MR+SH"), seed=seed,
    )
    rows.append(
        PaperComparison(
            experiment="Fig 6",
            quantity="CAH drop under MR+SH (dB)",
            paper_value=">100 (125->25)",
            measured=cah_wo.average_psnr - cah_mrsh.average_psnr,
            agrees=cah_wo.average_psnr - cah_mrsh.average_psnr > 20.0,
        )
    )

    linear_wo = run_attack_trial(dataset, "linear", batch_size, 0, seed=seed)
    linear_mr = run_attack_trial(
        dataset, "linear", batch_size, 0, defense=OasisDefense("MR"), seed=seed
    )
    rows.append(
        PaperComparison(
            experiment="Fig 13",
            quantity="linear-model drop under MR (dB)",
            paper_value="positive, to <30",
            measured=linear_wo.average_psnr - linear_mr.average_psnr,
            agrees=(
                linear_wo.average_psnr > linear_mr.average_psnr
                and linear_mr.average_psnr < 30.0
            ),
        )
    )

    ats = run_ats_comparison(
        dataset, batch_size=batch_size, num_neurons=num_neurons, seed=seed
    )
    rows.append(
        PaperComparison(
            experiment="Fig 14",
            quantity="RTF vs transform-replace inputs (dB)",
            paper_value="content revealed (~perfect)",
            measured=ats.ats_vs_training_inputs,
            agrees=ats.ats_vs_training_inputs > 100.0,
        )
    )
    rows.append(
        PaperComparison(
            experiment="Fig 14",
            quantity="RTF vs OASIS originals (dB)",
            paper_value="unrecognizable",
            measured=ats.oasis_vs_originals,
            agrees=ats.oasis_vs_originals < 40.0,
        )
    )
    return rows


def summary_holds(rows: list[PaperComparison]) -> bool:
    """True when every scorecard row agrees with the paper's shape."""
    return all(row.agrees for row in rows)
