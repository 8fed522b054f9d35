"""CI check of the paper's claims on the committed paper configs.

Runs the three paper configs of ``examples/configs`` as committed (seed 0)
through :class:`~repro.api.runner.Runner`:

* ``sweep_paper_table1.json``: Table I for both network profiles, plus the
  Section II claims no report carries (single-metric |R| with the IoU,
  meta regression R² by metric group, the Fig. 1 held-out IoU prediction and
  the multi-resolution ablation of [18]);
* ``paper_table2_fig2.json``: Table II's best value over #frames and the
  Fig. 2 AUROC series;
* ``sweep_paper_fig5.json``: Fig. 5's Bayes-vs-ML comparison for both
  profiles (with the interpolated cost-sweep rule), plus the Fig. 4 priors
  and the Fig. 3 masks.

Claims on report numbers read the report rows.  The others take their
dataset, network and seeds from ``Runner().resolve`` of the same config, so
they see exactly what the report saw.  Every claim is printed with its
measured value; the exit code is 1 if any failed, naming each.

Usage: PYTHONPATH=src python scripts/paper_claims.py   (about 70 s)
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.config import ExperimentConfig  # noqa: E402
from repro.api.kinds import decision_comparison, metaseg_pipeline  # noqa: E402
from repro.api.runner import Runner  # noqa: E402
from repro.core.meta_regression import MetaRegressor  # noqa: E402
from repro.core.metrics import METRIC_GROUPS  # noqa: E402
from repro.core.multiresolution import MultiResolutionInference  # noqa: E402
from repro.decision.evaluation import precision_dominance, recall_dominance  # noqa: E402
from repro.evaluation.regression import pearson_correlation  # noqa: E402
from repro.evaluation.segmentation import pixel_accuracy  # noqa: E402
from repro.sweep import SweepConfig  # noqa: E402
from repro.utils.arrays import mean_std  # noqa: E402

CONFIG_DIR = REPO_ROOT / "examples" / "configs"

#: Names of the claims that failed, in the order they were checked.
FAILED: List[str] = []


def claim(name: str, held: bool, measured: str) -> None:
    """Print one claim with its measured value; record it if it failed."""
    print(f"{'ok  ' if held else 'FAIL'}  {name}: {measured}")
    if not held:
        FAILED.append(name)


def means(report, table: str, *keys: str) -> Dict[Tuple, float]:
    """``{(row[key], ..., metric): mean}`` over one report table."""
    return {
        tuple(row[key] for key in keys) + (row["metric"],): row["mean"]
        for row in report.table(table)
    }


def val_samples(resolved):
    """The validation split of a resolved config, read lazily by index."""
    return (resolved.dataset.val_sample(i) for i in range(resolved.dataset.n_val))


def compared(name: str, a: float, b: float) -> str:
    """The two measured sides of a comparison claim."""
    return f"{name} {a:.4f} vs {b:.4f}"


# ------------------------------------------------------------------- Table I
def table1_claims(config: ExperimentConfig, report) -> None:
    profile = config.network.profile
    cls = means(report, "classification", "variant")
    reg = means(report, "regression", "variant")
    auroc = cls["logistic_penalized", "test_auroc"]
    claim(f"Table I [{profile}] logistic AUROC > entropy-only AUROC",
          auroc > cls["entropy_only", "test_auroc"],
          compared("AUROC", auroc, cls["entropy_only", "test_auroc"]))
    r2 = reg["linear_all_metrics", "test_r2"]
    claim(f"Table I [{profile}] linear R2 > entropy-only R2",
          r2 > reg["entropy_only", "test_r2"],
          compared("R2", r2, reg["entropy_only", "test_r2"]))

    resolved = Runner().resolve(config)
    pipeline = metaseg_pipeline(resolved)
    metrics = pipeline.extract_dataset(val_samples(resolved))
    penalty = config.meta_models.regression_penalty

    correlations = pipeline.metric_iou_correlations(metrics)
    strongest = max(correlations, key=lambda name: abs(correlations[name]))
    best = abs(correlations[strongest])
    claim(f"Section II [{profile}] 0.6 < max single-metric |R| <= 0.85",
          0.6 < best <= 0.85, f"|R| {best:.3f} ({strongest})")

    fraction = config.evaluation.train_fraction
    train, test = metrics.split((fraction, 1.0 - fraction), resolved.seeds.protocol)
    groups = {name: list(METRIC_GROUPS[name])
              for name in ("entropy_only", "dispersion", "geometry")}
    groups["all"] = None
    group_r2 = {
        name: MetaRegressor(method="linear", penalty=penalty, feature_subset=subset)
        .evaluate(train, test).test_r2
        for name, subset in groups.items()
    }
    claim(f"Section II [{profile}] all-metrics R2 >= entropy-only R2",
          group_r2["all"] >= group_r2["entropy_only"],
          ", ".join(f"{name} {value:.4f}" for name, value in group_r2.items()))

    # Fig. 1: predict the IoU of the last image's segments from the others'.
    held_out = metrics.image_ids == metrics.image_ids[-1]
    regressor = MetaRegressor(method="linear", penalty=penalty)
    regressor.fit(metrics.subset(np.flatnonzero(~held_out)))
    image = metrics.subset(np.flatnonzero(held_out))
    pearson = pearson_correlation(image.target_iou(), regressor.predict(image))
    claim(f"Fig. 1 [{profile}] held-out image IoU prediction Pearson R > 0.5",
          pearson > 0.5, f"R {pearson:.3f} over {len(image)} segments")

    if profile != "mobilenetv2":
        return
    # [18]: metrics of a nested-crop ensemble must not hurt meta classification.
    pyramid = MultiResolutionInference(
        resolved.network, connectivity=config.extraction.connectivity
    ).extract_many(val_samples(resolved))
    result = pipeline.run_table1_protocol(
        pyramid, n_runs=config.evaluation.n_runs, train_fraction=fraction,
        random_state=resolved.seeds.protocol,
    )
    ensemble = result.classification["logistic_penalized"]["test_auroc"][0]
    claim(f"Multi-resolution [{profile}] ensemble AUROC >= plain AUROC - 0.03",
          ensemble >= auroc - 0.03,
          f"{compared('AUROC', ensemble, auroc)} (delta {ensemble - auroc:+.4f})")


# ------------------------------------------------------------ Table II, Fig. 2
def table2_claims(config: ExperimentConfig, report) -> None:
    cls = means(report, "classification", "composition", "method", "n_frames")

    def best_auroc(composition: str, method: str) -> float:
        return max(value for (c, m, _, metric), value in cls.items()
                   if (c, m, metric) == (composition, method, "auroc"))

    for composition in config.evaluation.compositions:
        value = best_auroc(composition, "gradient_boosting")
        claim(f"Table II [{composition}] gradient boosting best AUROC > 0.6",
              value > 0.6, f"AUROC {value:.4f}")
    real, pseudo = (best_auroc(c, "gradient_boosting") for c in ("R", "P"))
    claim("Table II gradient boosting best AUROC R >= P - 0.05",
          real >= pseudo - 0.05, compared("AUROC", real, pseudo))
    for method in config.meta_models.classifiers:
        real, pseudo = best_auroc("R", method), best_auroc("P", method)
        claim(f"Fig. 2 [{method}] best AUROC R >= P - 0.03",
              real >= pseudo - 0.03, compared("AUROC", real, pseudo))


# ------------------------------------------------------------ Figs. 3, 4 and 5
def fig5_claims(config: ExperimentConfig, report) -> None:
    profile = config.network.profile
    rules = means(report, "rules", "rule")
    claim(f"Fig. 5 [{profile}] non-detection F^r(0) ML <= Bayes",
          rules["ml", "non_detection_rate"] <= rules["bayes", "non_detection_rate"],
          compared("F^r(0)", rules["ml", "non_detection_rate"],
                   rules["bayes", "non_detection_rate"]))
    claim(f"Fig. 5 [{profile}] mean precision Bayes >= ML",
          rules["bayes", "precision"] >= rules["ml", "precision"],
          compared("precision", rules["bayes", "precision"], rules["ml", "precision"]))

    resolved = Runner().resolve(config)
    dataset = resolved.dataset
    comparison = decision_comparison(resolved)
    comparison.fit_priors(dataset.train_sample(i) for i in range(dataset.n_train))
    result = comparison.compare(
        val_samples(resolved), rules=resolved.rules,
        strengths=config.evaluation.strengths,
    )
    recomputed = {}
    for rule, stats in result.per_rule.items():
        recomputed[rule, "precision"] = mean_std(stats.precision_values)[0]
        recomputed[rule, "recall"] = mean_std(stats.recall_values)[0]
        recomputed[rule, "non_detection_rate"] = stats.non_detection_rate()
        recomputed[rule, "pixel_accuracy"] = result.pixel_accuracy[rule]
    claim(f"Fig. 5 [{profile}] report rule means == DecisionRuleComparison.compare",
          recomputed == rules, f"{len(rules)} means compared bitwise")
    bayes, ml = result.per_rule["bayes"], result.per_rule["ml"]
    claim(f"Fig. 5 [{profile}] F^p_ML < F^p_B (Bayes precision dominates, tol 0.03)",
          precision_dominance(bayes, ml), f"{len(bayes.precision_values)} Bayes / "
          f"{len(ml.precision_values)} ML segments")
    claim(f"Fig. 5 [{profile}] F^r_B < F^r_ML (ML recall dominates, tol 0.03)",
          recall_dominance(bayes, ml), f"{len(bayes.recall_values)} ground-truth segments")

    # Fig. 3: the Bayes and ML masks of the first validation image.
    human = comparison.label_space.ids_in_category(config.evaluation.category)
    sample = dataset.val_sample(0)
    probs = resolved.network.predict_probabilities(sample.labels, index=0)
    masks = {rule: comparison.decode(probs, rule) for rule in ("bayes", "ml")}
    accuracy = {rule: pixel_accuracy(sample.labels, mask) for rule, mask in masks.items()}
    fraction = {rule: float(np.isin(mask, human).mean()) for rule, mask in masks.items()}
    claim(f"Fig. 3 [{profile}] pixel accuracy Bayes >= ML",
          accuracy["bayes"] >= accuracy["ml"],
          compared("accuracy", accuracy["bayes"], accuracy["ml"]))
    claim(f"Fig. 3 [{profile}] human pixel fraction ML >= Bayes",
          fraction["ml"] >= fraction["bayes"],
          compared("fraction", fraction["ml"], fraction["bayes"]))

    if profile != "mobilenetv2":
        return
    # Fig. 4: the priors depend on the training labels only, not the network.
    heatmap = comparison.category_prior_heatmap()
    height = heatmap.shape[0]
    upper, lower = heatmap[: height // 3].mean(), heatmap[height // 2:].mean()
    claim("Fig. 4 human prior: lower-half mean > upper-third mean",
          lower > upper, compared("prior", lower, upper))
    frequency = comparison.prior_estimator.global_class_frequencies()[human].sum()
    claim("Fig. 4 human prior: max > 3 x global human frequency",
          heatmap.max() > 3 * frequency, compared("prior", heatmap.max(), frequency))


def main() -> int:
    for point in SweepConfig.from_file(CONFIG_DIR / "sweep_paper_table1.json").points():
        table1_claims(point.config, Runner().run(point.config))
    config = ExperimentConfig.from_json((CONFIG_DIR / "paper_table2_fig2.json").read_text())
    table2_claims(config, Runner().run(config))
    for point in SweepConfig.from_file(CONFIG_DIR / "sweep_paper_fig5.json").points():
        fig5_claims(point.config, Runner().run(point.config))
    if FAILED:
        print(f"FAIL: {len(FAILED)} paper claim(s) failed:", *FAILED,
              sep="\n  ", file=sys.stderr)
        return 1
    print("paper claims: all held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
