"""False-negative reduction via decision rules (Section IV of the paper).

The maximum a-posteriori (Bayes/MAP) rule applied to a segmentation network's
softmax output systematically misses instances of rare classes because the
training-data class imbalance is baked into the posterior.  Section IV
proposes cost-based decision rules and in particular the Maximum-Likelihood
(ML) rule — the posterior divided by position-specific class priors — which
trades precision for recall and drastically reduces the number of completely
overlooked ground-truth segments.

* :mod:`repro.decision.priors` — estimation of pixel-wise class priors
  (Fig. 4);
* :mod:`repro.decision.rules` — the Bayes, ML and interpolated decision
  rules (eqs. (1), (7)-(9), Fig. 3);
* :mod:`repro.decision.evaluation` — segment-wise precision/recall CDFs,
  stochastic dominance, non-detection rates (Fig. 5);
* :mod:`repro.decision.pipeline` — the end-to-end Bayes-vs-ML comparison.
"""

from repro.decision.priors import PixelPriorEstimator
from repro.decision.rules import bayes_rule, maximum_likelihood_rule
from repro.decision.evaluation import (
    ClassPrecisionRecall,
    collect_precision_recall,
    non_detection_rate,
)
from repro.decision.pipeline import DecisionRuleComparison, DecisionRuleResult

__all__ = [
    "PixelPriorEstimator",
    "bayes_rule",
    "maximum_likelihood_rule",
    "ClassPrecisionRecall",
    "collect_precision_recall",
    "non_detection_rate",
    "DecisionRuleComparison",
    "DecisionRuleResult",
]
