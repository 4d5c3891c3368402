"""Finite-sample calibration of three-way decision thresholds.

The paper leaves threshold choice "an open issue" (Sec. 5).  This
module turns labelled score samples — pairs scored by the similarity
measure together with ground-truth duplicate labels from
``repro.datagen``'s object ids — into a three-way decision band with
statistical guarantees:

* **Neyman–Pearson cutoff** (:func:`neyman_pearson_cutoff`): the
  AUTO_DUP threshold is the smallest score cutoff whose *empirical*
  false-positive rate on the calibration negatives is at most a target,
  guarded by an exact Clopper–Pearson upper confidence bound so the
  finite-sample slack is reported alongside the point estimate.
* **Split-conformal band** (:func:`conformal_lower_bound`): the REVIEW
  lower bound is the finite-sample-corrected quantile of the positive
  calibration scores, so exchangeable held-out duplicates land in
  AUTO_DUP ∪ REVIEW with probability at least the requested coverage.

Everything is stdlib-only: the Clopper–Pearson bound needs the inverse
of the regularized incomplete beta function, implemented here with
``math.lgamma`` plus the standard continued-fraction expansion and a
bisection inversion.  Calibration is deterministic for a given seed and
invariant under permutation of the input sample (the sample is sorted
into a canonical order before the seeded split).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from ..errors import DetectionError

#: Band labels shared by the policy, queue, and relational layers.
AUTO_DUP = "auto_dup"
REVIEW = "review"
AUTO_KEEP = "auto_keep"

BANDS = (AUTO_DUP, REVIEW, AUTO_KEEP)

#: Default two-sided split: this fraction of the sample fits the
#: Neyman–Pearson cutoff, the rest calibrates the conformal band.
DEFAULT_FIT_FRACTION = 0.5

_BETACF_MAX_ITERATIONS = 200
_BETACF_EPSILON = 3.0e-12
_BISECTION_STEPS = 80


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function.

    The modified Lentz evaluation of the standard expansion
    (Numerical Recipes 6.4); converges quickly for
    ``x < (a + 1) / (a + b + 2)``.
    """
    tiny = 1.0e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPSILON:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the CDF of the Beta(a, b) distribution at ``x``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def clopper_pearson_upper(successes: int, trials: int,
                          confidence: float = 0.95) -> float:
    """Exact upper confidence bound for a binomial proportion.

    The one-sided Clopper–Pearson bound: the largest rate ``p`` such
    that observing ``successes`` or fewer in ``trials`` draws is still
    plausible at the given confidence.  Equals the ``confidence``
    quantile of Beta(successes + 1, trials - successes), found by
    bisection on the regularized incomplete beta CDF.
    """
    if trials <= 0:
        raise DetectionError("Clopper-Pearson bound needs at least one trial")
    if not 0 <= successes <= trials:
        raise DetectionError(
            f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise DetectionError(
            f"confidence {confidence!r} outside the open interval (0, 1)")
    if successes >= trials:
        return 1.0
    a, b = successes + 1.0, float(trials - successes)
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        if regularized_incomplete_beta(a, b, mid) < confidence:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class ThreeWayCalibration:
    """A fitted AUTO_DUP / REVIEW / AUTO_KEEP decision band.

    ``upper`` is the Neyman–Pearson AUTO_DUP cutoff (score >= upper is
    declared a duplicate); ``lower`` the conformal REVIEW floor
    (lower <= score < upper goes to review).  ``fpr_upper_bound`` is
    the Clopper–Pearson bound on the true FPR at ``upper`` — the
    "target + slack" number the bench suite asserts against.
    """

    upper: float
    lower: float
    target_fpr: float
    coverage: float
    confidence: float
    empirical_fpr: float
    fpr_upper_bound: float
    fit_positives: int = 0
    fit_negatives: int = 0
    calibration_positives: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise DetectionError(
                f"review lower bound {self.lower!r} exceeds AUTO_DUP "
                f"cutoff {self.upper!r}")

    @classmethod
    def degenerate(cls, threshold: float) -> "ThreeWayCalibration":
        """A zero-width band: three-way collapses to the plain threshold."""
        return cls(upper=threshold, lower=threshold, target_fpr=0.0,
                   coverage=1.0, confidence=1.0 - 1e-9, empirical_fpr=0.0,
                   fpr_upper_bound=1.0)

    @property
    def band_width(self) -> float:
        return self.upper - self.lower

    def band(self, score: float) -> str:
        """Classify a score into one of the three bands."""
        if score >= self.upper:
            return AUTO_DUP
        if score >= self.lower:
            return REVIEW
        return AUTO_KEEP

    def as_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "target_fpr": self.target_fpr,
            "coverage": self.coverage,
            "confidence": self.confidence,
            "empirical_fpr": self.empirical_fpr,
            "fpr_upper_bound": self.fpr_upper_bound,
            "fit_positives": self.fit_positives,
            "fit_negatives": self.fit_negatives,
            "calibration_positives": self.calibration_positives,
            "seed": self.seed,
        }


def _validate_sample(scores: Sequence[float],
                     labels: Sequence[bool]) -> list[str]:
    problems: list[str] = []
    if len(scores) != len(labels):
        problems.append(
            f"{len(scores)} scores but {len(labels)} labels")
        return problems
    if len(scores) < 2:
        problems.append(
            f"sample has {len(scores)} element(s); calibration needs at "
            "least one positive and one negative")
        return problems
    nan_count = sum(1 for s in scores if isinstance(s, float)
                    and math.isnan(s))
    if nan_count:
        problems.append(f"{nan_count} score(s) are NaN")
    positives = sum(1 for label in labels if label)
    negatives = len(labels) - positives
    if positives == 0:
        problems.append("no positive (duplicate) pairs in the sample")
    if negatives == 0:
        problems.append("no negative (non-duplicate) pairs in the sample")
    if not nan_count and len(set(scores)) < 2:
        problems.append(
            "all scores are tied; no threshold can separate the classes")
    return problems


def neyman_pearson_cutoff(scores: Sequence[float], labels: Sequence[bool],
                          target_fpr: float = 0.05,
                          confidence: float = 0.95) -> tuple[float, float, float]:
    """Smallest cutoff whose empirical FPR is within the target.

    Classifying ``score >= cutoff`` as a duplicate, scans the candidate
    cutoffs (the distinct observed scores plus a rejects-everything
    sentinel above the maximum) from the most permissive upward and
    returns the smallest one whose false-positive rate over the labelled
    negatives is at most ``target_fpr``.  Returns
    ``(cutoff, empirical_fpr, clopper_pearson_upper_bound)``.
    """
    problems = _validate_sample(scores, labels)
    if problems:
        raise DetectionError(
            "cannot calibrate Neyman-Pearson cutoff:\n  - "
            + "\n  - ".join(problems))
    if not 0.0 <= target_fpr < 1.0:
        raise DetectionError(
            f"target FPR {target_fpr!r} outside [0, 1)")
    negatives = sorted(s for s, label in zip(scores, labels) if not label)
    total = len(negatives)
    candidates = sorted(set(scores))
    # A cutoff above every observed score always satisfies any target.
    candidates.append(math.nextafter(candidates[-1], math.inf))
    for cutoff in candidates:
        false_positives = sum(1 for s in negatives if s >= cutoff)
        if false_positives / total <= target_fpr:
            return (cutoff, false_positives / total,
                    clopper_pearson_upper(false_positives, total, confidence))
    raise DetectionError(  # pragma: no cover - sentinel always satisfies
        f"no cutoff meets target FPR {target_fpr!r}")


def conformal_lower_bound(positive_scores: Sequence[float],
                          coverage: float = 0.9) -> float:
    """Finite-sample-corrected quantile of the positive scores.

    The split-conformal bound: with ``n`` calibration positives, the
    ``k``-th smallest score for ``k = floor((1 - coverage) * (n + 1))``
    lower-bounds a fresh exchangeable duplicate's score with
    probability at least ``coverage``.  When ``k < 1`` the sample is
    too small for the correction and the minimum observed positive
    score is returned (the most conservative data-driven bound).
    """
    if not positive_scores:
        raise DetectionError(
            "conformal calibration needs at least one positive score")
    if not 0.0 < coverage < 1.0:
        raise DetectionError(
            f"coverage {coverage!r} outside the open interval (0, 1)")
    if any(isinstance(s, float) and math.isnan(s) for s in positive_scores):
        raise DetectionError("conformal calibration scores contain NaN")
    ordered = sorted(positive_scores)
    k = math.floor((1.0 - coverage) * (len(ordered) + 1))
    if k < 1:
        return ordered[0]
    return ordered[k - 1]


def calibrate_three_way(scores: Sequence[float], labels: Sequence[bool], *,
                        fpr: float = 0.05, coverage: float = 0.9,
                        confidence: float = 0.95, seed: int = 0,
                        fit_fraction: float = DEFAULT_FIT_FRACTION,
                        ) -> ThreeWayCalibration:
    """Fit a three-way band from one labelled score sample.

    The sample is canonically sorted (so calibration is invariant under
    permutation of the input) and split by a seeded shuffle into a fit
    half for the Neyman–Pearson AUTO_DUP cutoff and a calibration half
    whose positives size the conformal REVIEW band.  Raises an
    itemized :class:`DetectionError` when the sample cannot support
    calibration — never a silent threshold.
    """
    problems = _validate_sample(scores, labels)
    if not problems and not 0.0 <= fpr < 1.0:
        problems.append(f"target FPR {fpr!r} outside [0, 1)")
    if not problems and not 0.0 < coverage < 1.0:
        problems.append(
            f"coverage {coverage!r} outside the open interval (0, 1)")
    if not problems and not 0.0 < fit_fraction < 1.0:
        problems.append(
            f"fit fraction {fit_fraction!r} outside the open interval (0, 1)")
    if problems:
        raise DetectionError("cannot calibrate three-way decision band:\n  - "
                             + "\n  - ".join(problems))

    sample = sorted(zip(scores, labels))
    rng = random.Random(seed)
    rng.shuffle(sample)
    fit_size = max(1, min(len(sample) - 1,
                          round(len(sample) * fit_fraction)))
    fit, calibration = sample[:fit_size], sample[fit_size:]

    fit_problems: list[str] = []
    if not any(label for _, label in fit):
        fit_problems.append("fit split has no positive pairs")
    if not any(not label for _, label in fit):
        fit_problems.append("fit split has no negative pairs")
    if len({score for score, _ in fit}) < 2:
        fit_problems.append("fit split has no two distinct scores")
    calibration_positives = [s for s, label in calibration if label]
    if not calibration_positives:
        fit_problems.append("calibration split has no positive pairs")
    if fit_problems:
        raise DetectionError(
            "cannot calibrate three-way decision band:\n  - "
            + "\n  - ".join(fit_problems)
            + "\n  - (try more labelled pairs or another seed)")

    upper, empirical_fpr, fpr_bound = neyman_pearson_cutoff(
        [s for s, _ in fit], [label for _, label in fit],
        target_fpr=fpr, confidence=confidence)
    lower = conformal_lower_bound(calibration_positives, coverage=coverage)
    lower = min(lower, upper)
    return ThreeWayCalibration(
        upper=upper, lower=lower, target_fpr=fpr, coverage=coverage,
        confidence=confidence, empirical_fpr=empirical_fpr,
        fpr_upper_bound=fpr_bound,
        fit_positives=sum(1 for _, label in fit if label),
        fit_negatives=sum(1 for _, label in fit if not label),
        calibration_positives=len(calibration_positives), seed=seed)


__all__ = [
    "AUTO_DUP",
    "AUTO_KEEP",
    "BANDS",
    "REVIEW",
    "ThreeWayCalibration",
    "calibrate_three_way",
    "clopper_pearson_upper",
    "conformal_lower_bound",
    "neyman_pearson_cutoff",
    "regularized_incomplete_beta",
]
