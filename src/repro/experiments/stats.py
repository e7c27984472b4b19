"""Statistical analysis of repeated-trial experiments.

The paper's evaluation (and ours, before this module) reports single
means over repeats.  Suite reports instead carry, per metric:

* **Percentile-bootstrap confidence intervals** over the per-trial
  values (:func:`bootstrap_ci`) — no normality assumption, honest at
  the 5–100 repeat scale suites actually run at.
* **Paired significance tests** between algorithms that shared a pool
  (:func:`paired_permutation_test`, a sign-flip test on the mean paired
  difference, and :func:`wilcoxon_signed_rank`, its rank-based
  companion).  Trials are paired by repeat index: algorithms in one
  suite group rank the *same* measured pool, so the pool draw is a
  shared nuisance factor that pairing removes.

Everything is seeded and pure numpy — reports are bit-identical across
runs and machines, which the suite engine's resume guarantee relies on
(a resumed suite must reproduce the uninterrupted report exactly).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bootstrap_ci",
    "paired_permutation_test",
    "wilcoxon_signed_rank",
]

#: Fixed seed of every resampling procedure: reports must not vary
#: between invocations, so the Monte-Carlo draws are part of the
#: report's definition rather than fresh randomness.
RESAMPLE_SEED = 2021


def bootstrap_ci(
    values,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = RESAMPLE_SEED,
) -> dict:
    """Percentile-bootstrap CI of the mean of ``values``.

    Returns ``{"mean", "lo", "hi", "n"}``.  With a single observation
    the interval degenerates to the point estimate (``lo == hi ==
    mean``) rather than erroring, so single-seed legacy specs still
    produce a schema-complete report.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("bootstrap_ci needs at least one value")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1 or float(arr.std()) == 0.0:
        return {"mean": mean, "lo": mean, "hi": mean, "n": int(arr.size)}
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, arr.size, size=(n_boot, arr.size))
    means = arr[draws].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, (alpha, 1.0 - alpha))
    return {"mean": mean, "lo": float(lo), "hi": float(hi), "n": int(arr.size)}


def paired_permutation_test(
    x,
    y,
    n_perm: int = 10_000,
    seed: int = RESAMPLE_SEED,
) -> dict:
    """Sign-flip permutation test on the mean paired difference.

    Under the null (no difference between paired conditions) each
    difference ``x_i - y_i`` is symmetric around zero, so flipping its
    sign is an exchangeable relabelling.  The two-sided p-value is the
    fraction of sign assignments whose \\|mean difference\\| reaches the
    observed one; with ``n <= 20`` pairs all ``2^n`` assignments are
    enumerated exactly, above that ``n_perm`` Monte-Carlo flips are
    drawn.  Returns ``{"mean_diff", "p", "n", "exact"}``.
    """
    dx = np.asarray(list(x), dtype=np.float64)
    dy = np.asarray(list(y), dtype=np.float64)
    if dx.shape != dy.shape or dx.ndim != 1:
        raise ValueError("paired test needs two equal-length 1-d samples")
    diffs = dx - dy
    n = diffs.size
    observed = float(diffs.mean())
    if n < 2 or float(np.abs(diffs).max()) == 0.0:
        return {"mean_diff": observed, "p": 1.0, "n": n, "exact": True}
    if n <= 20:
        # All 2^n sign assignments, exactly: row m flips pair k when bit
        # k of m is clear.  Built per call, not cached (168 MB at n = 20).
        signs = np.where(
            (np.arange(1 << n)[:, None] >> np.arange(n)) & 1, 1.0, -1.0
        )
        exact = True
    else:
        rng = np.random.default_rng(seed)
        signs = rng.choice((-1.0, 1.0), size=(n_perm, n))
        exact = False
    null_means = signs @ diffs / n
    # >= with a tiny tolerance: the identity assignment must count as
    # extreme as itself despite float reassociation.
    hits = np.abs(null_means) >= abs(observed) - 1e-12
    return {
        "mean_diff": observed,
        "p": float(hits.mean()),
        "n": n,
        "exact": exact,
    }


def wilcoxon_signed_rank(x, y) -> dict:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Pratt zero handling (zeros keep their ranks but drop from ``W``),
    mid-ranks for ties, and the normal approximation with tie/zero
    variance correction — the standard large-sample form, implemented in
    numpy so suites do not require scipy.  Returns ``{"statistic", "p",
    "n"}`` where ``n`` counts the non-zero differences; with fewer than
    two of them the test is vacuous and ``p = 1``.
    """
    dx = np.asarray(list(x), dtype=np.float64)
    dy = np.asarray(list(y), dtype=np.float64)
    if dx.shape != dy.shape or dx.ndim != 1:
        raise ValueError("paired test needs two equal-length 1-d samples")
    diffs = dx - dy
    nonzero = diffs != 0.0
    n_used = int(nonzero.sum())
    if n_used < 2:
        return {"statistic": 0.0, "p": 1.0, "n": n_used}
    ranks = _midranks(np.abs(diffs))
    w_plus = float(ranks[nonzero & (diffs > 0)].sum())
    w_minus = float(ranks[nonzero & (diffs < 0)].sum())
    statistic = min(w_plus, w_minus)
    # Normal approximation on W+ with Pratt's zero correction: zeros
    # occupy the lowest ranks but contribute to neither sum.
    n_all = diffs.size
    zeros = np.abs(diffs) == 0.0
    mean_w = (n_all * (n_all + 1) / 4.0) - float(ranks[zeros].sum()) / 2.0
    var_w = n_all * (n_all + 1) * (2 * n_all + 1) / 24.0
    var_w -= float((ranks[zeros] ** 2).sum()) / 4.0
    var_w -= _tie_correction(ranks[~zeros])
    if var_w <= 0.0:
        return {"statistic": statistic, "p": 1.0, "n": n_used}
    z = (w_plus - mean_w) / math.sqrt(var_w)
    p = 2.0 * (1.0 - _phi(abs(z)))
    return {"statistic": statistic, "p": float(min(1.0, p)), "n": n_used}


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average (mid-) rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _tie_correction(ranks: np.ndarray) -> float:
    """Variance reduction from tied rank groups: sum(t^3 - t) / 48."""
    _, counts = np.unique(ranks, return_counts=True)
    ties = counts[counts > 1].astype(np.float64)
    return float((ties**3 - ties).sum()) / 48.0


def _phi(z: float) -> float:
    """Standard normal CDF via the error function (stdlib only)."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
