"""Recursive feature elimination with cross-validated relevance scores.

Paper §IV-B: *"RFE is built upon the idea of repeatedly constructing a
predictive model, identifying the worst performing feature (based on
feature importance), setting that feature aside, and then repeating the
process with the rest of the features.  ...  Finally, we compute the
relevance score of each feature as the likelihood of being chosen as a
well-performing feature across all the cross-validation splits."*

Implementation: on each CV split, run the elimination path on the train
fold, score every intermediate subset on the held-out fold, keep the
best-scoring subset, and count feature membership across splits.

Performance: each fold fits H boosted ensembles for H features, and the
folds are embarrassingly parallel — :func:`relevance_scores` fans them
out over :mod:`repro.parallel` (``workers=`` / ``REPRO_WORKERS``), with
results reduced in fold order so any worker count yields bit-identical
``scores``/``mapes``/``chosen_subsets``.  Inside each fold, the quantile
:class:`~repro.ml.tree.Binner` is fitted once on the train fold and
every fit reuses its codes by column slicing (quantile edges are
per-feature, so sliced codes are exactly what a per-subset refit would
bin).  The nested subsets are scored with the elimination path's own
models: the subset of the k best-ranked features is the set RFE fitted
when k features were left, so only sizes off the path (k = 1, and any
sizes a ``step > 1`` path skips) get a fit of their own.  The k=H model
is also the full-feature MAPE model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.metrics import mape, rmse
from repro.ml.model_selection import KFold
from repro.ml.pipeline import Estimator
from repro.ml.tree import Binner
from repro.obs import span
from repro.parallel import effective_workers, parallel_map


def default_estimator() -> GradientBoostedRegressor:
    """The paper's model: gradient boosted regression trees."""
    return GradientBoostedRegressor(n_estimators=60, max_depth=3)


def _binned_surface(est) -> "tuple[object, int] | None":
    """(fit/predict-binned target, n_bins) when ``est`` supports the
    pre-binned fast path, else None.

    A stepless :class:`~repro.ml.pipeline.Pipeline` qualifies through
    its passthrough (spans/counters preserved); a bare estimator
    qualifies when it exposes the binned surface and its bin count.
    """
    if getattr(est, "supports_binned", False):
        return est, est.estimator.n_bins
    if (
        hasattr(est, "fit_binned")
        and hasattr(est, "predict_binned")
        and hasattr(est, "n_bins")
    ):
        return est, est.n_bins
    return None


def _fit_columns(est, x, y, cols, prebinned):
    """Fit ``est`` on columns ``cols`` of ``x`` and return it.

    With ``prebinned`` = ``(codes, binner)`` for ``x`` and an estimator
    that supports binned fits, the fit reads column-sliced codes instead
    of re-binning the subset (bit-identical models, since quantile edges
    are per-feature).
    """
    surface = _binned_surface(est) if prebinned is not None else None
    if surface is not None:
        codes, binner = prebinned
        surface[0].fit_binned(codes[:, cols], y, binner.subset(cols))
    else:
        est.fit(x[:, cols], y)
    return est


class RFE:
    """Single-pass recursive feature elimination.

    Works with any :class:`~repro.ml.pipeline.Estimator` that exposes
    ``feature_importances_`` (GBR, forest, ridge, or a pipeline around
    one) — the paper uses GBR.  ``estimator_factory`` must return
    identically configured, deterministic estimators: every fitted model
    on the path is kept in :attr:`estimators_` and stands in for a
    fresh fit on the same subset (the nested-subset scores of
    :func:`relevance_scores` are these models).
    """

    def __init__(
        self,
        estimator_factory: Callable[[], Estimator] = default_estimator,
        step: int = 1,
    ) -> None:
        if step < 1:
            raise ValueError("step must be >= 1")
        self.estimator_factory = estimator_factory
        self.step = step
        #: ranking_[f] = elimination rank of feature f; 1 = kept longest.
        self.ranking_: np.ndarray | None = None
        #: Elimination order, worst first.
        self.elimination_order_: list[int] = []
        #: The model fitted at each iteration of the path, keyed by its
        #: feature subset in column order (a sorted tuple).
        self.estimators_: dict[tuple[int, ...], Estimator] = {}

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        prebinned: "tuple[np.ndarray, Binner] | None" = None,
    ) -> "RFE":
        """Run the elimination path.

        ``prebinned`` optionally carries ``(codes, binner)`` for ``x``;
        when the factory's estimators support binned fits, each
        iteration then refits from column-sliced codes instead of
        re-binning the shrinking matrix (bit-identical models, since
        quantile edges are per-feature).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        h = x.shape[1]
        with span("ml.rfe.fit", features=h, n=len(x)):
            return self._fit(x, y, h, prebinned)

    def _fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        h: int,
        prebinned: "tuple[np.ndarray, Binner] | None" = None,
    ) -> "RFE":
        remaining = list(range(h))
        ranking = np.empty(h, dtype=np.int64)
        order: list[int] = []
        estimators: dict[tuple[int, ...], Estimator] = {}
        rank = h
        while len(remaining) > 1:
            est = _fit_columns(self.estimator_factory(), x, y, remaining, prebinned)
            estimators[tuple(remaining)] = est
            imp = est.feature_importances_
            k = min(self.step, len(remaining) - 1)
            # Worst first; a stable sort drops the lower index on ties,
            # whatever the CPU's SIMD sort would pick.
            worst_local = np.argsort(imp, kind="stable")[:k]
            for wl in worst_local:
                f = remaining[wl]
                ranking[f] = rank
                rank -= 1
                order.append(f)
            dropped = set(worst_local.tolist())
            remaining = [f for i, f in enumerate(remaining) if i not in dropped]
        ranking[remaining[0]] = 1
        self.ranking_ = ranking
        self.elimination_order_ = order
        self.estimators_ = estimators
        return self


@dataclass
class RelevanceResult:
    """Cross-validated RFE relevance (one dataset's Fig. 9 column set)."""

    feature_names: list[str]
    #: Likelihood of each feature being in the best subset across splits.
    scores: np.ndarray
    #: Cross-validated prediction MAPE of the full-feature model (the
    #: paper reports < 5% for all datasets, §V-B).
    prediction_mape: float
    #: Per-split chosen subsets (feature indices), for inspection.
    chosen_subsets: list[list[int]] = field(default_factory=list)

    def top_features(self, k: int = 3) -> list[str]:
        order = np.argsort(-self.scores, kind="stable")
        return [self.feature_names[i] for i in order[:k]]


def _fold_relevance(
    xtr: np.ndarray,
    ytr: np.ndarray,
    xte: np.ndarray,
    yte: np.ndarray,
    off_te: "np.ndarray | None",
    estimator_factory: Callable[[], Estimator],
    fold: int,
) -> tuple[list[int], float]:
    """One CV fold: elimination path, nested-subset scoring, fold MAPE.

    Every nested subset on the elimination path is scored with the
    path's own model; see :func:`relevance_scores` for why that equals a
    fresh fit.  Top-level so it pickles into pool workers; deterministic
    in its arguments, so the result is independent of which worker runs
    it.
    """
    with span("ml.rfe.fold", fold=fold):
        h = xtr.shape[1]
        # Bin the fold once; every fit below column-slices these codes.
        # Falls back to plain fits when the factory's estimators lack
        # the binned surface.
        prebinned = codes_te = None
        surface = _binned_surface(estimator_factory())
        if surface is not None:
            binner = Binner(surface[1]).fit(xtr)
            prebinned = (binner.transform(xtr), binner)
            codes_te = binner.transform(xte)
        rfe = RFE(estimator_factory).fit(xtr, ytr, prebinned=prebinned)
        # Score nested subsets on the held-out fold; keep the best.
        best_err = np.inf
        best_subset: list[int] = list(range(h))
        for k in range(1, h + 1):
            subset = [f for f in range(h) if rfe.ranking_[f] <= k]
            est = rfe.estimators_.get(tuple(subset))
            if est is None:
                est = _fit_columns(estimator_factory(), xtr, ytr, subset, prebinned)
            surface = _binned_surface(est) if codes_te is not None else None
            if surface is not None:
                pred = surface[0].predict_binned(codes_te[:, subset])
            else:
                pred = est.predict(xte[:, subset])
            err = rmse(yte, pred)
            if err < best_err - 1e-12:
                best_err = err
                best_subset = subset
        # The last subset (k = H) is every feature in order: its
        # predictions are the full-feature model's.
        full_pred = pred
        if off_te is not None:
            truth = yte + off_te
            full_pred = full_pred + off_te
        else:
            truth = yte
        return best_subset, float(mape(truth, full_pred))


def relevance_scores(
    x: np.ndarray,
    y: np.ndarray,
    feature_names: list[str],
    estimator_factory: Callable[[], Estimator] = default_estimator,
    n_splits: int = 10,
    seed: int = 0,
    mape_offset: np.ndarray | None = None,
    max_samples: int | None = 4000,
    workers: int | None = None,
) -> RelevanceResult:
    """Cross-validated RFE relevance scores (paper §IV-B / Fig. 9).

    Parameters
    ----------
    x, y:
        Mean-centered per-step samples: (NT, H) and (NT,).
    feature_names:
        Column labels (Table II abbreviations).
    estimator_factory:
        Must return identically configured, deterministic estimators.
        Each fold scores the subset ``{f : ranking[f] <= k}`` with the
        model the elimination path fitted when k features were left:
        the path keeps column order and ranks every feature it dropped
        earlier above k, so that model saw exactly this subset and the
        same rows, and a fresh estimator would grow the same model.
        Only sizes off the path (k = 1, and any a ``step > 1`` path
        skips) get a fit of their own: H fits per fold for H features.
    n_splits:
        Folds (paper: 10).
    mape_offset:
        When ``y`` is a mean-centered deviation, the MAPE of the *time*
        prediction needs the mean trend back; pass the per-sample mean so
        the reported MAPE is on reconstructed absolute times.
    max_samples:
        Random subsample cap on the (NT) rows — the RFE sweep fits
        H * n_splits boosted ensembles, and a few thousand samples
        already pin the relevance ordering.  ``None`` disables.
    workers:
        CV folds are independent tasks fanned out over
        :mod:`repro.parallel` (``REPRO_WORKERS`` overrides; ``0`` = all
        cores; default serial).  Results reduce in fold order, so every
        worker count yields bit-identical output.  ``estimator_factory``
        must be picklable (a module-level function) when ``workers > 1``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[1] != len(feature_names):
        raise ValueError("feature_names must match x columns")
    if max_samples is not None and len(x) > max_samples:
        pick = np.random.default_rng(seed).choice(
            len(x), size=max_samples, replace=False
        )
        x = x[pick]
        y = y[pick]
        if mape_offset is not None:
            mape_offset = np.asarray(mape_offset)[pick]
    h = x.shape[1]
    kf = KFold(n_splits=n_splits, shuffle=True, seed=seed)
    tasks = []
    for fold, (train, test) in enumerate(kf.split(len(x))):
        off_te = mape_offset[test] if mape_offset is not None else None
        tasks.append(
            (x[train], y[train], x[test], y[test], off_te, estimator_factory, fold)
        )
    with span(
        "ml.rfe.relevance",
        features=h,
        n=len(x),
        splits=n_splits,
        workers=effective_workers(workers),
    ):
        fold_results = parallel_map(_fold_relevance, tasks, workers=workers)
    counts = np.zeros(h)
    chosen_all: list[list[int]] = []
    mapes: list[float] = []
    for best_subset, fold_mape in fold_results:
        counts[best_subset] += 1.0
        chosen_all.append(best_subset)
        mapes.append(fold_mape)
    return RelevanceResult(
        feature_names=list(feature_names),
        scores=counts / n_splits,
        prediction_mape=float(np.mean(mapes)),
        chosen_subsets=chosen_all,
    )
