"""Frozen refit-every-subset RFE fold (oracle).

This is a verbatim copy of ``repro.ml.rfe._fold_relevance`` from before
the nested-subset scoring reused the elimination path's own fits: every
subset ``{f : ranking[f] <= k}`` for k = 1..H gets a fresh estimator
fitted on the train fold, 2H-1 fits per fold where H suffice.  Only
this docstring and the imports are new.  It pins the byte-identity
contract: production ``relevance_scores`` must reproduce this fold's
best subsets and MAPEs exactly.
Do not "modernise" this module — its value is that it does not change.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ml.metrics import mape, rmse
from repro.ml.pipeline import Estimator
from repro.ml.rfe import RFE, _binned_surface
from repro.ml.tree import Binner
from repro.obs import span


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

    Top-level so it pickles into pool workers; deterministic in its
    arguments, so the result is independent of which worker runs it.
    """
    with span("ml.rfe.fold", fold=fold):
        h = xtr.shape[1]
        # Bin the fold once; every nested refit below column-slices these
        # codes (per-feature quantile edges make that bit-identical to
        # re-binning the subset).  Falls back to plain fits when the
        # factory's estimators lack the binned surface.
        prebinned = None
        codes_tr = codes_te = binner = None
        surface = _binned_surface(estimator_factory())
        if surface is not None:
            _, n_bins = surface
            binner = Binner(n_bins).fit(xtr)
            codes_tr = binner.transform(xtr)
            codes_te = binner.transform(xte)
            prebinned = (codes_tr, binner)
        # Elimination path on the train fold.
        rfe = RFE(estimator_factory)
        rfe.fit(xtr, ytr, prebinned=prebinned)
        ranking = rfe.ranking_
        # Score nested subsets on the held-out fold; keep the best.
        best_err = np.inf
        best_subset: list[int] = list(range(h))
        full_pred: np.ndarray | None = None
        for k in range(1, h + 1):
            subset = [f for f in range(h) if ranking[f] <= k]
            est = estimator_factory()
            surface = _binned_surface(est) if prebinned is not None else None
            if surface is not None:
                target, _ = surface
                target.fit_binned(codes_tr[:, subset], ytr, binner.subset(subset))
                pred = target.predict_binned(codes_te[:, subset])
            else:
                est.fit(xtr[:, subset], ytr)
                pred = est.predict(xte[:, subset])
            err = rmse(yte, pred)
            if err < best_err - 1e-12:
                best_err = err
                best_subset = subset
            if k == h:
                # The k=H subset is every feature in order: this fit *is*
                # the full-feature model — reuse its predictions for the
                # reported MAPE instead of fitting a third time.
                full_pred = pred
        if off_te is not None:
            truth = yte + off_te
            full_pred = full_pred + off_te
        else:
            truth = yte
        return best_subset, float(mape(truth, full_pred))
