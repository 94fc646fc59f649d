"""The flattened split search is byte-identical to the per-feature loop.

:mod:`tests.ml.reference_tree` keeps the original per-feature split
search frozen; the production :class:`~repro.ml.tree.DecisionTreeRegressor`
must grow exactly the same trees — node arrays and importances compared
as bytes, not with a tolerance — and therefore the same boosted models
and the same Fig. 9 relevance results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.deviation import deviation_analysis
from repro.ml.tree import DecisionTreeRegressor
from tests.ml.reference_tree import ReferenceTreeRegressor

_NODE_ARRAYS = ("_nf", "_nb_arr", "_nl", "_nr", "_nv", "feature_importances_")


def _assert_same_tree(got, want) -> None:
    for name in _NODE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _awkward_codes(rng, n: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes built to exercise tie-breaking: coarse tie-heavy columns,
    exact duplicates (equal gains in two features), a constant column
    (no valid split), and one informative full-range column."""
    coarse = rng.integers(0, min(n_bins, 3), size=(n, 3))
    full = rng.integers(0, n_bins, size=(n, 2))
    codes = np.column_stack(
        [coarse[:, 0], coarse[:, 0], full[:, 0], np.zeros(n, dtype=int),
         coarse[:, 1], full[:, 1], full[:, 1], coarse[:, 2]]
    ).astype(np.uint8)
    # Rounded targets make many candidate splits score exactly equal.
    y = np.round(2.0 * coarse[:, 0] - full[:, 1] / n_bins + rng.normal(size=n), 1)
    return codes, y


@pytest.mark.parametrize("n_bins", [2, 64, 256])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [1, 3, 8])
def test_tree_matches_reference(n_bins, min_samples_leaf, max_depth):
    rng = np.random.default_rng(n_bins * 100 + min_samples_leaf * 10 + max_depth)
    for n in (3, 40, 300):
        codes, y = _awkward_codes(rng, n, n_bins)
        params = dict(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf, n_bins=n_bins
        )
        got = DecisionTreeRegressor(**params).fit_binned(codes, y)
        want = ReferenceTreeRegressor(**params).fit_binned(codes, y)
        _assert_same_tree(got, want)


def test_duplicate_columns_split_on_the_first():
    """Equal gains in two features go to the lower feature index."""
    rng = np.random.default_rng(3)
    codes, y = _awkward_codes(rng, 200, 64)
    tree = DecisionTreeRegressor(max_depth=1, n_bins=64).fit_binned(
        codes[:, :2], y
    )
    assert tree._nf[0] == 0
    assert tree.feature_importances_[1] == 0.0


def test_fig09_relevance_matches_reference(tiny_campaign, monkeypatch):
    """The Fig. 9 pipeline (GBR inside cross-validated RFE over the 13
    counters) yields the same relevance with either split search."""
    ds = tiny_campaign["MILC-128"]

    def run():
        return deviation_analysis(ds, n_splits=3, max_samples=180).relevance

    got = run()
    monkeypatch.setattr("repro.ml.gbr.DecisionTreeRegressor", ReferenceTreeRegressor)
    want = run()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.prediction_mape == want.prediction_mape
    assert got.chosen_subsets == want.chosen_subsets
