"""Random-forest regression (bagged histogram trees).

A variance-reduction baseline between the single tree and the boosted
ensemble: bootstrap rows, random feature subsets per tree, average the
predictions.  Useful as a robustness check on the GBR-based deviation
models (similar importances from an uncorrelated ensemble strengthen the
Fig. 9 conclusions).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import Binner, DecisionTreeRegressor, check_n_bins


class RandomForestRegressor:
    """Bagging over histogram CART trees with feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int = 6,
        min_samples_leaf: int = 3,
        max_features: float = 0.8,
        n_bins: int = 64,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < max_features <= 1:
            raise ValueError("max_features must be in (0, 1]")
        check_n_bins(n_bins)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.random_state = random_state
        self.trees_: list[DecisionTreeRegressor] = []
        self._features: list[np.ndarray] = []
        self.binner_: Binner | None = None
        self.feature_importances_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, h) with matching y")
        n, h = x.shape
        rng = np.random.default_rng(self.random_state)
        self.binner_ = Binner(self.n_bins).fit(x)
        binned = self.binner_.transform(x)

        k = max(1, int(round(self.max_features * h)))
        importances = np.zeros(h)
        self.trees_ = []
        self._features = []
        for _ in range(self.n_estimators):
            rows = rng.integers(0, n, size=n)  # bootstrap
            feats = np.sort(rng.choice(h, size=k, replace=False))
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                n_bins=self.n_bins,
            )
            tree.fit_binned(binned[rows][:, feats], y[rows])
            self.trees_.append(tree)
            self._features.append(feats)
            if tree.feature_importances_ is not None:
                importances[feats] += tree.feature_importances_
        s = importances.sum()
        self.feature_importances_ = importances / s if s > 0 else importances
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("model is not fitted")
        binned = self.binner_.transform(np.asarray(x, dtype=np.float64))
        acc = np.zeros(len(binned))
        for tree, feats in zip(self.trees_, self._features):
            acc += tree.predict_binned(binned[:, feats])
        return acc / len(self.trees_)
