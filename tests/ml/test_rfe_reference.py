"""Scoring the elimination path's own fits is byte-identical to refitting.

:mod:`tests.ml.reference_rfe` keeps the refit-every-subset fold frozen;
production :func:`~repro.ml.rfe.relevance_scores` must reproduce its
``scores`` (as bytes), ``prediction_mape`` (with ``==``) and
``chosen_subsets`` on the binned path, the plain-fit path, the stepless
pipeline and a Fig. 9-shaped run — while fitting H models per fold
instead of 2H-1.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.ml.rfe as rfe_mod
from repro.analysis.deviation import deviation_analysis
from repro.ml.gbr import GradientBoostedRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.rfe import RFE, _fold_relevance, relevance_scores
from tests.ml import reference_rfe

H = 6


class _CountingGBR(GradientBoostedRegressor):
    """Small GBR that counts its fits (``fit`` goes through here too)."""

    fits = 0

    def __init__(self) -> None:
        super().__init__(n_estimators=10, max_depth=2)

    def fit_binned(self, binned, y, binner):
        type(self).fits += 1
        return super().fit_binned(binned, y, binner)


class _NoBinned:
    """The counting GBR behind the plain fit/predict surface only."""

    def __init__(self) -> None:
        self._g = _CountingGBR()

    def fit(self, x, y):
        self._g.fit(x, y)
        return self

    def predict(self, x):
        return self._g.predict(x)

    @property
    def feature_importances_(self):
        return self._g.feature_importances_


def _stepless_pipeline() -> Pipeline:
    return Pipeline([], _CountingGBR())


FACTORIES = {
    "gbr": _CountingGBR,
    "no_binned": _NoBinned,
    "pipeline": _stepless_pipeline,
}


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, H))
    # Coarse columns make tied importances and tied subset errors likely.
    x[:, 2] = np.round(x[:, 2])
    x[:, 4] = x[:, 2]
    y = 2.0 * x[:, 0] - x[:, 3] + 0.5 * x[:, 2] + rng.normal(scale=0.2, size=200)
    return x, y + 10.0


def _run(x, y, factory):
    return relevance_scores(
        x,
        y,
        [f"f{i}" for i in range(x.shape[1])],
        estimator_factory=factory,
        n_splits=4,
        mape_offset=np.full(len(y), 5.0),
        workers=1,
    )


def _assert_same(got, want) -> None:
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.prediction_mape == want.prediction_mape
    assert got.chosen_subsets == want.chosen_subsets


def _oracle(monkeypatch) -> None:
    monkeypatch.setattr(rfe_mod, "_fold_relevance", reference_rfe._fold_relevance)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_relevance_matches_reference(xy, monkeypatch, name):
    x, y = xy
    got = _run(x, y, FACTORIES[name])
    _oracle(monkeypatch)
    _assert_same(got, _run(x, y, FACTORIES[name]))


def test_fig09_relevance_matches_reference(tiny_campaign, monkeypatch):
    """The Fig. 9 pipeline (the default stepless-pipeline GBR inside
    cross-validated RFE over the 13 counters) is unchanged."""
    ds = tiny_campaign["MILC-128"]

    def run():
        return deviation_analysis(ds, n_splits=3, max_samples=180).relevance

    got = run()
    _oracle(monkeypatch)
    _assert_same(got, run())


def _fold_fits(fold_fn, x, y, factory) -> int:
    _CountingGBR.fits = 0
    fold_fn(x[:150], y[:150], x[150:], y[150:], None, factory, 0)
    return _CountingGBR.fits


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_fold_fits_each_subset_once(xy, name):
    x, y = xy
    assert _fold_fits(_fold_relevance, x, y, FACTORIES[name]) == H
    assert _fold_fits(reference_rfe._fold_relevance, x, y, FACTORIES[name]) == 2 * H - 1


@pytest.mark.parametrize("name", ["gbr", "no_binned"])
def test_step_path_fits_the_sizes_it_skips(xy, monkeypatch, name):
    """With ``step=2`` the path fits sizes 6, 4, 2; sizes 5, 3, 1 are
    off it and get fits of their own — still one fit per size."""
    x, y = xy
    step2 = functools.partial(RFE, step=2)
    monkeypatch.setattr(rfe_mod, "RFE", step2)
    monkeypatch.setattr(reference_rfe, "RFE", step2)
    path = step2(FACTORIES[name]).fit(x, y)
    assert sorted(len(s) for s in path.estimators_) == [2, 4, 6]
    assert _fold_fits(_fold_relevance, x, y, FACTORIES[name]) == H
    got = _run(x, y, FACTORIES[name])
    _oracle(monkeypatch)
    _assert_same(got, _run(x, y, FACTORIES[name]))


def test_path_models_are_keyed_by_their_subset(xy):
    """Each stored model was fitted on exactly its key's columns."""
    x, y = xy
    path = RFE(_CountingGBR).fit(x, y)
    assert len(path.estimators_) == H - 1
    for subset, est in path.estimators_.items():
        assert list(subset) == sorted(subset)
        assert subset == tuple(f for f in range(H) if path.ranking_[f] <= len(subset))
        fresh = _CountingGBR().fit(x[:, list(subset)], y)
        assert est.predict(x[:, list(subset)]).tobytes() == fresh.predict(
            x[:, list(subset)]
        ).tobytes()
