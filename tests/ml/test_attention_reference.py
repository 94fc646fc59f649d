"""The fused attention training step against the frozen einsum oracle.

:mod:`tests.ml.reference_attention` keeps the einsum training step
frozen.  The production :class:`~repro.ml.attention.AttentionForecaster`
fuses the Q/K/V projection, reduces the projection gradients with
per-window products and steps one flat parameter vector, so its float
bits may differ from the oracle's.  The contract pinned here:

* one forward/backward pass from identical parameters gives the same
  gradients to ``rtol=1e-12`` (of each tensor's largest entry);
* a full fit gives the same validation history and predictions to
  ``rtol=1e-9``;
* one flat Adam step is byte-identical to the oracle's dict Adam;
* the rendered Fig. 8 / Fig. 10 grids are identical text;
* a fit gives byte-identical results at 1 and 2 OpenBLAS threads.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import _forecast_common, run_experiment
from repro.ml.attention import AttentionForecaster
from repro.ml.nn import Adam, softmax, softmax_backward
from tests.ml.reference_attention import ReferenceAttentionForecaster


def _pair(h: int, d_model: int, seed: int = 1):
    """A production model and an oracle with identical initial parameters."""
    got = AttentionForecaster(d_model=d_model, hidden=2 * d_model)
    want = ReferenceAttentionForecaster(d_model=d_model, hidden=2 * d_model)
    got._init_params(h, np.random.default_rng(seed))
    want._init_params(h, np.random.default_rng(seed))
    assert list(got.params) == list(want.params)
    for name, p in want.params.items():
        assert got.params[name].tobytes() == p.tobytes(), name
    return got, want


def _windows(shape, seed: int = 0):
    """Counter-like windows: channels spanning six orders of magnitude."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * np.geomspace(1.0, 1e6, shape[2])
    y = 50.0 + x[:, -1, 0] + 0.3 * x[:, :, 1].mean(axis=1) + rng.normal(size=len(x))
    return x, y


# Fast-grid window shapes: Fig. 8/10 cells (93 and 186 windows of 30
# steps over the 23 counters) and a tiny (9, 3, 13) edge.
SHAPES = [(9, 3, 13), (93, 30, 23), (186, 30, 23)]


@pytest.mark.parametrize("d_model", [12, 24])
@pytest.mark.parametrize("shape", SHAPES)
def test_gradients_match_reference(shape, d_model):
    b, m, h = shape
    got, want = _pair(h, d_model)
    rng = np.random.default_rng(2)
    x = rng.normal(size=shape)
    y = rng.normal(size=b)
    yg, cache_g = got._forward(x, need_cache=True)
    yw, cache_w = want._forward(x, need_cache=True)
    np.testing.assert_allclose(yg, yw, rtol=1e-12)
    grads_g = got._backward(2.0 * (yg - y) / b, cache_g)
    grads_w = want._backward(2.0 * (yw - y) / b, cache_w)
    assert sorted(grads_g) == sorted(grads_w)
    for name, gw in grads_w.items():
        np.testing.assert_allclose(
            grads_g[name], gw, rtol=1e-12, atol=1e-12 * np.abs(gw).max(),
            err_msg=name,
        )


@pytest.mark.parametrize("shape", [(9, 3, 13), (93, 30, 23)])
def test_fit_matches_reference(shape, monkeypatch):
    x, y = _windows(shape)
    got = _forecast_common.fast_forecaster(seed=3).fit(x, y)
    monkeypatch.setattr(
        _forecast_common, "AttentionForecaster", ReferenceAttentionForecaster
    )
    want = _forecast_common.fast_forecaster(seed=3).fit(x, y)
    assert isinstance(want, ReferenceAttentionForecaster)
    assert len(got.history_) == len(want.history_)
    np.testing.assert_allclose(got.history_, want.history_, rtol=1e-9)
    np.testing.assert_allclose(got.predict(x), want.predict(x), rtol=1e-9)


def test_flat_adam_step_is_byte_identical():
    """The fit's one update of the flat vector equals seven dict updates."""
    got, want = _pair(h=23, d_model=12)
    rng = np.random.default_rng(4)
    flat_opt = Adam({"flat": got._flat}, lr=3e-3)
    dict_opt = Adam(want.params, lr=3e-3)
    for _ in range(3):
        grads = {name: rng.normal(size=p.shape) for name, p in want.params.items()}
        for name, g in grads.items():
            got._grads[name][...] = g
        flat_opt.step({"flat": got._grad})
        dict_opt.step(grads)
    for name, p in want.params.items():
        assert got.params[name].tobytes() == p.tobytes(), name


class _CountingReference(ReferenceAttentionForecaster):
    fits = 0

    def fit(self, x, y):
        type(self).fits += 1
        return super().fit(x, y)


@pytest.mark.parametrize("exp_id", ["fig08", "fig10"])
def test_rendered_grid_matches_reference(exp_id, tiny_campaign, monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    got = run_experiment(exp_id, campaign=tiny_campaign, fast=True)
    monkeypatch.setattr(_forecast_common, "AttentionForecaster", _CountingReference)
    _CountingReference.fits = 0
    want = run_experiment(exp_id, campaign=tiny_campaign, fast=True)
    assert _CountingReference.fits > 0
    assert got.text == want.text


def test_pickle_predicts_identically_and_is_no_larger():
    """The flat vectors are rebuilt on unpickling, not stored."""
    x, y = _windows((93, 30, 23))
    got = AttentionForecaster(d_model=12, hidden=24, epochs=5, seed=0).fit(x, y)
    want = ReferenceAttentionForecaster(d_model=12, hidden=24, epochs=5, seed=0).fit(x, y)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert len(pickle.dumps(got, protocol)) <= len(pickle.dumps(want, protocol))
    # The artifact store pickles with the highest protocol.
    back = pickle.loads(pickle.dumps(got, pickle.HIGHEST_PROTOCOL))
    assert back.predict(x).tobytes() == got.predict(x).tobytes()
    assert back.attention_map(x).tobytes() == got.attention_map(x).tobytes()
    # The restored parameters are views into one rebuilt flat vector.
    for name, p in got.params.items():
        assert back.params[name].tobytes() == p.tobytes(), name
        assert np.shares_memory(back.params[name], back._flat), name


def test_softmax_gives_the_textbook_bits():
    """Softmax and its backward reuse their one fresh array in place;
    the bits are those of the plain formulas."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 5, 5)) * 4
    grad = rng.normal(size=x.shape)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    assert softmax(x).tobytes() == a.tobytes()
    want = a * (grad - (grad * a).sum(axis=-1, keepdims=True))
    assert softmax_backward(a, grad).tobytes() == want.tobytes()


def test_fit_on_zero_windows_raises():
    with pytest.raises(ValueError, match="cannot fit on zero windows"):
        AttentionForecaster().fit(np.zeros((0, 3, 4)), np.zeros(0))


# --------------------------------------------------------------------- #
# BLAS thread-count invariance
# --------------------------------------------------------------------- #

# 243 windows: 36 for validation, then training batches of 128 and 79
# windows.  79 x 30 = 2,370 rows is a size at which a single BLAS
# product over all rows sums in a thread-count-dependent order here
# (OpenBLAS 0.3.31, 2 CPUs); 3,840 rows happens not to be.
_CHILD = """
import hashlib
import numpy as np
from repro.ml.attention import AttentionForecaster

rng = np.random.default_rng(0)
x = rng.normal(size=(243, 30, 23)) * np.geomspace(1.0, 1e6, 23)
y = 50.0 + x[:, -1, 0] + rng.normal(size=243)
model = AttentionForecaster(d_model=12, hidden=24, epochs=15, seed=0).fit(x, y)
digest = hashlib.sha256()
for p in model.params.values():
    digest.update(p.tobytes())
digest.update(model.predict(x[:128]).tobytes())
print(digest.hexdigest())
"""


def _child_digest(threads: int) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    return out.stdout.strip()


def test_fit_is_identical_at_one_and_two_blas_threads():
    assert _child_digest(1) == _child_digest(2)
