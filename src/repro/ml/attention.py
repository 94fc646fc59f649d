"""Scalar dot-product attention forecaster (paper §IV-C).

The paper predicts the aggregate execution time of the next ``k`` steps
from the counters of the last ``m`` steps using "the popular scalar
dot-product attention along with a fully connected neural network"
(Vaswani et al., 2017).  This is that model, with explicit NumPy
forward/backward passes:

    [Q | K | V] = X [Wq | Wk | Wv]             (one fused projection)
    A = softmax(Q K^T / sqrt(d))               (temporal attention)
    C = A V                                    (attended context)
    pooled = [mean_t C ; C_m]                  (mean + current-step context)
    y = W2 relu(W1 pooled + b1) + b2           (MLP head)

The current-step context is concatenated because the forecasting target
(aggregate time of the next k steps) is anchored at the window's final
step t_c (paper Fig. 6).

Inputs are standardised internally; the target is standardised as well so
the MSE landscape is well-conditioned regardless of counter magnitudes.

Training step.  The seven parameters are views into one flat vector, with
``Wq``/``Wk``/``Wv`` the column blocks of the fused ``(H, 3d)`` projection,
and their gradients are views into a second one: Adam makes one
elementwise update per step and an early-stopping snapshot is one copy.
The three projection gradients are written into one ``(B, m, 3d)`` array
and reduced by one batched per-window product.

Reduction-order rule: every sum over windows or window steps is a small
per-window BLAS product (inner dimension m or H) or a NumPy reduction,
never one BLAS product over all B·m rows.  OpenBLAS sums such a product
in a thread-count-dependent order, so a fit would give different bits at
``OPENBLAS_NUM_THREADS=1`` and ``=2``; under the rule it does not.
"""

from __future__ import annotations

import numpy as np

from repro.ml.nn import Adam, glorot, relu, relu_grad, softmax, softmax_backward
from repro.ml.scaling import StandardScaler

#: Attributes derived from ``params`` (the flat vectors and their views);
#: rebuilt on unpickling rather than stored.
_DERIVED = ("_flat", "_wqkv", "_grad", "_d_wqkv", "_grads")


def _views(flat: np.ndarray, h: int, d: int, hid: int):
    """``flat`` as the fused ``(h, 3d)`` projection and the named parameters."""
    wqkv, w1, b1, w2, b2 = np.split(
        flat, np.cumsum([h * 3 * d, 2 * d * hid, hid, hid])
    )
    wqkv = wqkv.reshape(h, 3 * d)
    return wqkv, {
        "Wq": wqkv[:, :d],
        "Wk": wqkv[:, d : 2 * d],
        "Wv": wqkv[:, 2 * d :],
        "W1": w1.reshape(2 * d, hid),
        "b1": b1,
        "W2": w2.reshape(hid, 1),
        "b2": b2,
    }


class AttentionForecaster:
    """Attention + MLP regressor over (m, H) windows."""

    def __init__(
        self,
        d_model: int = 24,
        hidden: int = 48,
        lr: float = 3e-3,
        epochs: int = 300,
        batch_size: int = 128,
        seed: int = 0,
        patience: int = 40,
        validation_fraction: float = 0.15,
    ) -> None:
        if d_model < 1 or hidden < 1:
            raise ValueError("d_model and hidden must be positive")
        self.d_model = d_model
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.patience = patience
        self.validation_fraction = validation_fraction
        self.params: dict[str, np.ndarray] | None = None
        self._x_scaler: StandardScaler | None = None
        self._y_scaler: StandardScaler | None = None
        self.history_: list[float] = []

    # ------------------------------------------------------------------ #

    def _allocate(self, h: int) -> None:
        """Zeroed parameters and gradients, views into two flat vectors."""
        d, hid = self.d_model, self.hidden
        size = h * 3 * d + 2 * d * hid + 2 * hid + 1
        self._flat, self._grad = np.zeros(size), np.zeros(size)
        self._wqkv, self.params = _views(self._flat, h, d, hid)
        self._d_wqkv, self._grads = _views(self._grad, h, d, hid)

    def _init_params(self, h: int, rng: np.random.Generator) -> None:
        d, hid = self.d_model, self.hidden
        self._allocate(h)
        # Drawn one matrix at a time in this order, so a seed gives the
        # same initial weights as separate Q/K/V matrices would.
        for name, shape in (
            ("Wq", (h, d)), ("Wk", (h, d)), ("Wv", (h, d)),
            ("W1", (2 * d, hid)), ("W2", (hid, 1)),
        ):
            self.params[name][...] = glorot(rng, shape)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in _DERIVED:
            state.pop(key, None)
        if self.params is not None:
            # Strided views pickle larger than arrays under protocol 5.
            state["params"] = {
                name: np.ascontiguousarray(p) for name, p in self.params.items()
            }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        saved = self.params
        if saved is not None:
            self._allocate(saved["Wq"].shape[0])
            for name, value in saved.items():
                self.params[name][...] = value

    def _standardize_x(self, x: np.ndarray, fit: bool) -> np.ndarray:
        b, m, h = x.shape
        flat = x.reshape(b * m, h)
        if fit:
            self._x_scaler = StandardScaler().fit(flat)
        return self._x_scaler.transform(flat).reshape(b, m, h)

    # ------------------------------------------------------------------ #

    def _attend(self, x: np.ndarray):
        """Q, K, V (views of one fused projection) and the attention weights."""
        d = self.d_model
        qkv = x @ self._wqkv
        q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
        a = softmax(q @ np.swapaxes(k, 1, 2) / np.sqrt(d), axis=-1)
        return q, k, v, a

    def _forward(self, x: np.ndarray, need_cache: bool = False):
        p = self.params
        q, k, v, a = self._attend(x)
        c = a @ v
        pooled = np.concatenate([c.mean(axis=1), c[:, -1, :]], axis=1)
        z1 = pooled @ p["W1"] + p["b1"]
        h1 = relu(z1)
        yhat = (h1 @ p["W2"] + p["b2"])[:, 0]
        if not need_cache:
            return yhat
        return yhat, (x, q, k, v, a, pooled, z1, h1)

    def _backward(self, grad_y: np.ndarray, cache) -> dict[str, np.ndarray]:
        """Write the gradients into the gradient vector; return its views."""
        p, g = self.params, self._grads
        x, q, k, v, a, pooled, z1, h1 = cache
        d = self.d_model
        m = x.shape[1]

        d_h1 = grad_y[:, None] @ p["W2"].T  # (B, hid)
        np.matmul(h1.T, grad_y[:, None], out=g["W2"])
        g["b2"][0] = grad_y.sum()
        d_z1 = d_h1 * relu_grad(z1)
        np.matmul(pooled.T, d_z1, out=g["W1"])
        d_z1.sum(axis=0, out=g["b1"])
        d_pooled = d_z1 @ p["W1"].T  # (B, 2d)
        d_c = np.repeat(d_pooled[:, None, :d] / m, m, axis=1)  # (B, m, d)
        d_c[:, -1, :] += d_pooled[:, d:]
        d_a = d_c @ np.swapaxes(v, 1, 2)  # (B, m, m)
        d_scores = softmax_backward(a, d_a, axis=-1) / np.sqrt(d)
        d_qkv = np.empty(x.shape[:2] + (3 * d,))  # (B, m, 3d)
        np.matmul(d_scores, k, out=d_qkv[..., :d])
        np.matmul(np.swapaxes(d_scores, 1, 2), q, out=d_qkv[..., d : 2 * d])
        np.matmul(np.swapaxes(a, 1, 2), d_c, out=d_qkv[..., 2 * d :])
        # One (H, m) @ (m, 3d) product per window, summed over windows by
        # NumPy: never one BLAS product over all B·m rows (module docstring).
        np.matmul(np.swapaxes(x, 1, 2), d_qkv).sum(axis=0, out=self._d_wqkv)
        return g

    # ------------------------------------------------------------------ #

    def fit(self, x: np.ndarray, y: np.ndarray) -> "AttentionForecaster":
        """Train on windows ``x`` (n, m, H) and targets ``y`` (n,)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 3 or len(x) != len(y):
            raise ValueError("x must be (n, m, H) with matching y")
        if len(x) == 0:
            raise ValueError("cannot fit on zero windows")
        rng = np.random.default_rng(self.seed)
        xs = self._standardize_x(x, fit=True)
        self._y_scaler = StandardScaler().fit(y)
        ys = self._y_scaler.transform(y)

        n = len(xs)
        self._init_params(x.shape[2], rng)
        opt = Adam({"flat": self._flat}, lr=self.lr)

        # Validation split for early stopping.
        n_val = max(1, int(round(self.validation_fraction * n))) if n >= 10 else 0
        perm = rng.permutation(n)
        val_idx = perm[:n_val]
        tr_idx = perm[n_val:]
        best_val = np.inf
        best_flat = None
        stale = 0

        self.history_ = []
        bs = min(self.batch_size, len(tr_idx))
        for _ in range(self.epochs):
            order = rng.permutation(tr_idx)
            for start in range(0, len(order), bs):
                batch = order[start : start + bs]
                yhat, cache = self._forward(xs[batch], need_cache=True)
                grad_y = 2.0 * (yhat - ys[batch]) / len(batch)
                self._backward(grad_y, cache)
                opt.step({"flat": self._grad})
            if n_val:
                val_pred = self._forward(xs[val_idx])
                val_loss = float(np.mean((val_pred - ys[val_idx]) ** 2))
                self.history_.append(val_loss)
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    best_flat = self._flat.copy()
                    stale = 0
                else:
                    stale += 1
                    if stale >= self.patience:
                        break
            else:
                tr_pred = self._forward(xs)
                self.history_.append(float(np.mean((tr_pred - ys) ** 2)))
        if best_flat is not None:
            self._flat[...] = best_flat
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.params is None or self._x_scaler is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        xs = self._standardize_x(x, fit=False)
        ys = self._forward(xs)
        return self._y_scaler.inverse_transform(ys)

    # ------------------------------------------------------------------ #

    def attention_map(self, x: np.ndarray) -> np.ndarray:
        """The (n, m, m) attention weights for inspection."""
        if self.params is None:
            raise RuntimeError("model is not fitted")
        xs = self._standardize_x(np.asarray(x, dtype=np.float64), fit=False)
        return self._attend(xs)[3]


def permutation_importance(
    model: AttentionForecaster,
    x: np.ndarray,
    y: np.ndarray,
    metric,
    rng: np.random.Generator | None = None,
    n_repeats: int = 3,
) -> np.ndarray:
    """Model-agnostic feature importance: metric degradation when one
    feature channel is shuffled across windows (used for Fig. 11; the
    paper does not specify its attribution method — see DESIGN.md §6)."""
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=np.float64)
    base = metric(y, model.predict(x))
    h = x.shape[2]
    out = np.zeros(h)
    for j in range(h):
        scores = []
        for _ in range(n_repeats):
            xp = x.copy()
            perm = rng.permutation(len(x))
            xp[:, :, j] = x[perm][:, :, j]
            scores.append(metric(y, model.predict(xp)) - base)
        out[j] = max(float(np.mean(scores)), 0.0)
    return out
