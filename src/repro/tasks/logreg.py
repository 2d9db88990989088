"""L2-regularised logistic regression (own implementation).

The paper's classification protocol uses a one-vs-rest logistic regression
with L2 regularisation (LIBLINEAR [14]).  scikit-learn is not a dependency
of this reproduction, so a compact L-BFGS-fitted implementation (scipy
optimiser, analytic gradient) stands in; it matches LIBLINEAR's primal
formulation ``min_w  C·Σ log(1+exp(−y·w·x)) + ||w||²/2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize


@dataclass
class LogisticRegression:
    """Binary logistic regression with L2 penalty, fitted by L-BFGS."""

    c: float = 1.0
    max_iter: int = 200
    _weights: Optional[np.ndarray] = None  # (d + 1,) with bias last

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit on ``features (n, d)`` and boolean/0-1 ``labels (n,)``."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64) * 2.0 - 1.0  # {-1, +1}
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if y.shape[0] != x.shape[0]:
            raise ValueError("labels length must match feature rows")
        n, d = x.shape
        x_aug = np.concatenate([x, np.ones((n, 1))], axis=1)

        def objective(w: np.ndarray):
            margins = y * (x_aug @ w)
            # log(1 + exp(-m)) computed stably.
            loss = np.logaddexp(0.0, -margins).sum() * self.c
            loss += 0.5 * float(w[:-1] @ w[:-1])  # no penalty on bias
            sig = 1.0 / (1.0 + np.exp(np.clip(margins, -30, 30)))
            grad = -self.c * (x_aug.T @ (y * sig))
            grad[:-1] += w[:-1]
            return loss, grad

        w0 = np.zeros(d + 1)
        result = minimize(objective, w0, jac=True, method="L-BFGS-B",
                          options={"maxiter": self.max_iter})
        self._weights = result.x
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw scores ``w·x + b``."""
        if self._weights is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(features, dtype=np.float64)
        return x @ self._weights[:-1] + self._weights[-1]


class OneVsRestClassifier:
    """Independent binary classifiers per label (multi-label protocol)."""

    def __init__(self, c: float = 1.0, max_iter: int = 200) -> None:
        self.c = c
        self.max_iter = max_iter
        self._models: list[LogisticRegression] = []

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "OneVsRestClassifier":
        """Fit on ``features (n, d)`` and boolean ``labels (n, L)``."""
        labels = np.asarray(labels, dtype=bool)
        if labels.ndim != 2:
            raise ValueError("labels must be a 2-D multi-label matrix")
        self._models = []
        for j in range(labels.shape[1]):
            model = LogisticRegression(c=self.c, max_iter=self.max_iter)
            column = labels[:, j]
            if column.all() or not column.any():
                # Degenerate label: decision is the prior; keep a constant
                # model by fitting on a tiny perturbed copy.
                model._weights = np.zeros(features.shape[1] + 1)
                model._weights[-1] = 30.0 if column.all() else -30.0
            else:
                model.fit(features, column)
            self._models.append(model)
        return self

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        """Per-label decision scores ``(n, L)``."""
        if not self._models:
            raise RuntimeError("classifier is not fitted")
        return np.stack(
            [m.decision_function(features) for m in self._models], axis=1
        )

    def predict_top_k(self, features: np.ndarray, k_per_row: np.ndarray) -> np.ndarray:
        """Standard multi-label protocol [42]: predict each node's top-k
        labels where k is its true label count."""
        scores = self.predict_scores(features)
        out = np.zeros_like(scores, dtype=bool)
        for i, k in enumerate(np.asarray(k_per_row, dtype=np.int64)):
            if k <= 0:
                continue
            top = np.argpartition(-scores[i], min(k, scores.shape[1]) - 1)[:k]
            out[i, top] = True
        return out
