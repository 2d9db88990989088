"""Negative sampling distribution (word2vec's unigram^0.75 [34]).

Negative samples are drawn from ``P_n(v) ∝ ocn(v)^{0.75}`` over corpus
occurrences -- the distribution the Skip-Gram objective (Eq. 2) takes its
expectation under.  Sampling is O(1) via the alias method, and samples are
drawn in *row space* (frequency order) so learners can index the global
matrices directly.

:meth:`NegativeSampler.sample_rows_stream` is the one draw path:
uniforms come from a counter-based :class:`repro.utils.rng.CounterStream`
and are mapped through the alias table as a pure function, so the
``i``-th negative of a machine's stream has the same value no matter how
draws are batched.  This is what makes the loop and vectorized trainers
consume identical negative samples.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.vocab import Vocabulary
from repro.utils.alias import AliasTable
from repro.utils.rng import CounterStream


class NegativeSampler:
    """Draws negative rows from the smoothed unigram distribution."""

    def __init__(self, vocab: Vocabulary, power: float = 0.75) -> None:
        if not 0.0 <= power <= 1.0:
            raise ValueError(f"power must be in [0, 1], got {power}")
        counts = vocab.row_counts.astype(np.float64)
        weights = np.power(counts, power)
        if weights.sum() <= 0:
            # Degenerate corpus: fall back to uniform over the vocabulary.
            weights = np.ones_like(weights)
        self.power = power
        self._table = AliasTable(weights)

    def sample_rows_stream(self, count: int, stream: CounterStream) -> np.ndarray:
        """``count`` negative rows (indices into the global matrices).

        One uniform is consumed per negative; values depend only on the
        stream's ``(key, counter)`` state, never on how the draws are
        chunked into calls.
        """
        return self._table.sample_with_uniforms(stream.uniforms(count))

    @property
    def probabilities(self) -> np.ndarray:
        """Row-space sampling distribution (for distribution tests)."""
        return self._table.probabilities
