"""Property suite for the batched top-k scorer (the serving hot path).

The contract under test (see :mod:`repro.serving.scorer`): batched
scoring over any candidate catalogue must match a brute-force per-query
loop -- same selection, same order, same scores -- for both metrics,
with ties broken by smallest node id, cold (zero-norm) nodes scoring a
well-defined 0 under cosine, duplicate candidate ids deduplicated, and
``k`` beyond the catalogue padding with ``(-1, -inf)``.  Integer-valued
matrices make dot products exactly representable, so equality here means
equality of *bytes*, which is what the multi-worker parity gate builds
on.  The batched selection kernel is additionally held, byte for byte,
to the per-row ``deterministic_top_k`` oracle with its sampled threshold
forced on (the catalogues above are small enough that the default sample
covers them whole).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import scorer as scorer_module
from repro.serving.scorer import (
    BatchTopKScorer,
    _batched_top_k,
    deterministic_top_k,
    row_norms,
)

# --------------------------------------------------------------------- #
# Brute-force reference
# --------------------------------------------------------------------- #


def brute_force_top_k(embeddings, node, k, metric, candidates=None,
                      exclude_self=True, exclude=()):
    """Per-query reference: score every candidate, sort by (-score, id)."""
    n = embeddings.shape[0]
    cand = (np.unique(np.asarray(candidates, dtype=np.int64))
            if candidates is not None else np.arange(n, dtype=np.int64))
    barred = set(int(b) for b in exclude)
    if exclude_self:
        barred.add(int(node))
    query = embeddings[node].astype(np.float64)
    qnorm = float(np.linalg.norm(query)) or 1.0
    scored = []
    for c in cand:
        if int(c) in barred:
            continue
        score = float(embeddings[int(c)].astype(np.float64) @ query)
        if metric == "cosine":
            cnorm = float(np.linalg.norm(
                embeddings[int(c)].astype(np.float64))) or 1.0
            score = score / cnorm / qnorm
        scored.append((int(c), score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def assert_matches_reference(embeddings, nodes, k, metric,
                             candidates=None, exclude=None, **kwargs):
    scorer = BatchTopKScorer(embeddings, **kwargs)
    result = scorer.top_k(np.asarray(nodes, dtype=np.int64), k=k,
                          metric=metric, candidates=candidates,
                          exclude=exclude)
    for row, node in enumerate(nodes):
        barred = exclude[row] if exclude is not None else ()
        want = brute_force_top_k(embeddings, node, k, metric,
                                 candidates=candidates, exclude=barred)
        got = result.as_lists()[row]
        assert [i for i, _ in got] == [i for i, _ in want], (
            f"node {node}: ids {got} != reference {want}")
        np.testing.assert_allclose([s for _, s in got],
                                   [s for _, s in want],
                                   rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------- #
# deterministic_top_k unit behaviour
# --------------------------------------------------------------------- #


class TestDeterministicTopK:
    def test_plain_descending(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        np.testing.assert_array_equal(deterministic_top_k(scores, 2),
                                      [1, 3])

    def test_ties_break_by_smallest_index(self):
        scores = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
        np.testing.assert_array_equal(deterministic_top_k(scores, 2),
                                      [0, 1])
        np.testing.assert_array_equal(deterministic_top_k(scores, 3),
                                      [0, 1, 2])

    def test_ties_straddling_boundary_after_strict_winners(self):
        # 9.0 is strictly above; the 1.0 tie pool fills the rest by id.
        scores = np.array([1.0, 9.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(deterministic_top_k(scores, 3),
                                      [1, 0, 2])

    def test_k_at_least_n_returns_all_sorted(self):
        scores = np.array([0.5, 2.0, 0.5])
        for k in (3, 10):
            np.testing.assert_array_equal(deterministic_top_k(scores, k),
                                          [1, 0, 2])

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40),
           st.integers(1, 45))
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_reference(self, values, k):
        scores = np.asarray(values, dtype=np.float64)
        full = np.lexsort((np.arange(scores.size), -scores))
        want = full[:min(k, scores.size)]
        np.testing.assert_array_equal(deterministic_top_k(scores, k),
                                      want)


# --------------------------------------------------------------------- #
# Batched scorer vs brute force
# --------------------------------------------------------------------- #

matrix_strategy = st.tuples(
    st.integers(3, 16),     # nodes
    st.integers(1, 6),      # dim
    st.integers(0, 10_000),  # seed
)


class TestScorerMatchesBruteForce:
    @given(matrix_strategy, st.sampled_from(["cosine", "dot"]),
           st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_random_matrices_all_candidates(self, spec, metric, k):
        n, d, seed = spec
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, d))
        nodes = rng.integers(0, n, size=min(4, n))
        assert_matches_reference(emb, nodes, k, metric)

    @given(matrix_strategy, st.sampled_from(["cosine", "dot"]),
           st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_tied_integer_matrices(self, spec, metric, k):
        # Tiny integer alphabet forces massive score ties: the id
        # tie-break (not argpartition luck) must decide every boundary.
        n, d, seed = spec
        rng = np.random.default_rng(seed)
        emb = rng.integers(-1, 2, size=(n, d)).astype(np.float64)
        nodes = rng.integers(0, n, size=min(4, n))
        assert_matches_reference(emb, nodes, k, metric)

    @given(matrix_strategy, st.sampled_from(["cosine", "dot"]))
    @settings(max_examples=40, deadline=None)
    def test_candidate_masks_with_duplicates(self, spec, metric):
        n, d, seed = spec
        rng = np.random.default_rng(seed)
        emb = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        # Duplicated, unsorted candidate pool (bipartite catalogue shape).
        cand = rng.integers(0, n, size=n + 3)
        nodes = rng.integers(0, n, size=2)
        assert_matches_reference(emb, nodes, 5, metric, candidates=cand)

    @given(matrix_strategy)
    @settings(max_examples=40, deadline=None)
    def test_zero_norm_rows_score_zero_cosine(self, spec):
        n, d, seed = spec
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, d))
        emb[0] = 0.0          # cold query node
        emb[n - 1] = 0.0      # cold candidate
        assert_matches_reference(emb, [0, n - 1], n, "cosine")
        result = BatchTopKScorer(emb).top_k([0], k=n, metric="cosine",
                                            exclude_self=False)
        assert not np.isnan(result.scores).any()
        row = dict(result.as_lists()[0])
        assert row[0] == 0.0  # cold vs itself: defined, not NaN

    def test_per_query_exclude_arrays(self):
        rng = np.random.default_rng(4)
        emb = rng.integers(-2, 3, size=(10, 4)).astype(np.float64)
        nodes = [1, 5]
        exclude = [np.array([0, 2, 9]), np.array([], dtype=np.int64)]
        assert_matches_reference(emb, nodes, 6, "dot", exclude=exclude)

    def test_normalized_cache_and_shipped_norms_match(self):
        rng = np.random.default_rng(9)
        emb = rng.standard_normal((20, 5))
        nodes = np.arange(6)
        base = BatchTopKScorer(emb).top_k(nodes, k=7)
        cached = BatchTopKScorer(emb, normalized_cache=True).top_k(
            nodes, k=7)
        shipped = BatchTopKScorer(emb, norms=row_norms(emb)).top_k(
            nodes, k=7)
        np.testing.assert_array_equal(base.ids, cached.ids)
        np.testing.assert_allclose(base.scores, cached.scores,
                                   rtol=1e-12)
        assert base.ids.tobytes() == shipped.ids.tobytes()
        assert base.scores.tobytes() == shipped.scores.tobytes()


class TestEdgeCases:
    def test_k_beyond_candidates_pads(self):
        emb = np.eye(4)
        result = BatchTopKScorer(emb).top_k([0], k=10,
                                            candidates=[1, 2])
        assert result.ids.shape == (1, 10)
        np.testing.assert_array_equal(result.ids[0][:2].tolist(), [1, 2])
        assert (result.ids[0][2:] == -1).all()
        assert np.isneginf(result.scores[0][2:]).all()
        assert len(result.as_lists()[0]) == 2

    def test_query_node_outside_candidates_not_self_excluded(self):
        emb = np.eye(4) + 1.0
        result = BatchTopKScorer(emb).top_k([3], k=3, candidates=[0, 1])
        # node 3 is not in the catalogue; both candidates survive.
        assert [i for i, _ in result.as_lists()[0]] == [0, 1]

    def test_exclude_self_false_keeps_query_node(self):
        emb = np.eye(3)
        got = BatchTopKScorer(emb).top_k([1], k=1, metric="dot",
                                         exclude_self=False)
        assert got.ids[0, 0] == 1

    def test_validation_errors(self):
        emb = np.eye(4)
        scorer = BatchTopKScorer(emb)
        with pytest.raises(ValueError, match="metric"):
            scorer.top_k([0], k=1, metric="euclid")
        with pytest.raises(ValueError, match="k must be"):
            scorer.top_k([0], k=0)
        with pytest.raises(ValueError, match="query nodes"):
            scorer.top_k([7], k=1)
        with pytest.raises(ValueError, match="candidate ids"):
            scorer.top_k([0], k=1, candidates=[99])
        with pytest.raises(ValueError, match="one id array per query"):
            scorer.top_k([0, 1], k=1, exclude=[np.array([2])])
        with pytest.raises(ValueError, match="2-D"):
            BatchTopKScorer(np.zeros(5))
        with pytest.raises(ValueError, match="one entry per node"):
            BatchTopKScorer(emb, norms=np.ones(3))

    def test_fixed_catalogue_gathers_once_and_per_call_overrides(self):
        rng = np.random.default_rng(2)
        emb = rng.integers(-2, 3, size=(12, 3)).astype(np.float64)
        fixed = BatchTopKScorer(emb, candidates=np.arange(6))
        fresh = BatchTopKScorer(emb)
        a = fixed.top_k([7], k=4, metric="dot")
        b = fresh.top_k([7], k=4, metric="dot", candidates=np.arange(6))
        assert a.ids.tobytes() == b.ids.tobytes()
        c = fixed.top_k([7], k=4, metric="dot",
                        candidates=np.arange(6, 12))
        d = fresh.top_k([7], k=4, metric="dot",
                        candidates=np.arange(6, 12))
        assert c.ids.tobytes() == d.ids.tobytes()

    def test_top_k_vectors_matches_node_queries(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((15, 4))
        by_node = BatchTopKScorer(emb).top_k([4], k=5,
                                             exclude_self=False)
        by_vec = BatchTopKScorer(emb).top_k_vectors(emb[4][None, :], k=5)
        np.testing.assert_array_equal(by_node.ids, by_vec.ids)
        np.testing.assert_allclose(by_node.scores, by_vec.scores,
                                   rtol=1e-12)


# --------------------------------------------------------------------- #
# The batched selection kernel vs the per-row oracle
# --------------------------------------------------------------------- #


def oracle_top_k(block, ids, k):
    """``deterministic_top_k`` per column of the float64 cast of ``block``
    -- the per-query loop the batched kernel replaced."""
    q = block.shape[1]
    out_ids = np.full((q, k), -1, dtype=np.int64)
    out_scores = np.full((q, k), -np.inf, dtype=np.float64)
    for col in range(q):
        scores = block[:, col].astype(np.float64)
        top = deterministic_top_k(scores, k)
        top = top[scores[top] > -np.inf]
        out_ids[col, :top.size] = ids[top]
        out_scores[col, :top.size] = scores[top]
    return out_ids, out_scores


def assert_kernel_equals_oracle(block, k, samples, ids=None):
    ids = np.arange(block.shape[0], dtype=np.int64) if ids is None else ids
    want_ids, want_scores = oracle_top_k(block, ids, k)
    for sample in samples:
        got = _batched_top_k(block.copy(), ids, k, sample=sample)
        assert got.ids.tobytes() == want_ids.tobytes(), f"sample={sample}"
        assert got.scores.tobytes() == want_scores.tobytes(), (
            f"sample={sample}")


def forcing_samples(c, k):
    """Sample sizes that push a small catalogue through every regime of
    the threshold: one probe row, exactly k, k+1, and full coverage."""
    return sorted({1, k, k + 1, max(1, c - 1)})


class TestBatchedKernel:
    @given(st.integers(2, 600), st.integers(1, 6), st.integers(1, 610),
           st.sampled_from(["normal", "integer"]),
           st.sampled_from([np.float32, np.float64]),
           st.floats(0.0, 0.9), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_row_oracle_on_thresholded_branch(
            self, c, q, k, kind, dtype, barred, seed):
        rng = np.random.default_rng(seed)
        if kind == "integer":
            block = rng.integers(-2, 3, size=(c, q)).astype(dtype)
        else:
            block = rng.standard_normal((c, q)).astype(dtype)
        block[rng.random((c, q)) < barred] = -np.inf  # exclusions
        ids = np.sort(rng.choice(10 * c, size=c, replace=False))
        assert_kernel_equals_oracle(block, k, forcing_samples(c, k), ids)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_catalogue_sorted_by_score(self, direction):
        # A strided sample of a sorted column is as unrepresentative as a
        # sample gets at its ends; tau must still be a lower bound.
        column = np.arange(5000, dtype=np.float32)[::direction]
        block = np.stack([column, column * 0.5, -column], axis=1)
        assert_kernel_equals_oracle(block, 10, [1, 10, 11, 64, 4999])

    def test_all_equal_rows_take_the_per_row_fallback(self):
        # Every entry survives the threshold: the degenerate count sends
        # each query to the oracle, and the answer is ids 0..k-1.
        block = np.full((1000, 3), 2.5, dtype=np.float32)
        assert_kernel_equals_oracle(block, 7, [1, 7, 8, 64, 999])
        got = _batched_top_k(block, np.arange(1000), 7, sample=64)
        np.testing.assert_array_equal(got.ids, np.tile(np.arange(7), (3, 1)))

    def test_one_degenerate_query_beside_thin_ones(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((4000, 4)).astype(np.float32)
        block[:, 2] = 1.0  # at sample >= 512 this column alone falls back
        assert_kernel_equals_oracle(block, 10, [64, 512, 3999])

    def test_integer_ties_straddling_k(self):
        # 4 strict winners, then a tie pool of 500 at the boundary: ids
        # must fill the remaining 6 places in ascending order.
        column = np.zeros(3000, dtype=np.float32)
        column[[2999, 1500, 7, 42]] = [9.0, 8.0, 8.0, 7.0]
        column[np.arange(100, 600)] = 3.0
        block = np.stack([column, column[::-1]], axis=1)
        assert_kernel_equals_oracle(block, 10, [1, 10, 11, 64, 2999])
        got = _batched_top_k(block, np.arange(3000), 10, sample=64)
        assert got.ids[0].tolist() == [2999, 7, 1500, 42, 100, 101, 102,
                                       103, 104, 105]

    def test_fewer_than_k_admissible_entries_pad(self):
        block = np.full((600, 2), -np.inf, dtype=np.float32)
        block[[5, 300, 599], 0] = [1.0, 3.0, 2.0]  # 3 of k=5; none at all
        assert_kernel_equals_oracle(block, 5, [1, 5, 6, 64, 599])
        got = _batched_top_k(block, np.arange(600), 5, sample=64)
        assert got.ids[0].tolist() == [300, 599, 5, -1, -1]
        assert (got.ids[1] == -1).all()
        assert np.isneginf(got.scores[1]).all()

    @pytest.mark.parametrize("k", [8, 9, 50])
    def test_k_at_least_catalogue(self, k):
        rng = np.random.default_rng(k)
        block = rng.integers(-1, 2, size=(8, 3)).astype(np.float64)
        assert_kernel_equals_oracle(block, k, [1, 4, 7, 8, 100])

    def test_empty_catalogue_and_empty_batch(self):
        none = np.empty(0, dtype=np.int64)
        got = _batched_top_k(np.empty((0, 2)), none, 3)
        assert (got.ids == -1).all() and np.isneginf(got.scores).all()
        assert got.ids.shape == (2, 3)
        got = _batched_top_k(np.empty((5, 0)), np.arange(5), 3)
        assert got.ids.shape == (0, 3)

    @pytest.mark.parametrize("sample", [1, 3, 4, 6])
    def test_scorer_paths_through_a_forced_threshold(self, sample,
                                                     monkeypatch):
        # The scorer's own catalogues here are tens of rows, which the
        # default sample covers whole; shrink it so candidates with
        # duplicate ids, exclusions and the grouped block all meet a
        # sampled tau, and check them against the brute-force references.
        monkeypatch.setattr(
            scorer_module, "_batched_top_k",
            functools.partial(_batched_top_k, sample=sample))
        rng = np.random.default_rng(sample)
        emb = rng.integers(-2, 3, size=(30, 4)).astype(np.float64)
        cand = rng.integers(0, 30, size=40)  # duplicated, unsorted
        exclude = [np.array([0, 2, 9]), np.array([], dtype=np.int64)]
        for metric in ("cosine", "dot"):
            assert_matches_reference(emb, [1, 5], 3, metric,
                                     candidates=cand, exclude=exclude)
            assert_matches_reference(emb, [4, 4, 29], 5, metric)
            groups = np.sort(rng.integers(0, 9, size=30))
            scorer = BatchTopKScorer(emb, groups=groups)
            bases = np.unique(groups)[:3]
            result = scorer.top_k_bases(bases, k=3, metric=metric,
                                        candidates=cand)
            for row, base in enumerate(bases):
                want = brute_force_top_k_bases(emb, groups, base, 3,
                                               metric, candidates=cand)
                got = result.as_lists()[row]
                assert [i for i, _ in got] == [i for i, _ in want]
                np.testing.assert_allclose([s for _, s in got],
                                           [s for _, s in want],
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch", [16, 64])
    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    @pytest.mark.parametrize("kind", ["normal", "integer"])
    def test_response_bytes_equal_the_oracle_at_20k_rows(self, kind,
                                                         metric, batch):
        # The serving shape: float32 catalogue, default sample (stride 4
        # at 20 000 rows), self-exclusion.  Digest of ids and scores must
        # equal the per-row oracle on the float64 cast of the same
        # product -- the bytes the per-query loop used to emit.
        rng = np.random.default_rng(20_000 + batch)
        if kind == "integer":
            emb = rng.integers(-8, 9, size=(20_000, 64)).astype(np.float32)
        else:
            emb = rng.standard_normal((20_000, 64), dtype=np.float32)
        nodes = rng.integers(0, 20_000, size=batch)
        scorer = BatchTopKScorer(emb)
        got = scorer.top_k(nodes, k=10, metric=metric)
        gathered = scorer._resolve_candidates(None)
        block = scorer._score(emb[nodes], scorer.norms[nodes], metric,
                              gathered)
        block[nodes, np.arange(batch)] = -np.inf
        want_ids, want_scores = oracle_top_k(
            block.astype(np.float64), gathered["ids"], 10)
        assert hashlib.sha256(got.ids.tobytes()).hexdigest() == \
            hashlib.sha256(want_ids.tobytes()).hexdigest()
        assert hashlib.sha256(got.scores.tobytes()).hexdigest() == \
            hashlib.sha256(want_scores.tobytes()).hexdigest()


class TestNonFiniteQueries:
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_top_k_vectors_names_the_first_bad_row(self, poison, metric):
        emb = np.random.default_rng(0).standard_normal((12, 3))
        vectors = emb[:4].copy()
        vectors[2, 1] = poison
        vectors[3, 0] = poison
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            BatchTopKScorer(emb).top_k_vectors(vectors, k=3, metric=metric)

    def test_zero_query_vector_stays_legal(self):
        emb = np.random.default_rng(0).standard_normal((12, 3))
        got = BatchTopKScorer(emb).top_k_vectors(np.zeros((1, 3)), k=3)
        assert got.ids[0].tolist() == [0, 1, 2]
        assert (got.scores[0] == 0.0).all()


# --------------------------------------------------------------------- #
# Grouped (persona-aware) top-k
# --------------------------------------------------------------------- #


def brute_force_top_k_bases(emb, groups, base, k, metric,
                            candidates=None, exclude_self=True):
    """Per-group reference: best member-pair score, sort by (-score, gid)."""
    n = emb.shape[0]
    cand = (np.unique(np.asarray(candidates, dtype=np.int64))
            if candidates is not None else np.arange(n, dtype=np.int64))
    q_rows = np.flatnonzero(groups == base)
    scored = []
    for gid in np.unique(groups[cand]):
        if exclude_self and int(gid) == int(base):
            continue
        g_rows = cand[groups[cand] == gid]
        best = -np.inf
        for qr in q_rows:
            for cr in g_rows:
                score = float(emb[int(cr)].astype(np.float64)
                              @ emb[int(qr)].astype(np.float64))
                if metric == "cosine":
                    qn = float(np.linalg.norm(
                        emb[int(qr)].astype(np.float64))) or 1.0
                    cn = float(np.linalg.norm(
                        emb[int(cr)].astype(np.float64))) or 1.0
                    score = score / cn / qn
                best = max(best, score)
        if best > -np.inf:
            scored.append((int(gid), best))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


class TestGroupedTopK:
    def _random_grouped(self, seed, n=20, d=4, num_groups=7):
        rng = np.random.default_rng(seed)
        emb = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        groups = np.sort(rng.integers(0, num_groups, size=n))
        groups[0] = 0  # group 0 always populated
        return emb, groups

    @given(st.integers(0, 5000), st.sampled_from(["cosine", "dot"]),
           st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, metric, k):
        emb, groups = self._random_grouped(seed)
        scorer = BatchTopKScorer(emb, groups=groups)
        present = np.unique(groups)
        bases = present[:3]
        result = scorer.top_k_bases(bases, k=k, metric=metric)
        for row, base in enumerate(bases):
            want = brute_force_top_k_bases(emb, groups, base, k, metric)
            got = result.as_lists()[row]
            assert [i for i, _ in got] == [i for i, _ in want]
            np.testing.assert_allclose([s for _, s in got],
                                       [s for _, s in want],
                                       rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 5000), st.sampled_from(["cosine", "dot"]))
    @settings(max_examples=25, deadline=None)
    def test_candidate_restriction(self, seed, metric):
        emb, groups = self._random_grouped(seed)
        rng = np.random.default_rng(seed + 1)
        cand = rng.integers(0, emb.shape[0], size=emb.shape[0] // 2 + 2)
        scorer = BatchTopKScorer(emb, groups=groups)
        base = int(groups[0])
        result = scorer.top_k_bases([base], k=4, metric=metric,
                                    candidates=cand)
        want = brute_force_top_k_bases(emb, groups, base, 4, metric,
                                       candidates=cand)
        got = result.as_lists()[0]
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([s for _, s in got],
                                   [s for _, s in want],
                                   rtol=1e-12, atol=1e-12)
        # Groups without a candidate row can never be returned.
        allowed = set(int(g) for g in np.unique(groups[np.unique(cand)]))
        assert all(i in allowed for i, _ in got)

    def test_exclude_self_toggles_query_group(self):
        emb = np.ones((6, 3))
        groups = np.array([0, 0, 1, 1, 2, 2])
        scorer = BatchTopKScorer(emb, groups=groups)
        barred = scorer.top_k_bases([1], k=6, metric="dot")
        assert 1 not in barred.ids[0]
        kept = scorer.top_k_bases([1], k=6, metric="dot",
                                  exclude_self=False)
        assert 1 in kept.ids[0]

    def test_empty_query_group_pads(self):
        # Group ids {0, 2}: group 1 exists in id space but owns no rows.
        emb = np.eye(4)
        groups = np.array([0, 0, 2, 2])
        scorer = BatchTopKScorer(emb, groups=groups)
        result = scorer.top_k_bases([1], k=3, metric="dot")
        assert (result.ids[0] == -1).all()
        assert np.isneginf(result.scores[0]).all()

    def test_k_beyond_groups_pads(self):
        emb = np.eye(6)
        groups = np.array([0, 0, 1, 1, 2, 2])
        result = BatchTopKScorer(emb, groups=groups).top_k_bases(
            [0], k=5, metric="dot")
        assert result.ids.shape == (1, 5)
        assert set(result.ids[0][:2].tolist()) == {1, 2}
        assert (result.ids[0][2:] == -1).all()

    def test_singleton_groups_reduce_to_plain_top_k(self):
        rng = np.random.default_rng(4)
        emb = rng.integers(-2, 3, size=(15, 4)).astype(np.float64)
        scorer = BatchTopKScorer(emb, groups=np.arange(15))
        plain = BatchTopKScorer(emb)
        for metric in ("cosine", "dot"):
            grouped = scorer.top_k_bases([3, 7], k=5, metric=metric)
            flat = plain.top_k([3, 7], k=5, metric=metric)
            np.testing.assert_array_equal(grouped.ids, flat.ids)
            np.testing.assert_allclose(grouped.scores, flat.scores,
                                       rtol=1e-12)

    def test_validation_errors(self):
        emb = np.eye(4)
        with pytest.raises(ValueError, match="groups"):
            BatchTopKScorer(emb).top_k_bases([0], k=1)
        with pytest.raises(ValueError, match="map every row"):
            BatchTopKScorer(emb, groups=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            BatchTopKScorer(emb, groups=np.array([0, -1, 1, 1]))
        scorer = BatchTopKScorer(emb, groups=np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="metric"):
            scorer.top_k_bases([0], k=1, metric="euclid")
        with pytest.raises(ValueError, match="k must be"):
            scorer.top_k_bases([0], k=0)
        with pytest.raises(ValueError, match="query groups"):
            scorer.top_k_bases([5], k=1)
