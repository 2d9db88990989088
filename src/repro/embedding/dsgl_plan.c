/* The DSGL slice planner's compiled half (loaded by repro/native.py): all of
 * plan_dsgl_slice after the negative pools and row maps.  Integer work only --
 * the float32 lanes are exact 0/1, the rates are copied -- and every sort is
 * over distinct keys or stable, so the plan is the NumPy planner's, bytewise.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { GROUPS, WALKS, TOKENS, VOCAB, NEGATIVES, MULTI, WINDOW };
/* Per buffer: its outputs, then its counts; then the slice's shape. */
enum { GATHER, BOUNDS, KEYS, ORDER, WIDE_ORDER, WIDE_STARTS, DEST_ROWS,
       DEST_AT, CUTS };
enum { SIZE, SEGMENTS, GATHERED, WIDE, WIDE_SIZE, LAYERS, LAYER0,
       COUNTS = LAYER0 + 7 };
enum { CHUNKS = 2 * COUNTS, STEPS, SLOTS };
#define LAYERED 8   /* _LAYERED_CONTRIBUTORS of repro/embedding/ops.py */

/* Stable LSD radix sort of the pairs (key[i], i), i < n, by key in
 * [0, bound): sorted keys to sk, positions to si; tk and ti are scratch. */
static void sort_pairs(const int64_t *key, int64_t n, int64_t bound,
                       int64_t *sk, int64_t *si, int64_t *tk, int64_t *ti)
{
    int64_t *ak = sk, *ai = si, *bk = tk, *bi = ti, *swap;
    for (int64_t i = 0; i < n; ++i) {
        ak[i] = key[i];
        ai[i] = i;
    }
    for (int shift = 0; shift < 64 && (bound - 1) >> shift > 0; shift += 8) {
        int64_t count[257] = {0};
        for (int64_t i = 0; i < n; ++i)
            ++count[((ak[i] >> shift) & 255) + 1];
        for (int d = 0; d < 256; ++d)
            count[d + 1] += count[d];
        for (int64_t i = 0; i < n; ++i) {
            int64_t at = count[(ak[i] >> shift) & 255]++;
            bk[at] = ak[i];
            bi[at] = ai[i];
        }
        swap = ak, ak = bk, bk = swap;
        swap = ai, ai = bi, bi = swap;
    }
    if (ak != sk) {             /* an odd number of passes */
        memcpy(sk, ak, (size_t)n * sizeof *sk);
        memcpy(si, ai, (size_t)n * sizeof *si);
    }
}

/* One buffer's layout (_chunk_ranks) from key[i] = lifetime * vocab + row:
 * each lifetime's sorted distinct rows, concatenated, to gather, element i's
 * index there to slot[i], per-group cuts to bounds; returns the size. */
static int64_t ranks(const int64_t *key, int64_t n, int64_t bound,
                     int64_t vocab, const int64_t *group_of, int64_t groups,
                     int64_t *gather, int64_t *bounds, int64_t *slot,
                     int64_t *scratch)
{
    int64_t *sk = scratch, *si = sk + n, u = 0, c = 0;
    sort_pairs(key, n, bound, sk, si, si + n, si + 2 * n);
    memset(bounds, 0, (size_t)(groups + 1) * sizeof *bounds);
    for (int64_t i = 0; i < n; ++i) {
        if (i == 0 || sk[i] != sk[i - 1]) {
            while (sk[i] >= (c + 1) * vocab)
                ++c;
            gather[u++] = sk[i] - c * vocab;
            ++bounds[group_of[c] + 1];
        }
        slot[si[i]] = u - 1;
    }
    for (int64_t g = 0; g < groups; ++g)
        bounds[g + 1] += bounds[g];
    return u;
}

/* One buffer's write-back (_replica_merge): the DuplicateRowSum over its
 * (replica, row) keys -- segments by descending size, ties by key -- and,
 * per replica, the destination rows and their merged positions. */
static void merge(const int64_t *gather, const int64_t *bounds, int64_t groups,
                  int64_t vocab, int64_t *const *out, int64_t *counts,
                  int64_t *scratch)
{
    int64_t n = bounds[groups], segs = 0, top = 0, wide = 0, g = 0, w = 0;
    int64_t *key = scratch, *sk = key + n, *o = sk + n, *start = o + n;
    int64_t *rep = start + n + 1, *by = rep + n, *tmp = by + n;
    for (int64_t r = 0; r < groups; ++r)
        for (int64_t i = bounds[r]; i < bounds[r + 1]; ++i)
            key[i] = r * vocab + gather[i];
    sort_pairs(key, n, groups * vocab, sk, o, tmp, tmp + n);
    for (int64_t i = 0; i < n; ++i)
        if (i == 0 || sk[i] != sk[i - 1]) {
            while (sk[i] >= (g + 1) * vocab)
                ++g;
            rep[segs] = g;
            start[segs++] = i;
        }
    start[segs] = n;
#define SIZE_OF(j) (start[by[j] + 1] - start[by[j]])
    for (int64_t s = 0; s < segs; ++s)
        top = start[s + 1] - start[s] > top ? start[s + 1] - start[s] : top;
    for (int64_t s = 0; s < segs; ++s)
        key[s] = top - (start[s + 1] - start[s]);
    sort_pairs(key, segs, top, tmp, by, tmp + n, tmp + 2 * n);
    for (int64_t j = 0; j < segs; ++j)
        out[KEYS][j] = sk[start[by[j]]];
    /* Rank-major: every segment's first contributor, then the r-th of every
     * layered segment that has one; wide segments go to reduceat. */
    int64_t layers = top < LAYERED ? top : LAYERED;
    while (wide < segs && SIZE_OF(wide) > LAYERED)
        ++wide;
    for (int64_t j = 0; j < segs; ++j)
        out[ORDER][w++] = o[start[by[j]]];
    for (int64_t r = 1; r < layers; ++r) {
        int64_t j = wide;
        for (; j < segs && SIZE_OF(j) > r; ++j)
            out[ORDER][w++] = o[start[by[j]] + r];
        counts[LAYER0 + r - 1] = j - wide;
    }
    counts[GATHERED] = w;
    for (int64_t j = w = 0; j < wide; ++j) {
        out[WIDE_STARTS][j] = w;
        for (int64_t e = 0; e < SIZE_OF(j); ++e)
            out[WIDE_ORDER][w++] = o[start[by[j]] + e];
    }
#undef SIZE_OF
    counts[SIZE] = n;
    counts[SEGMENTS] = segs;
    counts[LAYERS] = layers - 1;
    counts[WIDE] = wide;
    counts[WIDE_SIZE] = w;
    /* Destinations: the merged rows grouped by replica, stably. */
    for (int64_t j = 0; j < segs; ++j)
        key[j] = rep[by[j]];
    sort_pairs(key, segs, groups, sk, out[DEST_AT], tmp, tmp + n);
    memset(out[CUTS], 0, (size_t)(groups + 1) * sizeof *key);
    for (int64_t p = 0; p < segs; ++p) {
        ++out[CUTS][sk[p] + 1];
        out[DEST_ROWS][p] = out[KEYS][out[DEST_AT][p]] - sk[p] * vocab;
    }
    for (int64_t r = 0; r < groups; ++r)
        out[CUTS][r + 1] += out[CUTS][r];
}

/* Returns 0; 1 for rows outside [0, vocab), 2 for a step lane outside its
 * buffer, 3 when out of memory, 4 for sizes that do not add up.  There are
 * at most as many lifetimes, steps and slots as tokens: outputs fit that. */
int64_t dsgl_plan(const int64_t *dims, const int64_t *tok, const int64_t *pool,
                  const int64_t *walk_sizes, const int64_t *group_walks,
                  const double *group_lr, int64_t *const *ctx,
                  int64_t *const *out, int64_t *counts, int64_t *step_off,
                  double *lr, int64_t *cidx, int64_t *oidx, float *labels,
                  float *mask)
{
    const int64_t G = dims[GROUPS], W = dims[WALKS], N = dims[TOKENS];
    const int64_t V = dims[VOCAB], k = dims[NEGATIVES], mw = dims[MULTI];
    const int64_t win = dims[WINDOW], m_max = mw * 2 * win, b_max = mw + k;
    const int64_t n_ext = N * (k + 1);
    int64_t C = 0, T = 0, S = 0, E = 0, cu, ou, walks = 0, tokens = 0;
    int bad = G < 1 || N < 1 || k < 0 || mw < 1 || win < 1;

    for (int64_t g = 0; g < G; ++g) {
        bad |= group_walks[g] < 0;
        walks += group_walks[g];
    }
    for (int64_t w = 0; w < W; ++w) {
        bad |= walk_sizes[w] < 0;
        tokens += walk_sizes[w];
    }
    if (bad || walks != W || tokens != N)
        return 4;
    for (int64_t i = 0; i < n_ext; ++i) {
        int64_t row = i < N ? tok[i] : pool[i - N];
        if (row < 0 || row >= V)
            return 1;
    }

    int64_t *arena = malloc((size_t)(10 * n_ext + 8 * W + N * (mw + 4) + 1)
                            * sizeof *arena);
    if (arena == 0)
        return 3;
    int64_t *scratch = arena, *cslot = scratch + 9 * n_ext + 1;
    int64_t *eslot = cslot + N, *group_of = eslot + n_ext;
    int64_t *csteps = group_of + W, *cpos = csteps + W, *cpoff = cpos + W;
    int64_t *wl_len = cpoff + W, *wl_chunk = wl_len + W;
    int64_t *wl_base = wl_chunk + W, *order = wl_base + W, *srows = order + W;
    int64_t *swins = srows + N, *sneg = swins + N, *wsize = sneg + N;

    /* Lifetimes, group by group: their steps (their longest walk with a
     * window), pool offsets, walks with a window, and the buffer keys --
     * a lifetime's tokens, then its tokens and its pool. */
    for (int64_t g = 0, w = 0, base = 0; g < G; ++g)
        for (int64_t end = w + group_walks[g]; w < end;) {
            int64_t stop = w + mw < end ? w + mw : end, size = 0, steps = 0;
            for (; w < stop; base += walk_sizes[w++]) {
                size += walk_sizes[w];
                if (walk_sizes[w] < 2)
                    continue;
                steps = walk_sizes[w] > steps ? walk_sizes[w] : steps;
                wl_len[E] = walk_sizes[w];
                wl_chunk[E] = C;
                wl_base[E++] = base;
            }
            if (size == 0)
                continue;              /* an empty lifetime vanishes */
            for (int64_t i = base - size; i < base; ++i) {
                scratch[i] = C * V + tok[i];
                for (int64_t j = i * k; j < (i + 1) * k; ++j)
                    scratch[N + j] = C * V + pool[j];
            }
            cpoff[C] = (base - size) * k;
            group_of[C] = g;
            csteps[C++] = steps;
            T = steps > T ? steps : T;
            S += steps;
        }
    memcpy(counts + CHUNKS, (int64_t[]){C, T, S}, 3 * sizeof *counts);

    cu = ranks(scratch, N, C * V, V, group_of, G, ctx[GATHER], ctx[BOUNDS],
               cslot, scratch + n_ext);
    ou = ranks(scratch, n_ext, C * V, V, group_of, G, out[GATHER],
               out[BOUNDS], eslot, scratch + n_ext);
    merge(ctx[GATHER], ctx[BOUNDS], G, V, ctx, counts, scratch);
    merge(out[GATHER], out[BOUNDS], G, V, out, counts + COUNTS, scratch);

    /* Execution order: descending step count, ties in lifetime order. */
    for (int64_t c = 0; c < C; ++c)
        scratch[c] = T - csteps[c];
    sort_pairs(scratch, C, T + 1, scratch + C, order, scratch + 2 * C,
               scratch + 3 * C);
    step_off[0] = 0;
    for (int64_t t = 0, active = C; t < T; ++t) {
        while (active > 0 && csteps[order[active - 1]] <= t)
            --active;
        step_off[t + 1] = step_off[t] + active;
    }
    for (int64_t p = 0; p < C; ++p) {
        cpos[order[p]] = p;
        lr[p] = group_lr[group_of[order[p]]];
    }

    /* Step tensors: each window's contexts (left, then right) and target,
     * walk by walk; then, slot by slot, the k negatives, the labels and
     * mask and the padding lanes. */
    memset(srows, 0, (size_t)(2 * N) * sizeof *srows);
    for (int64_t e = 0; e < E; ++e) {
        int64_t c = wl_chunk[e], len = wl_len[e], base = wl_base[e];
        for (int64_t t = 0; t < len; ++t) {
            int64_t slot = step_off[t] + cpos[c];
            int64_t lo = t > win ? t - win : 0;
            int64_t hi = t + win + 1 < len ? t + win + 1 : len;
            int64_t *lane = cidx + slot * m_max + srows[slot];
            for (int64_t p = lo; p < hi; ++p)
                if (p != t)
                    *lane++ = cslot[base + p];
            srows[slot] += wsize[slot * mw + swins[slot]] = hi - lo - 1;
            oidx[slot * b_max + swins[slot]++] = eslot[base + t];
            sneg[slot] = cpoff[c] + t * k;
        }
    }
    for (int64_t slot = 0; slot < S; ++slot) {
        int64_t live = swins[slot] + k, m = 0;
        float *lab = labels + slot * m_max * b_max;
        float *msk = mask + slot * m_max * b_max;
        memset(lab, 0, (size_t)(m_max * b_max) * sizeof *lab);
        memset(msk, 0, (size_t)(m_max * b_max) * sizeof *msk);
        for (int64_t o = 0; o < swins[slot]; ++o)
            for (int64_t e = 0; e < wsize[slot * mw + o]; ++e, ++m) {
                lab[m * b_max + o] = 1.0f;
                for (int64_t b = 0; b < live; ++b)
                    msk[m * b_max + b] = 1.0f;
            }
        for (; m < m_max; ++m)
            cidx[slot * m_max + m] = cu;
        for (int64_t j = 0; j < k; ++j)
            oidx[slot * b_max + swins[slot] + j] = eslot[N + sneg[slot] + j];
        for (int64_t b = live; b < b_max; ++b)
            oidx[slot * b_max + b] = ou;
    }
    free(arena);
    for (int64_t i = 0; i < S * m_max; ++i)
        if (cidx[i] < 0 || cidx[i] > cu)
            return 2;
    for (int64_t i = 0; i < S * b_max; ++i)
        if (oidx[i] < 0 || oidx[i] > ou)
            return 2;
    return 0;
}
