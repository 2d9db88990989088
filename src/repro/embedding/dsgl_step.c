/* The exact lanes of a DSGL lock-step step (loaded by repro/native.py):
 * DSGLSlicePlan.run_steps calls them around the NumPy GEMMs and the NumPy
 * exponential.  Row copies, float32 compares, negation and IEEE + - * /
 * in the NumPy reference's order, compiled without contraction or
 * -ffast-math, so every lane holds the ArrayOps loop's bytes, inf included.
 * A lane is NaN exactly where it is NaN there; only a sum of two NaNs may
 * carry the other addend's sign, since NumPy's own choice between them
 * changes with the lane's place in its SIMD loop (and the write-back
 * refuses any non-finite delta).  Each kernel covers the plan rows
 * [lo, hi) of one step, whose lifetimes sit at the front of the step
 * workspaces.
 */
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t d, m, b;                  /* dim, context lanes, output lanes */
    const int64_t *cidx, *oidx;       /* (slots, m), (slots, b) */
    const float *labels, *mask, *lr;  /* (slots, m, b) twice, (width,) */
    float *ctx_mega, *out_mega;       /* the local buffers, scratch row last */
    float *ctx_vecs, *out_vecs, *scores, *ctx_delta, *out_delta;
} Lanes;

static void take(int64_t d, int64_t n, const int64_t *idx,
                 const float *restrict src, float *restrict dst)
{
    for (int64_t l = 0; l < n; ++l)
        memcpy(dst + l * d, src + idx[l] * d, (size_t)d * sizeof *dst);
}

/* mega[idx[l]] = vecs[l] + delta[l] in lane order: a row repeated within
 * the step keeps its last lane's sum, as NumPy's fancy assignment does. */
static void add_put(int64_t d, int64_t n, const int64_t *idx,
                    const float *restrict vecs, const float *restrict delta,
                    float *restrict mega)
{
    for (int64_t l = 0; l < n; ++l) {
        float *restrict row = mega + idx[l] * d;
        for (int64_t k = 0; k < d; ++k)
            row[k] = vecs[l * d + k] + delta[l * d + k];
    }
}

/* ctx_vecs = ctx_mega[cidx], out_vecs = out_mega[oidx]. */
void dsgl_gather(const Lanes *p, int64_t lo, int64_t hi)
{
    take(p->d, (hi - lo) * p->m, p->cidx + lo * p->m, p->ctx_mega,
         p->ctx_vecs);
    take(p->d, (hi - lo) * p->b, p->oidx + lo * p->b, p->out_mega,
         p->out_vecs);
}

/* scores = -maximum(minimum(scores, 6), -6): a NaN lane stays NaN. */
void dsgl_pre_exp(const Lanes *p, int64_t lo, int64_t hi)
{
    float *restrict x = p->scores;
    for (int64_t i = 0, n = (hi - lo) * p->m * p->b; i < n; ++i) {
        float v = x[i] > 6.0f ? 6.0f : x[i];
        x[i] = -(v < -6.0f ? -6.0f : v);
    }
}

/* scores = (labels - 1 / (e + 1)) * lr[c] * mask, e the exponentials. */
void dsgl_post_exp(const Lanes *p, int64_t lo, int64_t hi)
{
    int64_t lanes = p->m * p->b;
    const float *restrict labels = p->labels + lo * lanes;
    const float *restrict mask = p->mask + lo * lanes;
    float *restrict x = p->scores;
    for (int64_t c = 0; c < hi - lo; ++c) {
        float rate = p->lr[c];
        for (int64_t i = c * lanes; i < (c + 1) * lanes; ++i)
            x[i] = (labels[i] - 1.0f / (x[i] + 1.0f)) * rate * mask[i];
    }
}

/* ctx_mega[cidx] = ctx_vecs + ctx_delta, out_mega[oidx] = out_vecs +
 * out_delta. */
void dsgl_add_scatter(const Lanes *p, int64_t lo, int64_t hi)
{
    add_put(p->d, (hi - lo) * p->m, p->cidx + lo * p->m, p->ctx_vecs,
            p->ctx_delta, p->ctx_mega);
    add_put(p->d, (hi - lo) * p->b, p->oidx + lo * p->b, p->out_vecs,
            p->out_delta, p->out_mega);
}
