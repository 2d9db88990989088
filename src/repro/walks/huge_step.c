/* The HuGE kernels' compiled walks (loaded by repro/native.py).
 * Trial t draws u1, u2 from the walker's splitmix64 stream at a + 2t*GAMMA
 * and a + (2t+1)*GAMMA, proposes an arc with u1, accepts iff u2 < accept[arc]
 * and is taken outright at trial `horizon`.  Integer mixing, the exact
 * (z >> 11) * 2^-53 scaling, IEEE + - * /, sqrt and double compares: the
 * NumPy lanes' operations, so their bytes.  No transcendental is computed
 * here (the callers pass NumPy-built tables), no -ffast-math, no FP
 * contraction.
 */
#include <math.h>
#include <stdint.h>

#define GAMMA 0x9E3779B97F4A7C15ULL

static double uniform(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (double)(z >> 11) * 0x1.0p-53;
}

/* Index within the row [start, start + deg) that u1 proposes. */
static int64_t propose(const double *cumsum, int64_t start, int64_t deg,
                       double u1)
{
    int64_t k;
    if (cumsum != 0 && cumsum[start + deg - 1] > 0) {
        /* First entry greater than u1 * total (searchsorted, right). */
        double x = u1 * cumsum[start + deg - 1];
        int64_t lo = 0, hi = deg;
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (cumsum[start + mid] <= x)
                lo = mid + 1;
            else
                hi = mid;
        }
        k = lo;
    } else {
        /* Unweighted, or a row whose weights sum to zero: uniform. */
        k = (int64_t)(u1 * (double)deg);
    }
    return k < deg - 1 ? k : deg - 1;
}

/* One whole step from `node` (which has out-arcs): the arc taken, its
 * trial count in *trials and the stream argument *a advanced. */
static int64_t step(const int64_t *indptr, const double *cumsum,
                    const double *accept, int64_t node, uint64_t *a,
                    int64_t horizon, int64_t *trials)
{
    int64_t start = indptr[node], deg = indptr[node + 1] - start;
    int64_t t = 0, arc;
    do {
        double u1 = uniform(*a), u2 = uniform(*a + GAMMA);
        *a += 2 * GAMMA;
        ++t;
        arc = start + propose(cumsum, start, deg, u1);
        if (u2 < accept[arc])
            break;
    } while (t < horizon);
    *trials = t;
    return arc;
}

/* InCoM's observe of the L-th token, whose prior count adds `gain` to S:
 * m = (S, E(H), E(L), E(HL), E(H^2), E(L^2)), each mean E += (x - E) / L. */
static void observe(double *m, double gain, double L, double log2_L)
{
    m[0] = m[0] + gain;
    double h = log2_L - m[0] / L;
    double x[5] = {h, L, h * L, h * h, L * L};
    for (int i = 0; i < 5; ++i)
        m[i + 1] = m[i + 1] + (x[i] - m[i + 1]) / L;
}

/* R^2(H, L) from the moments: 1 below two points or on a flat series. */
static double r_squared(const double *m, int64_t count)
{
    double var_x = m[4] - m[1] * m[1], var_y = m[5] - m[2] * m[2];
    double r = 1.0;
    if (count >= 2 && var_x > 1e-15 && var_y > 1e-15) {
        r = (m[3] - m[1] * m[2]) / sqrt(var_x * var_y);
        r = r < -1.0 ? -1.0 : r > 1.0 ? 1.0 : r;
    }
    return r * r;
}

/* Walker j runs from sources[j] (a node) at stream argument args[j] to
 * termination -- a dead end, `cap` tokens, or under InCoM (`gain` given)
 * R^2 < mu from `min_length` tokens on -- into row j of the (walkers, cap)
 * paths / trials / arcs, its token count into lengths[j] and, under
 * InCoM, its final S and moments into column j of the (6, walkers) state.
 * gain[k] is the S increment of a token seen k times, log2_of[L] the
 * base-2 logarithm of L. */
void huge_walks(const int64_t *indptr, const int64_t *indices,
                const double *cumsum, const double *accept, int64_t walkers,
                const int64_t *sources, const uint64_t *args, int64_t horizon,
                int64_t cap, int64_t min_length, double mu,
                const double *gain, const double *log2_of, int64_t *paths,
                int64_t *lengths, int32_t *trials, int64_t *arcs,
                double *state)
{
    for (int64_t j = 0; j < walkers; ++j) {
        int64_t *path = paths + j * cap, *arc = arcs + j * cap;
        int32_t *cost = trials + j * cap;
        double m[6] = {0, 0, 0, 0, 0, 0};
        uint64_t a = args[j];
        int64_t node = sources[j], len = 1, prior = 0, t;
        path[0] = node;
        cost[0] = 0;
        arc[0] = -1;
        for (;;) {
            if (gain)
                observe(m, gain[prior], (double)len, log2_of[len]);
            if (indptr[node + 1] == indptr[node] || len >= cap
                    || (gain && len >= min_length && r_squared(m, len) < mu))
                break;
            arc[len] = step(indptr, cumsum, accept, node, &a, horizon, &t);
            cost[len] = (int32_t)t;
            node = indices[arc[len]];
            prior = 0;
            for (int64_t i = 0; i < len; ++i)
                prior += path[i] == node;
            path[len++] = node;
        }
        lengths[j] = len;
        for (int64_t i = len; i < cap; ++i) {
            path[i] = arc[i] = -1;
            cost[i] = 0;
        }
        if (state)
            for (int i = 0; i < 6; ++i)
                state[i * walkers + j] = m[i];
    }
}
