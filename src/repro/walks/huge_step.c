/* The HuGE kernels' whole-step resolver (loaded by repro/walks/native.py).
 * Trial t draws u1, u2 from the walker's splitmix64 stream at a + 2t*GAMMA
 * and a + (2t+1)*GAMMA, proposes an arc with u1, accepts iff u2 < accept[arc]
 * and is taken outright at trial `horizon`.  Integer mixing, the exact
 * (z >> 11) * 2^-53 scaling, one double multiply and double compares: the
 * NumPy lanes' operations, so their bytes.  No -ffast-math, no FP contraction.
 */
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

/* Returns 0, or j + 1 for the first walker j not standing on a node with
 * out-arcs (nothing is resolved for it or any walker after it). */
int64_t huge_resolve_steps(int64_t num_nodes, const int64_t *indptr,
                           const double *cumsum, const double *accept,
                           int64_t walkers, const int64_t *cur,
                           uint64_t *args, int64_t horizon,
                           int64_t *arc_out, int64_t *trials_out)
{
    for (int64_t j = 0; j < walkers; ++j) {
        int64_t node = cur[j];
        if (node < 0 || node >= num_nodes || indptr[node + 1] <= indptr[node])
            return j + 1;
        int64_t start = indptr[node], deg = indptr[node + 1] - start;
        uint64_t a = args[j];
        int64_t t = 0, arc;
        do {
            double u1 = uniform(a), u2 = uniform(a + GAMMA);
            a += 2 * GAMMA;
            ++t;
            arc = start + propose(cumsum, start, deg, u1);
            if (u2 < accept[arc])
                break;
        } while (t < horizon);
        arc_out[j] = arc;
        trials_out[j] = t;
        args[j] = a;
    }
    return 0;
}
