/* MPGP's common-neighbour table and placement stream (loaded by
 * repro/native.py).  Integer counts; the stream is the Python loop's
 * float64 + - * / and compares in its arc and partition order, with no
 * contraction, -ffast-math or transcendental, so nodes land alike. */
#include <math.h>
#include <stdint.h>

static void set_row(const int64_t *indptr, const int64_t *indices,
                    int64_t u, unsigned char value, unsigned char *mark)
{
    for (int64_t j = indptr[u]; j < indptr[u + 1]; ++j)
        mark[indices[j]] = value;
}

/* out[arc] = |N(source[arc]) ∩ N(indices[arc])| at each scanned arc, over
 * the target's row as NumPy counts it.  Scanned arcs come in CSR order, so
 * each source row is marked once in `mark` (n zeroed bytes, left zeroed). */
void cn_counts(const int64_t *indptr, const int64_t *indices,
               const int64_t *source, const int64_t *scanned, int64_t count,
               unsigned char *mark, int64_t *out)
{
    for (int64_t i = 0; i < count; ++i) {
        int64_t arc = scanned[i], u = source[arc], v = indices[arc], hits = 0;
        if (i == 0 || source[scanned[i - 1]] != u)
            set_row(indptr, indices, u, 1, mark);
        for (int64_t j = indptr[v]; j < indptr[v + 1]; ++j)
            hits += mark[indices[j]];
        out[arc] = hits;
        if (i + 1 == count || source[scanned[i + 1]] != u)
            set_row(indptr, indices, u, 0, mark);
    }
}

/* Places stream[0..count) one by one on k parts: part_of (n entries, -1
 * off the stream) and sizes (k zeros) are filled, pf is 2k scratch.
 * weights is NULL on unweighted graphs (every w = 1.0). */
void mpgp_stream(const int64_t *indptr, const int64_t *indices,
                 const double *weights, const int64_t *arc_cm,
                 const int64_t *stream, int64_t count, int64_t k,
                 double gamma, int64_t *part_of, int64_t *sizes, double *pf)
{
    double *pf1 = pf, *pf2 = pf + k;
    for (int64_t assigned = 0; assigned < count; ++assigned) {
        int64_t v = stream[assigned];
        for (int64_t p = 0; p < 2 * k; ++p)
            pf[p] = 0.0;
        for (int64_t arc = indptr[v]; arc < indptr[v + 1]; ++arc) {
            int64_t p = part_of[indices[arc]];
            if (p >= 0) {
                double w = weights ? weights[arc] : 1.0;
                pf1[p] += w;
                pf2[p] += (double)arc_cm[arc] * w;
            }
        }
        /* tau = 1 before the first placement; the best eligible (tau > 0)
         * score wins, the least-loaded eligible part without structural
         * signal, the least-loaded part when none is eligible. */
        double cap = assigned ? gamma * ((double)assigned / (double)k)
                              : INFINITY;
        double best = -INFINITY;
        int64_t target = -1, least = -1, lightest = 0;
        for (int64_t p = 0; p < k; ++p) {
            double tau = 1.0 - (double)sizes[p] / cap;
            if (sizes[p] < sizes[lightest])
                lightest = p;
            if (tau > 0) {
                double score = (pf1[p] + pf2[p]) * tau;
                if (score > best) {
                    best = score;
                    target = p;
                }
                if (least < 0 || sizes[p] < sizes[least])
                    least = p;
            }
        }
        if (target < 0)
            target = lightest;
        else if (best <= 0.0)
            target = least;
        part_of[v] = target;
        ++sizes[target];
    }
}
