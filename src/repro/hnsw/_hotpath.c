/* Compiled hot paths for the HNSW index: SEARCH-LAYER (paper Alg. 2),
 * K-NN-SEARCH (Alg. 5) and INSERT (Alg. 1), at any vector width.
 *
 * The python implementation pays ~6-8 interpreter/numpy dispatches per
 * expanded node; these helpers run the loops in C on the index's flat
 * buffers directly (point matrix, adjacency rows, link counts,
 * epoch-stamped visited array) with two array-backed binary heaps.
 *
 * Bit-identity contract
 * ---------------------
 * Results must match the python path bit for bit, which means distances
 * must match numpy's float32 ``einsum("ij,ij->i", diff, diff)`` (plus
 * float32 sqrt for l2) exactly.  einsum's float32 reduction is NOT plain
 * sequential addition: its ``contig_contig_outstride0_two`` inner loop
 * keeps one accumulator per SIMD lane (4 lanes on the builds this repo
 * targets), and ``l2sq`` below follows it step for step at every width:
 *
 *   per lane l, over each full block of 16 products s[0..15]:
 *       R[l] = s[l] + (s[4+l] + (s[8+l] + (s[12+l] + R[l])))
 *   then over each remaining block of 4 (the last one zero-filled):
 *       R[l] = s[l] + R[l]
 *   result: (R[0] + R[1]) + (R[2] + R[3])
 *
 * The python side enables the helpers for a width only after verifying
 * bit-equality against einsum on random data of that width, so on any
 * platform where the tree differs they are simply not used.  Compile
 * with -ffp-contract=off: a fused multiply-add would change the rounding
 * and fail the self-check.
 *
 * Heap note: all (distance, id) pairs are distinct (a node is visited at
 * most once per call), so the pop order of any correct binary heap is
 * the total order on (d, id) — the heap layout itself need not match
 * python's heapq.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;

/* 4 float lanes: gcc/clang lower the element-wise operators to SSE/NEON
 * where they exist and to scalar code elsewhere, with the same IEEE
 * results either way */
typedef float v4f __attribute__((vector_size(16)));

static inline v4f ld4(const float *p)
{
    v4f v;
    memcpy(&v, p, sizeof v); /* point rows are only 4-byte aligned */
    return v;
}

/* float32 squared euclidean distance, einsum-compatible rounding (the
 * reduction order is in the header) */
static inline float l2sq(const float *restrict a, const float *restrict b,
                         i64 dim)
{
    v4f R = {0.0f, 0.0f, 0.0f, 0.0f};
    i64 k = 0;
    for (; k + 16 <= dim; k += 16) {
        v4f d0 = ld4(a + k) - ld4(b + k);
        v4f d1 = ld4(a + k + 4) - ld4(b + k + 4);
        v4f d2 = ld4(a + k + 8) - ld4(b + k + 8);
        v4f d3 = ld4(a + k + 12) - ld4(b + k + 12);
        R = d0 * d0 + (d1 * d1 + (d2 * d2 + (d3 * d3 + R)));
    }
    for (; k + 4 <= dim; k += 4) {
        v4f d = ld4(a + k) - ld4(b + k);
        R = d * d + R;
    }
    if (k < dim) {
        v4f d = {0.0f, 0.0f, 0.0f, 0.0f};
        for (i64 j = 0; k + j < dim; j++)
            d[j] = a[k + j] - b[k + j];
        R = d * d + R;
    }
    return (R[0] + R[1]) + (R[2] + R[3]);
}

/* query -> point distance exactly as the python float32 kernels return
 * it: einsum order, float32 sqrt for l2, widened to double */
static inline double qdist(const float *a, const float *b, i64 dim,
                           int32_t do_sqrt)
{
    float d = l2sq(a, b, dim);
    return (double)(do_sqrt ? sqrtf(d) : d);
}

/* self-check helper: batch distances for bit-comparison vs numpy */
void l2sq_batch(const float *A, const float *B, i64 n, i64 dim,
                int32_t do_sqrt, float *out)
{
    for (i64 i = 0; i < n; i++) {
        float v = l2sq(A + i * dim, B + i * dim, dim);
        out[i] = do_sqrt ? sqrtf(v) : v;
    }
}

/* candidates: min-heap on (d, id); results: max-heap on (d, id) with the
 * tie rule of python's (-d, id) min-heap (equal d -> smaller id on top). */

static inline int pair_lt(double d1, int32_t i1, double d2, int32_t i2)
{
    return d1 < d2 || (d1 == d2 && i1 < i2);
}

static inline int pair_gt(double d1, int32_t i1, double d2, int32_t i2)
{
    return d1 > d2 || (d1 == d2 && i1 < i2);
}

static void minh_push(double *hd, int32_t *hi, i64 *n, double d, int32_t id)
{
    i64 i = (*n)++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (pair_lt(d, id, hd[p], hi[p])) {
            hd[i] = hd[p];
            hi[i] = hi[p];
            i = p;
        } else {
            break;
        }
    }
    hd[i] = d;
    hi[i] = id;
}

static void minh_pop(double *hd, int32_t *hi, i64 *n)
{
    i64 m = --(*n);
    double d = hd[m];
    int32_t id = hi[m];
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && pair_lt(hd[c + 1], hi[c + 1], hd[c], hi[c]))
            c++;
        if (pair_lt(hd[c], hi[c], d, id)) {
            hd[i] = hd[c];
            hi[i] = hi[c];
            i = c;
        } else {
            break;
        }
    }
    if (m > 0) {
        hd[i] = d;
        hi[i] = id;
    }
}

static void maxh_push(double *hd, int32_t *hi, i64 *n, double d, int32_t id)
{
    i64 i = (*n)++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (pair_gt(d, id, hd[p], hi[p])) {
            hd[i] = hd[p];
            hi[i] = hi[p];
            i = p;
        } else {
            break;
        }
    }
    hd[i] = d;
    hi[i] = id;
}

static void maxh_sift_down(double *hd, int32_t *hi, i64 m, double d, int32_t id)
{
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && pair_gt(hd[c + 1], hi[c + 1], hd[c], hi[c]))
            c++;
        if (pair_gt(hd[c], hi[c], d, id)) {
            hd[i] = hd[c];
            hi[i] = hi[c];
            i = c;
        } else {
            break;
        }
    }
    hd[i] = d;
    hi[i] = id;
}

/* The graph as the python side hands it over: point rows, per-level
 * adjacency (array addresses live in numpy), the epoch-stamped visited
 * array, and the two search heaps.  cd/ci and rd/ri are caller-provided
 * scratch with room for every push (a node is pushed at most once per
 * search, so n_points bounds it). */
typedef struct {
    const float *X;
    i64 dim;
    const i64 *nbrs_ptrs;
    const i64 *strides;
    const i64 *cnts_ptrs;
    i64 *stamp;
    double *cd;
    int32_t *ci;
    double *rd;
    int32_t *ri;
    int32_t do_sqrt;
} graph_t;

static inline int32_t *level_nbrs(const graph_t *g, i64 lv)
{
    return (int32_t *)(intptr_t)g->nbrs_ptrs[lv];
}

static inline int32_t *level_cnts(const graph_t *g, i64 lv)
{
    return (int32_t *)(intptr_t)g->cnts_ptrs[lv];
}

/* Beam search of width ef on one layer.  Writes the result set, sorted
 * ascending by (d, id), into (g->rd, g->ri) and returns its length;
 * *evals_out receives the distance-evaluation count.
 *
 * ``allowed`` (nullable) is a row mask: masked-out nodes are evaluated
 * and expanded like any other — they enter the frontier and conduct the
 * walk — but only allowed nodes may enter the result set, so until ef
 * allowed nodes are found no expansion is cut short.  NULL admits every
 * node, which is the plain SEARCH-LAYER. */
static i64 search_layer(const graph_t *g, i64 lv, i64 epoch, const float *q,
                        const double *in_d, const int32_t *in_i, i64 n_in,
                        i64 ef, const uint8_t *allowed, i64 *evals_out)
{
    const int32_t *nbrs = level_nbrs(g, lv);
    const int32_t *cnts = level_cnts(g, lv);
    i64 stride = g->strides[lv], dim = g->dim;
    i64 *stamp = g->stamp;
    double *cd = g->cd, *rd = g->rd;
    int32_t *ci = g->ci, *ri = g->ri;
    i64 nc = 0, nr = 0, evals = 0;
    for (i64 t = 0; t < n_in; t++) {
        stamp[in_i[t]] = epoch;
        minh_push(cd, ci, &nc, in_d[t], in_i[t]);
        if (!allowed || allowed[in_i[t]])
            maxh_push(rd, ri, &nr, in_d[t], in_i[t]);
    }
    while (nc) {
        double c_dist = cd[0];
        int32_t c = ci[0];
        if (nr >= ef && c_dist > rd[0])
            break;
        minh_pop(cd, ci, &nc);
        const int32_t *row = nbrs + (i64)c * stride;
        i64 cnt = cnts[c];
        for (i64 j = 0; j < cnt; j++) {
            int32_t nb = row[j];
            if (stamp[nb] == epoch)
                continue;
            stamp[nb] = epoch;
            double d = qdist(g->X + (i64)nb * dim, q, dim, g->do_sqrt);
            evals++;
            if (nr >= ef && !(d < rd[0]))
                continue;
            minh_push(cd, ci, &nc, d, nb);
            if (allowed && !allowed[nb])
                continue;
            if (nr < ef)
                maxh_push(rd, ri, &nr, d, nb);
            else
                maxh_sift_down(rd, ri, nr, d, nb);
        }
    }
    /* heapsort: repeatedly pop the max into the freed tail slot */
    for (i64 m = nr; m > 1;) {
        double d = rd[0];
        int32_t id = ri[0];
        m--;
        maxh_sift_down(rd, ri, m, rd[m], ri[m]);
        rd[m] = d;
        ri[m] = id;
    }
    /* the max-heap tie rule (smaller id = "greater") leaves runs of equal
     * d in descending id; python's sorted() wants ascending -> reverse */
    for (i64 i = 0; i < nr;) {
        i64 j = i + 1;
        while (j < nr && rd[j] == rd[i])
            j++;
        for (i64 a = i, b = j - 1; a < b; a++, b--) {
            int32_t t = ri[a];
            ri[a] = ri[b];
            ri[b] = t;
        }
        i = j;
    }
    *evals_out = evals;
    return nr;
}

/* Greedy search with beam 1 on one layer (upper-layer descent). */
static void greedy_step(const graph_t *g, i64 lv, const float *q, i64 *ep_io,
                        double *epd_io, i64 *evals)
{
    const int32_t *nbrs = level_nbrs(g, lv);
    const int32_t *cnts = level_cnts(g, lv);
    i64 stride = g->strides[lv], dim = g->dim;
    i64 ep = *ep_io;
    double epd = *epd_io;
    for (;;) {
        i64 cnt = cnts[ep];
        if (!cnt)
            break;
        const int32_t *row = nbrs + ep * stride;
        double best = 0.0;
        i64 bj = -1;
        for (i64 j = 0; j < cnt; j++) {
            double d = qdist(g->X + (i64)row[j] * dim, q, dim, g->do_sqrt);
            if (bj < 0 || d < best) { /* strict < == np.argmin first-index */
                best = d;
                bj = j;
            }
        }
        *evals += cnt;
        if (best < epd) {
            ep = row[bj];
            epd = best;
        } else {
            break;
        }
    }
    *ep_io = ep;
    *epd_io = epd;
}

/* SEARCH-LAYER for the python insert path (the one caller that still
 * drives a build level by level); results land in (rd, ri). */
i64 hnsw_search_layer(const float *X, i64 dim, const i64 *nbrs_ptrs,
                      const i64 *strides, const i64 *cnts_ptrs, i64 *stamp,
                      double *cd, int32_t *ci, double *rd, int32_t *ri,
                      int32_t do_sqrt, i64 level, i64 epoch, const float *q,
                      const double *in_d, const int32_t *in_i, i64 n_in,
                      i64 ef, i64 *evals_out)
{
    graph_t g = {X, dim, nbrs_ptrs, strides, cnts_ptrs, stamp, cd, ci, rd, ri,
                 do_sqrt};
    return search_layer(&g, level, epoch, q, in_d, in_i, n_in, ef, 0,
                        evals_out);
}

/* K-NN-SEARCH (paper Alg. 5) for nq query rows in one call: entry
 * distance, greedy descent through the upper layers, layer-0 beam of
 * width ef under the nullable row mask ``allowed``, then the closest k
 * written straight into row i of the caller's pre-padded (nq, k) arrays
 * D / I (external ids).  Query i runs under visited epoch ``epoch + 1 +
 * i``; stats[i] receives its distance evaluations and stats[nq + i] the
 * number of results written. */
void hnsw_knn_search(const float *X, i64 dim, const i64 *nbrs_ptrs,
                     const i64 *strides, const i64 *cnts_ptrs, i64 *stamp,
                     double *cd, int32_t *ci, double *rd, int32_t *ri,
                     int32_t do_sqrt, const i64 *ext, i64 max_level,
                     i64 entry, i64 epoch, const float *Q, i64 nq, i64 k,
                     i64 ef, const uint8_t *allowed, double *D, i64 *I,
                     i64 *stats)
{
    graph_t g = {X, dim, nbrs_ptrs, strides, cnts_ptrs, stamp, cd, ci, rd, ri,
                 do_sqrt};
    for (i64 i = 0; i < nq; i++) {
        const float *q = Q + i * dim;
        i64 ep = entry, evals = 1, ev = 0;
        double epd = qdist(q, X + ep * dim, dim, do_sqrt);
        for (i64 lv = max_level; lv > 0; lv--)
            greedy_step(&g, lv, q, &ep, &epd, &evals);
        int32_t in_i = (int32_t)ep;
        i64 nres = search_layer(&g, 0, epoch + 1 + i, q, &epd, &in_i, 1, ef,
                                allowed, &ev);
        if (nres > k)
            nres = k;
        for (i64 t = 0; t < nres; t++) {
            D[i * k + t] = rd[t];
            I[i * k + t] = ext[ri[t]];
        }
        stats[i] = evals + ev;
        stats[nq + i] = nres;
    }
}

/* ====================================================================
 * Native insert path (INSERT, paper Alg. 1): greedy descent, beam
 * search, neighbor selection (SELECT-NEIGHBORS, simple or Alg. 4
 * heuristic) and link shrinking, batched over many points per call.
 *
 * Second bit-identity contract: the python selection/shrink paths
 * compute pairwise candidate distances through scipy's cdist on the
 * float32 point rows, which accumulates (double(a)-double(b))^2
 * sequentially in double, one pair at a time, and (for l2) takes the
 * sqrt in double.  ``l2d_x8`` reproduces that exactly (pinned by
 * ``l2d_row`` against cdist at load time), so keep/discard decisions
 * match the python heuristic bit for bit.  Query->candidate distances
 * stay on the float32 einsum kernel (``l2sq``), exactly like the python
 * side.
 * ==================================================================== */

/* Kept rows of a selection live widened to double and transposed, eight
 * to a block: kt[(b * dim + k) * 8 + lane] is element k of kept row
 * 8 * b + lane.  A row is converted once, when it is kept. */
typedef double v2d __attribute__((vector_size(16)));

static inline void kt_store(double *kt, i64 dim, i64 slot, const float *x)
{
    double *p = kt + (slot / 8) * dim * 8 + slot % 8;
    for (i64 k = 0; k < dim; k++)
        p[k * 8] = (double)x[k];
}

static inline v2d ld2(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* cdist-compatible distances from row a to the eight kept rows of one
 * block.  Each pair's sum runs strictly in element order — that order is
 * the contract — so the parallelism is across pairs only: one pair per
 * lane, four registers of two lanes, whose add chains overlap in the
 * pipeline (a lone chain waits out the add latency on every element). */
static inline void l2d_x8(const float *restrict a, const double *restrict blk,
                          i64 dim, int32_t do_sqrt, double out[8])
{
    v2d s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
    for (i64 k = 0; k < dim; k++, blk += 8) {
        double x = (double)a[k];
        v2d xx = {x, x};
        v2d d0 = xx - ld2(blk), d1 = xx - ld2(blk + 2);
        v2d d2 = xx - ld2(blk + 4), d3 = xx - ld2(blk + 6);
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    memcpy(out, &s0, sizeof s0);
    memcpy(out + 2, &s1, sizeof s1);
    memcpy(out + 4, &s2, sizeof s2);
    memcpy(out + 6, &s3, sizeof s3);
    if (do_sqrt)
        for (int t = 0; t < 8; t++)
            out[t] = sqrt(out[t]);
}

/* self-check helper: cdist-style distances from row a to the n rows of
 * B for bit-comparison, through the same store-then-block-kernel path
 * selection uses.  kt is scratch for one block (8 * dim doubles, zeroed
 * by the caller so unused lanes hold numbers). */
void l2d_row(const float *a, const float *B, i64 n, i64 dim, int32_t do_sqrt,
             double *kt, double *out)
{
    for (i64 j = 0; j < n; j += 8) {
        double d[8];
        i64 nb = n - j < 8 ? n - j : 8;
        for (i64 t = 0; t < nb; t++)
            kt_store(kt, dim, t, B + (j + t) * dim);
        l2d_x8(a, kt, dim, do_sqrt, d);
        for (i64 t = 0; t < nb; t++)
            out[j + t] = d[t];
    }
}

/* SELECT-NEIGHBORS over n candidates pre-sorted ascending by (d, id).
 * Mirrors select.py: simple selection takes the closest m; the
 * heuristic keeps a candidate iff no already-kept candidate is at
 * least as close to it as the query is (pair distance <= d_i), stops
 * once m are kept, and with keep_pruned backfills the first examined
 * discards.  The output (ascending by (d, id), like the python
 * position-order merge) goes to (out_d, out_i); returns its length.
 *
 * Pair distances are computed on demand, a candidate against one block
 * of kept rows at a time, stopping at the first block that holds a
 * dominator: every decision reads only its own pairs, each of which is a
 * pure function of its two rows, so evaluating fewer of them than the
 * python row kernel does changes no decision.  ``kt`` holds the kept
 * rows (room for m rounded up to whole blocks, zero-initialised so the
 * unused lanes of a block hold numbers); ``flags`` marks kept positions. */
static i64 select_links(const float *X, i64 dim, const double *cand_d,
                        const int32_t *cand_i, i64 n, i64 m,
                        int32_t heuristic, int32_t keep_pruned,
                        int32_t do_sqrt, double *kt, uint8_t *flags,
                        double *out_d, int32_t *out_i)
{
    if (!heuristic) {
        i64 take = n < m ? n : m;
        for (i64 i = 0; i < take; i++) {
            out_d[i] = cand_d[i];
            out_i[i] = cand_i[i];
        }
        return take;
    }
    i64 n_kept = 0, examined = n;
    for (i64 i = 0; i < n; i++) {
        if (n_kept >= m) {
            examined = i;
            break;
        }
        double di = cand_d[i];
        const float *xi = X + (i64)cand_i[i] * dim;
        int hit = 0;
        for (i64 r = 0; r < n_kept && !hit; r += 8) {
            double d[8];
            i64 nb = n_kept - r < 8 ? n_kept - r : 8;
            l2d_x8(xi, kt + r * dim, dim, do_sqrt, d);
            for (i64 t = 0; t < nb; t++)
                if (d[t] <= di) {
                    hit = 1;
                    break;
                }
        }
        flags[i] = !hit;
        if (!hit)
            kt_store(kt, dim, n_kept++, xi);
    }
    i64 backfill = (keep_pruned && n_kept < m) ? m - n_kept : 0;
    i64 n_out = 0;
    for (i64 i = 0; i < examined; i++) {
        if (flags[i]) {
            out_d[n_out] = cand_d[i];
            out_i[n_out++] = cand_i[i];
        } else if (backfill > 0) {
            out_d[n_out] = cand_d[i];
            out_i[n_out++] = cand_i[i];
            backfill--;
        }
    }
    return n_out;
}

/* selection scratch, carved out of three caller-provided buffers: with
 * deg = max(M, M0) and maxn bounding any candidate list (the efc beam or
 * an over-full neighbor list), ws_d holds maxn + 2 * (deg + 1) doubles
 * followed by the kept-row blocks (deg rounded up to a multiple of 8,
 * times dim, zeroed), ws_i maxn + 2 * (deg + 1) int32, flags maxn bytes */
typedef struct {
    double *tmp_d, *ch_d, *sh_d, *kt;
    int32_t *tmp_i, *ch_i, *sh_i;
    uint8_t *flags;
} select_ws_t;

/* Re-select node c's over-full neighbor list down to ``limit`` links
 * (python _shrink).  Charges the same logical eval count as the
 * python paths: cnt query distances plus, under the heuristic, the
 * cnt-candidate cross matrix. */
static void shrink_node(const graph_t *g, i64 lv, i64 c, i64 limit,
                        int32_t heuristic, int32_t keep_pruned,
                        const select_ws_t *ws, i64 *evals, i64 *shrinks)
{
    int32_t *nrow = level_nbrs(g, lv) + c * g->strides[lv];
    int32_t *cnts = level_cnts(g, lv);
    double *tmp_d = ws->tmp_d;
    int32_t *tmp_i = ws->tmp_i;
    i64 cnt = cnts[c], dim = g->dim;
    const float *xc = g->X + c * dim;
    for (i64 j = 0; j < cnt; j++) {
        tmp_d[j] = qdist(xc, g->X + (i64)nrow[j] * dim, dim, g->do_sqrt);
        tmp_i[j] = nrow[j];
    }
    *evals += heuristic ? cnt + cnt * (cnt - 1) / 2 : cnt;
    /* insertion sort ascending by (d, id) == python sorted() on tuples */
    for (i64 j = 1; j < cnt; j++) {
        double d = tmp_d[j];
        int32_t id = tmp_i[j];
        i64 p = j - 1;
        while (p >= 0 && pair_lt(d, id, tmp_d[p], tmp_i[p])) {
            tmp_d[p + 1] = tmp_d[p];
            tmp_i[p + 1] = tmp_i[p];
            p--;
        }
        tmp_d[p + 1] = d;
        tmp_i[p + 1] = id;
    }
    i64 m_out = select_links(g->X, dim, tmp_d, tmp_i, cnt, limit, heuristic,
                             keep_pruned, g->do_sqrt, ws->kt, ws->flags,
                             ws->sh_d, ws->sh_i);
    for (i64 j = 0; j < m_out; j++)
        nrow[j] = ws->sh_i[j];
    cnts[c] = (int32_t)m_out;
    (*shrinks)++;
}

/* Batched INSERT: points n_start..n_start+n_new-1 already stored in X
 * with their sampled levels in new_levels (and node_level), adjacency
 * arrays already sized for the final level.  io holds {epoch, entry,
 * evals, shrinks}: epoch and entry are read and written back, the two
 * counters written, so the python side stays the single source of truth
 * between calls. */
void hnsw_insert_batch(const float *X, i64 dim, const i64 *nbrs_ptrs,
                       const i64 *strides, const i64 *cnts_ptrs, i64 *stamp,
                       double *cd, int32_t *ci, double *rd, int32_t *ri,
                       int32_t do_sqrt, const int32_t *node_level,
                       i64 n_start, i64 n_new, const int32_t *new_levels,
                       i64 M, i64 M0, i64 efc, int32_t heuristic,
                       int32_t keep_pruned, double *ws_d, int32_t *ws_i,
                       uint8_t *flags, i64 maxn, i64 *io)
{
    graph_t g = {X, dim, nbrs_ptrs, strides, cnts_ptrs, stamp, cd, ci, rd, ri,
                 do_sqrt};
    i64 deg1 = (M > M0 ? M : M0) + 1;
    select_ws_t ws = {.tmp_d = ws_d,
                      .ch_d = ws_d + maxn,
                      .sh_d = ws_d + maxn + deg1,
                      .kt = ws_d + maxn + 2 * deg1,
                      .tmp_i = ws_i,
                      .ch_i = ws_i + maxn,
                      .sh_i = ws_i + maxn + deg1,
                      .flags = flags};
    i64 epoch = io[0], entry = io[1], evals = 0, shrinks = 0;
    for (i64 p = 0; p < n_new; p++) {
        i64 node = n_start + p;
        i64 level = new_levels[p];
        if (entry < 0) {
            entry = node;
            continue;
        }
        const float *q = X + node * dim;
        i64 ep = entry;
        i64 top = node_level[ep];
        double epd = qdist(q, X + ep * dim, dim, do_sqrt);
        evals++;

        /* phase 1: greedy descent through layers above the insert level */
        for (i64 lv = top; lv > level; lv--)
            greedy_step(&g, lv, q, &ep, &epd, &evals);

        /* phase 2: beam search + connect on layers min(top, level)..0 */
        for (i64 lv = top < level ? top : level; lv >= 0; lv--) {
            int32_t *nbrs = level_nbrs(&g, lv);
            int32_t *cnts = level_cnts(&g, lv);
            i64 stride = strides[lv];
            i64 limit = lv == 0 ? M0 : M;
            int32_t in_i = (int32_t)ep;
            i64 ev = 0;
            i64 nres = search_layer(&g, lv, ++epoch, q, &epd, &in_i, 1, efc,
                                    0, &ev);
            evals += ev;
            if (heuristic) /* the python _select charge for the cross matrix */
                evals += nres * (nres - 1) / 2;
            i64 nch = select_links(X, dim, rd, ri, nres, limit, heuristic,
                                   keep_pruned, do_sqrt, ws.kt, ws.flags,
                                   ws.ch_d, ws.ch_i);
            for (i64 t = 0; t < nch; t++)
                nbrs[node * stride + t] = ws.ch_i[t];
            cnts[node] = (int32_t)nch;
            for (i64 t = 0; t < nch; t++) {
                i64 c = ws.ch_i[t];
                i64 cc = cnts[c];
                nbrs[c * stride + cc] = (int32_t)node;
                cnts[c] = (int32_t)(cc + 1);
                if (cc + 1 > limit)
                    shrink_node(&g, lv, c, limit, heuristic, keep_pruned, &ws,
                                &evals, &shrinks);
            }
            if (nch) { /* python: best = min(chosen) (chosen is sorted) */
                epd = ws.ch_d[0];
                ep = ws.ch_i[0];
            }
        }
        if (level > top)
            entry = node;
    }
    io[0] = epoch;
    io[1] = entry;
    io[2] = evals;
    io[3] = shrinks;
}
