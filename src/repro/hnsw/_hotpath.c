/* Compiled hot paths for the HNSW index: SEARCH-LAYER (paper Alg. 2),
 * K-NN-SEARCH (Alg. 5) and INSERT (Alg. 1), at any vector width, and the
 * ring a host thread serves K-NN-SEARCH calls from — and the master's
 * VP-skeleton descent (partition routing), the exact top-k scan and the
 * VP-selection tournament scorer, which share this library, its loader
 * and its self-checks.
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
 * The router's distances are float64 ``einsum("ij,ij->i")`` on one
 * (1, dim) row (``repro.metrics.lp``, then ``math.sqrt``).  The same loop
 * at double width has 2 lanes, so ``l2sq_f64`` runs blocks of 8 products:
 *
 *   per lane l, over each full block of 8 products s[0..7]:
 *       R[l] = s[l] + (s[2+l] + (s[4+l] + (s[6+l] + R[l])))
 *   then over each remaining pair (the last one zero-filled):
 *       R[l] = s[l] + R[l]
 *   result: R[0] + R[1]
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

#define _GNU_SOURCE /* sched_getcpu */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;

/* 4 float lanes: gcc/clang lower the element-wise operators to SSE/NEON
 * where they exist and to scalar code elsewhere, with the same IEEE
 * results either way */
typedef float v4f __attribute__((vector_size(16)));
typedef double v2d __attribute__((vector_size(16)));

static inline v4f ld4(const float *p)
{
    v4f v;
    memcpy(&v, p, sizeof v); /* point rows are only 4-byte aligned */
    return v;
}

static inline v2d ld2(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
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

/* float64 squared euclidean distance in einsum's order (header) */
static inline double l2sq_f64(const double *restrict a,
                              const double *restrict b, i64 dim)
{
    v2d R = {0.0, 0.0};
    i64 k = 0;
    for (; k + 8 <= dim; k += 8) {
        v2d d0 = ld2(a + k) - ld2(b + k);
        v2d d1 = ld2(a + k + 2) - ld2(b + k + 2);
        v2d d2 = ld2(a + k + 4) - ld2(b + k + 4);
        v2d d3 = ld2(a + k + 6) - ld2(b + k + 6);
        R = d0 * d0 + (d1 * d1 + (d2 * d2 + (d3 * d3 + R)));
    }
    for (; k + 2 <= dim; k += 2) {
        v2d d = ld2(a + k) - ld2(b + k);
        R = d * d + R;
    }
    if (k < dim) {
        v2d d = {a[k] - b[k], 0.0};
        R = d * d + R;
    }
    return R[0] + R[1];
}

/* self-check helper: l2sq_f64 of row pairs for bit-comparison vs numpy */
void l2sq_f64_batch(const double *A, const double *B, i64 n, i64 dim,
                    double *out)
{
    for (i64 i = 0; i < n; i++)
        out[i] = l2sq_f64(A + i * dim, B + i * dim, dim);
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
    const i64 *state_ptrs; /* insert path only: see shrink_node */
} graph_t;

static inline int32_t *level_nbrs(const graph_t *g, i64 lv)
{
    return (int32_t *)(intptr_t)g->nbrs_ptrs[lv];
}

static inline int32_t *level_cnts(const graph_t *g, i64 lv)
{
    return (int32_t *)(intptr_t)g->cnts_ptrs[lv];
}

static inline int32_t *level_state(const graph_t *g, i64 lv)
{
    return (int32_t *)(intptr_t)g->state_ptrs[lv];
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

/* One K-NN-SEARCH call: ``SearchDesc`` in native.py, same fields in the
 * same order.  The python side fills the graph, the external ids, the top
 * level and the entry point once per reallocation or insert of the index;
 * search_ring_stage copies that and sets the call's fields. */
typedef struct {
    graph_t g;
    const i64 *ext;         /* external id of each node */
    i64 max_level;
    i64 entry;
    const float *Q;         /* (nq, dim) query rows */
    double *D;              /* (nq, k) distances, written */
    i64 *I;                 /* (nq, k) external ids, written */
    i64 *stats;             /* (nq, 2) evals and result counts, written */
    i64 nq;
    i64 k;
    i64 epoch;              /* query i runs under visited epoch epoch + 1 + i */
    i64 ef;
    const uint8_t *allowed; /* nullable row mask */
} search_t;

/* K-NN-SEARCH (paper Alg. 5) for the nq query rows of ``s`` in one call:
 * entry distance, greedy descent through the upper layers, layer-0 beam
 * of width ef under the nullable row mask ``allowed``, then the closest k
 * written straight into row i of the (nq, k) arrays D / I (external ids),
 * a short row padded with inf / -1.  Row i of the (nq, 2) stats receives
 * query i's distance evaluations and the number of results written.  The
 * rows are finite: search_ring_stage refuses any other. */
static void hnsw_knn_search(const search_t *s)
{
    const graph_t *g = &s->g;
    i64 dim = g->dim, k = s->k;
    for (i64 i = 0; i < s->nq; i++) {
        const float *q = s->Q + i * dim;
        i64 ep = s->entry, evals = 1, ev = 0;
        double epd = qdist(q, g->X + ep * dim, dim, g->do_sqrt);
        for (i64 lv = s->max_level; lv > 0; lv--)
            greedy_step(g, lv, q, &ep, &epd, &evals);
        int32_t in_i = (int32_t)ep;
        i64 nres = search_layer(g, 0, s->epoch + 1 + i, q, &epd, &in_i, 1,
                                s->ef, s->allowed, &ev);
        if (nres > k)
            nres = k;
        double *D = s->D + i * k;
        i64 *I = s->I + i * k;
        for (i64 t = 0; t < nres; t++) {
            D[t] = g->rd[t];
            I[t] = s->ext[g->ri[t]];
        }
        for (i64 t = nres; t < k; t++) {
            D[t] = INFINITY;
            I[t] = -1;
        }
        s->stats[2 * i] = evals + ev;
        s->stats[2 * i + 1] = nres;
    }
}

/* ====================================================================
 * Task searches on a host thread.  A query call's coordinator stages a
 * task's search when it sends the task, and one host thread runs the
 * staged searches while the simulation goes on; the worker that takes
 * the task collects the answer.  The two meet in a single-producer ring
 * of search_t slots, run in staging order.  The simulation's thread
 * alone stages and collects; whoever holds ``run`` runs the next slot, so
 * an index's visited array and heaps have one user at a time.  Without
 * the thread (one CPU, or an index's own knn_search_batch) the same ring
 * runs each search when it is collected.
 *
 * A search is staged from integers: the index's kept search_t (graph,
 * external ids, entry point, levels), the address of its rows, read in
 * place, their number, the first visited epoch, the nullable mask and a
 * row of the ring's arena.  The arena is a caller-owned block of (rows,
 * k) D and I and (rows, 2) stats, set once per block with the call's k
 * and ef; a search writes its answer there, so the caller reads it in
 * place.  A slot is free again once its search ran, so a full ring
 * waits for a search, never for a collection.
 *
 * A collecting producer never sleeps: when its search has not run, it
 * runs it (and those queued before it) itself, unless the thread is
 * searching at that moment, which it then lets finish.  The thread spins
 * for SPIN_NS when the ring is empty, then sleeps on ``work``; it
 * announces the sleep in ``idle``, which a stage reads after publishing
 * (both sequentially consistent), so a wake-up is never lost.  Where an
 * idle CPU halts, a sleeping thread takes milliseconds to run again
 * (10-20 ms on a 2-vCPU guest), hence the long spin: the thread lives for
 * one query call and spins through that call's gaps; the rare search a
 * late wake-up would delay the producer runs itself.
 * ==================================================================== */

#define SPIN_NS 20000000 /* 20 ms */

typedef struct {
    i64 head;          /* slots staged; the producer writes it */
    char pad0[56];     /* head and done on cache lines of their own */
    i64 done;          /* slots searched; written holding ``run`` */
    char pad1[56];
    i64 cap;
    int32_t closed;
    int32_t idle;      /* the thread sleeps on ``work`` */
    double *D;         /* the arena block: (rows, k) D and I, (rows, 2) */
    i64 *I;            /* stats; the producer's alone */
    i64 *S;
    i64 k;
    i64 ef;
    pthread_mutex_t run; /* held while running a slot */
    pthread_mutex_t mu;
    pthread_cond_t work;
    search_t slot[];
} ring_t;

static inline i64 now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (i64)t.tv_sec * 1000000000 + t.tv_nsec;
}

static inline void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

#define LOAD(p) __atomic_load_n((p), __ATOMIC_SEQ_CST)
#define STORE(p, v) __atomic_store_n((p), (v), __ATOMIC_SEQ_CST)

/* the CPU the calling thread runs on, -1 where that cannot be asked */
i64 host_cpu(void)
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
}

ring_t *search_ring_new(i64 cap)
{
    ring_t *r = calloc(1, sizeof(ring_t) + (size_t)cap * sizeof(search_t));
    if (!r)
        return NULL;
    r->cap = cap;
    pthread_mutex_init(&r->run, NULL);
    pthread_mutex_init(&r->mu, NULL);
    pthread_cond_init(&r->work, NULL);
    return r;
}

void search_ring_free(ring_t *r)
{
    pthread_cond_destroy(&r->work);
    pthread_mutex_destroy(&r->mu);
    pthread_mutex_destroy(&r->run);
    free(r);
}

/* The arena block later stages write to: ``rows`` rows of k doubles (D),
 * then of k i64 (I), then of 2 i64 (stats), from ``block``; and the
 * call's k and ef. */
void search_ring_arena(ring_t *r, double *block, i64 rows, i64 k, i64 ef)
{
    r->D = block;
    r->I = (i64 *)(block + rows * k);
    r->S = (i64 *)(block + 2 * rows * k);
    r->k = k;
    r->ef = ef;
}

/* Run the next slot; the caller holds ``run`` and has seen one queued. */
static void run_next(ring_t *r)
{
    i64 t = LOAD(&r->done);
    hnsw_knn_search(&r->slot[t % r->cap]);
    STORE(&r->done, t + 1);
}

/* Return once the search numbered ``seq`` ran (the producer's side): its
 * answer is in its arena rows. */
void search_ring_collect(ring_t *r, i64 seq)
{
    while (LOAD(&r->done) <= seq) {
        if (pthread_mutex_trylock(&r->run) == 0) {
            while (LOAD(&r->done) <= seq)
                run_next(r);
            pthread_mutex_unlock(&r->run);
            return;
        }
        cpu_relax(); /* the thread is running a search */
    }
}

/* Queue the search of the nq rows at Q against the index ``base``
 * describes, answered into arena rows row .. row + nq - 1, and return its
 * sequence number; -1, queueing nothing, when a row holds a NaN or an
 * infinity (the python side raises the ValueError ``check_matrix``
 * would).  A full ring first runs out its oldest search. */
i64 search_ring_stage(ring_t *r, const search_t *base, const float *Q, i64 nq,
                      i64 epoch, const uint8_t *allowed, i64 row)
{
    for (i64 t = 0; t < nq * base->g.dim; t++)
        if (!isfinite(Q[t]))
            return -1;
    i64 seq = r->head;
    if (seq - LOAD(&r->done) >= r->cap)
        search_ring_collect(r, seq - r->cap);
    search_t *s = &r->slot[seq % r->cap];
    *s = *base;
    s->Q = Q;
    s->D = r->D + row * r->k;
    s->I = r->I + row * r->k;
    s->stats = r->S + 2 * row;
    s->nq = nq;
    s->k = r->k;
    s->epoch = epoch;
    s->ef = r->ef;
    s->allowed = allowed;
    STORE(&r->head, seq + 1);
    if (LOAD(&r->idle)) {
        pthread_mutex_lock(&r->mu);
        pthread_cond_signal(&r->work);
        pthread_mutex_unlock(&r->mu);
    }
    return seq;
}

/* Let the serve loop return; what it has not run, nobody collects. */
void search_ring_close(ring_t *r)
{
    pthread_mutex_lock(&r->mu);
    STORE(&r->closed, 1);
    pthread_cond_signal(&r->work);
    pthread_mutex_unlock(&r->mu);
}

/* The search thread's body: run slots in order until the ring is closed.
 * With cpu >= 0 the thread first moves to that CPU and is then freed to
 * move again, as ``_place_worker`` in core/build.py starts a build
 * worker; here the move happens without the GIL, so the thread that
 * started this one need not wait for it. */
void search_ring_serve(ring_t *r, i64 cpu)
{
#ifdef __linux__
    cpu_set_t mask, one;
    if (cpu >= 0 && cpu < CPU_SETSIZE && !sched_getaffinity(0, sizeof mask, &mask)) {
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        sched_setaffinity(0, sizeof mask, &mask);
    }
#else
    (void)cpu;
#endif
    i64 idle_since = -1;
    while (!LOAD(&r->closed)) {
        if (LOAD(&r->done) < LOAD(&r->head)) {
            pthread_mutex_lock(&r->run);
            if (LOAD(&r->done) < LOAD(&r->head)) /* not run by the producer */
                run_next(r);
            pthread_mutex_unlock(&r->run);
            idle_since = -1;
            continue;
        }
        if (idle_since < 0)
            idle_since = now_ns();
        if (now_ns() - idle_since < SPIN_NS) {
            cpu_relax();
            continue;
        }
        pthread_mutex_lock(&r->mu);
        STORE(&r->idle, 1);
        while (LOAD(&r->done) == LOAD(&r->head) && !LOAD(&r->closed))
            pthread_cond_wait(&r->work, &r->mu);
        STORE(&r->idle, 0);
        pthread_mutex_unlock(&r->mu);
        idle_since = -1;
    }
}

/* ====================================================================
 * Native insert path (INSERT, paper Alg. 1): greedy descent, beam
 * search, neighbor selection (SELECT-NEIGHBORS, the Alg. 4 heuristic)
 * and link shrinking, batched over many points per call.
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
static inline void kt_store(double *kt, i64 dim, i64 slot, const float *x)
{
    double *p = kt + (slot / 8) * dim * 8 + slot % 8;
    for (i64 k = 0; k < dim; k++)
        p[k * 8] = (double)x[k];
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

/* selection scratch, carved out of two caller-provided buffers: with
 * deg = max(M, M0) and maxn bounding any candidate list (the efc beam or
 * an over-full neighbor list), ws_d holds maxn + 2 * (deg + 1) doubles
 * followed by the kept-row blocks (deg rounded up to a multiple of 8,
 * times dim, zeroed), ws_i 2 * maxn + 4 * (deg + 1) int32 */
typedef struct {
    double *tmp_d, *ch_d, *sh_d, *kt;
    int32_t *tmp_i, *ch_i, *sh_i, *dom, *kept_i, *sh_dom;
} select_ws_t;

/* what a batch of inserts reports back (io[2..4]) */
typedef struct {
    i64 evals, shrinks, full_shrinks;
} build_counts_t;

/* SELECT-NEIGHBORS over n candidates pre-sorted ascending by (d, id).
 * Mirrors select.py: keeps a candidate iff no already-kept candidate is
 * at least as close to it as the query is (pair distance <= d_i), stops
 * once m are kept, and backfills the first examined discards.  The
 * output (ascending by (d, id), like the python position-order merge)
 * goes to (out_d, out_i); returns its length.  out_dom says why each
 * output entry is there: -1 for a kept one, else the id of the first
 * kept candidate that dominated it (a backfilled discard).
 *
 * Pair distances are computed on demand, a candidate against one block
 * of kept rows at a time, stopping at the first block that holds a
 * dominator: every decision reads only its own pairs, each of which is a
 * pure function of its two rows, so evaluating fewer of them than the
 * python row kernel does changes no decision.  ``ws->kt`` holds the kept
 * rows (room for m rounded up to whole blocks; unused lanes of a block
 * hold zeros or an earlier row, numbers either way), ``ws->kept_i``
 * their ids and ``ws->dom`` the verdict per candidate position. */
static i64 select_links(const float *X, i64 dim, const double *cand_d,
                        const int32_t *cand_i, i64 n, i64 m,
                        int32_t do_sqrt, const select_ws_t *ws,
                        double *out_d, int32_t *out_i, int32_t *out_dom)
{
    double *kt = ws->kt;
    int32_t *dom = ws->dom, *kept_i = ws->kept_i;
    i64 n_kept = 0, examined = n;
    for (i64 i = 0; i < n; i++) {
        if (n_kept >= m) {
            examined = i;
            break;
        }
        double di = cand_d[i];
        const float *xi = X + (i64)cand_i[i] * dim;
        dom[i] = -1;
        for (i64 r = 0; r < n_kept && dom[i] < 0; r += 8) {
            double d[8];
            i64 nb = n_kept - r < 8 ? n_kept - r : 8;
            l2d_x8(xi, kt + r * dim, dim, do_sqrt, d);
            for (i64 t = 0; t < nb; t++)
                if (d[t] <= di) {
                    dom[i] = kept_i[r + t];
                    break;
                }
        }
        if (dom[i] < 0) {
            kept_i[n_kept] = cand_i[i];
            kt_store(kt, dim, n_kept++, xi);
        }
    }
    i64 backfill = n_kept < m ? m - n_kept : 0;
    i64 n_out = 0;
    for (i64 i = 0; i < examined; i++) {
        if (dom[i] >= 0) {
            if (backfill <= 0)
                continue;
            backfill--;
        }
        out_d[n_out] = cand_d[i];
        out_i[n_out] = cand_i[i];
        out_dom[n_out++] = dom[i];
    }
    return n_out;
}

/* Bring node c's over-full neighbor list back down to ``limit`` links
 * (python _shrink), the link just appended being node x at query
 * distance d_x.  Python re-selects the whole list every time; this
 * must leave the same links and charges the same logical eval count:
 * cnt query distances plus the cnt-candidate cross matrix.
 *
 * Every selection leaves a record of itself in the level's state array (python-owned, 1 + 2 * limit int32 per node,
 * zeroed = cold):
 *
 *   st[0]            length of the list the record describes
 *   st[1 .. ]        limit floats: query distance of each entry (the
 *                    list itself, nrow, is in (d, id) order; distances
 *                    come from the float32 kernel, so float holds them)
 *   st[1 + limit ..] limit int32: -1 for a kept entry, else the id of a
 *                    still-kept entry that dominates it (a backfilled
 *                    discard)
 *
 * When the record describes the list minus x (st[0] + 1 == cnt; such a
 * record always has ``limit`` entries), x is folded in incrementally
 * instead of re-selecting.  Why that gives the full re-selection's answer:
 * removing discards from a candidate list removes no comparison source, so
 * decisions before x's sorted position stand, and the ones after it
 * stand unless x is kept and dominates a kept entry (a victim).  Victims
 * flip to discards dominated by x — sound as long as no discard names a
 * victim as its dominator; one that does may flip back, a genuine
 * cascade, which — like a cold or stale record — takes the full
 * re-selection below.  The merged list of limit + 1 then loses one
 * entry: the last one when all are kept, else the last discard (the
 * backfill quota shrinks by one).  Only x's pairs to the kept
 * entries are computed, a block of eight at a time, stopping at x's
 * first dominator. */
static void shrink_node(const graph_t *g, i64 lv, i64 c, i64 limit,
                        double d_x, const select_ws_t *ws,
                        build_counts_t *counts)
{
    i64 stride = g->strides[lv], dim = g->dim;
    int32_t *nrow = level_nbrs(g, lv) + c * stride;
    int32_t *cnts = level_cnts(g, lv);
    double *tmp_d = ws->tmp_d;
    int32_t *tmp_i = ws->tmp_i, *tmp_dom = ws->sh_dom;
    i64 cnt = cnts[c];
    counts->evals += cnt + cnt * (cnt - 1) / 2;
    counts->shrinks++;
    int32_t *st = level_state(g, lv) + c * (1 + 2 * limit);
    float *st_d = (float *)(st + 1);
    int32_t *st_dom = st + 1 + limit;

    if (st[0] + 1 == cnt) {
        i64 k = limit, p = 0, n_victims = 0, x_dom = -1;
        int32_t x = nrow[k];
        int32_t *victims = ws->kept_i;
        while (p < k && pair_lt((double)st_d[p], nrow[p], d_x, x))
            p++;
        for (i64 pos = 0; pos < k && x_dom < 0;) {
            double d[8];
            i64 at[8], nb = 0;
            for (; pos < k && nb < 8; pos++)
                if (st_dom[pos] < 0) {
                    kt_store(ws->kt, dim, nb, g->X + (i64)nrow[pos] * dim);
                    at[nb++] = pos;
                }
            if (!nb)
                break;
            l2d_x8(g->X + (i64)x * dim, ws->kt, dim, g->do_sqrt, d);
            for (i64 t = 0; t < nb; t++)
                if (at[t] >= p) {
                    if (d[t] <= (double)st_d[at[t]])
                        victims[n_victims++] = (int32_t)at[t];
                } else if (d[t] <= d_x) {
                    x_dom = nrow[at[t]];
                    break;
                }
        }
        int cascade = 0;
        if (x_dom < 0) {
            for (i64 pos = n_victims ? victims[0] + 1 : k; pos < k; pos++)
                for (i64 v = 0; v < n_victims; v++)
                    cascade |= st_dom[pos] == nrow[victims[v]];
            for (i64 v = 0; v < n_victims && !cascade; v++)
                st_dom[victims[v]] = x;
        }
        if (!cascade) {
            /* merge x in at p, then write the survivors back */
            i64 n_kept = 0, drop = k, m_out = 0;
            for (i64 j = 0, s = 0; j <= k; j++) {
                if (j == p) {
                    tmp_d[j] = d_x;
                    tmp_i[j] = x;
                    tmp_dom[j] = (int32_t)x_dom;
                } else {
                    tmp_d[j] = (double)st_d[s];
                    tmp_i[j] = nrow[s];
                    tmp_dom[j] = st_dom[s++];
                }
                n_kept += tmp_dom[j] < 0;
            }
            if (n_kept <= limit)
                while (tmp_dom[drop] < 0)
                    drop--;
            for (i64 j = 0; j <= k && m_out < limit; j++) {
                if (j == drop)
                    continue;
                st_d[m_out] = (float)tmp_d[j];
                nrow[m_out] = tmp_i[j];
                st_dom[m_out++] = tmp_dom[j];
            }
            st[0] = cnts[c] = (int32_t)m_out;
            return;
        }
    }

    counts->full_shrinks++;
    const float *xc = g->X + c * dim;
    for (i64 j = 0; j < cnt; j++) {
        tmp_d[j] = qdist(xc, g->X + (i64)nrow[j] * dim, dim, g->do_sqrt);
        tmp_i[j] = nrow[j];
    }
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
    i64 m_out = select_links(g->X, dim, tmp_d, tmp_i, cnt, limit, g->do_sqrt,
                             ws, ws->sh_d, ws->sh_i, tmp_dom);
    cnts[c] = (int32_t)m_out;
    for (i64 j = 0; j < m_out; j++)
        nrow[j] = ws->sh_i[j];
    st[0] = (int32_t)m_out;
    for (i64 j = 0; j < m_out; j++) {
        st_d[j] = (float)ws->sh_d[j];
        st_dom[j] = tmp_dom[j];
    }
}

/* Batched INSERT: points n_start..n_start+n_new-1 already stored in X
 * with their sampled levels in new_levels (and node_level), adjacency
 * and shrink-state arrays already sized for the final level.  io holds
 * {epoch, entry, evals, shrinks, full re-selections}: epoch and entry are
 * read and written back, the three counters written, so the python side
 * stays the single source of truth between calls. */
void hnsw_insert_batch(const float *X, i64 dim, const i64 *nbrs_ptrs,
                       const i64 *strides, const i64 *cnts_ptrs, i64 *stamp,
                       double *cd, int32_t *ci, double *rd, int32_t *ri,
                       int32_t do_sqrt, const int32_t *node_level,
                       i64 n_start, i64 n_new, const int32_t *new_levels,
                       i64 M, i64 M0, i64 efc, const i64 *state_ptrs,
                       double *ws_d, int32_t *ws_i, i64 maxn, i64 *io)
{
    graph_t g = {X, dim, nbrs_ptrs, strides, cnts_ptrs, stamp, cd, ci, rd, ri,
                 do_sqrt, state_ptrs};
    i64 deg1 = (M > M0 ? M : M0) + 1;
    select_ws_t ws = {.tmp_d = ws_d,
                      .ch_d = ws_d + maxn,
                      .sh_d = ws_d + maxn + deg1,
                      .kt = ws_d + maxn + 2 * deg1,
                      .tmp_i = ws_i,
                      .dom = ws_i + maxn,
                      .ch_i = ws_i + 2 * maxn,
                      .sh_i = ws_i + 2 * maxn + deg1,
                      .kept_i = ws_i + 2 * maxn + 2 * deg1,
                      .sh_dom = ws_i + 2 * maxn + 3 * deg1};
    i64 epoch = io[0], entry = io[1];
    build_counts_t counts = {0, 0, 0};
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
        counts.evals++;

        /* phase 1: greedy descent through layers above the insert level */
        for (i64 lv = top; lv > level; lv--)
            greedy_step(&g, lv, q, &ep, &epd, &counts.evals);

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
            /* plus the python _select charge for the cross matrix */
            counts.evals += ev + nres * (nres - 1) / 2;
            i64 nch = select_links(X, dim, rd, ri, nres, limit, do_sqrt, &ws,
                                   ws.ch_d, ws.ch_i, ws.sh_dom);
            for (i64 t = 0; t < nch; t++)
                nbrs[node * stride + t] = ws.ch_i[t];
            cnts[node] = (int32_t)nch;
            for (i64 t = 0; t < nch; t++) {
                i64 c = ws.ch_i[t];
                i64 cc = cnts[c];
                nbrs[c * stride + cc] = (int32_t)node;
                cnts[c] = (int32_t)(cc + 1);
                if (cc + 1 > limit)
                    shrink_node(&g, lv, c, limit, ws.ch_d[t], &ws, &counts);
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
    memcpy(io + 2, &counts, sizeof counts);
}

/* ====================================================================
 * VP-skeleton routing (the master's F(q), paper Alg. 3 l. 4): the loops
 * of ``PartitionRouter.route_approx`` / ``route_exact`` over the router's
 * flattened skeleton, one call per query.  Python's per-step ``_d`` is the
 * oracle; distances are ``l2sq_f64`` + sqrt, so every comparison, margin
 * and penalty is the double python computes.
 *
 * Node codes: c >= 0 is internal node c (row c of vps / mus / child);
 * c < 0 is the leaf holding partition ~c.
 * ==================================================================== */

/* The router's description: ``RouteDesc`` in native.py, same fields in
 * the same order. */
typedef struct {
    const double *vps;   /* (n_internal, dim) vantage points */
    const double *mus;   /* (n_internal,) split radii */
    const i64 *child;    /* (n_internal, 2) codes of left / right */
    i64 dim;
    i64 root;            /* code of the root */
    const double *q;     /* (dim,) the query, widened from float32 */
    double *heap_p;      /* n_internal + 1 slots: penalty, */
    i64 *heap_s;         /* push sequence number */
    i64 *heap_n;         /* and node code (route_exact: the DFS stack) */
    i64 *out;            /* n_internal + 1 partition ids */
    i64 evals;           /* written: distance evaluations of the call */
} route_t;

static inline double route_dist(const route_t *r, i64 node)
{
    return sqrt(l2sq_f64(r->vps + node * r->dim, r->q, r->dim));
}

/* min-heap on (penalty, seq): seqs are unique, so its pop order is the
 * total order heapq gives python's (penalty, seq, node) tuples */
static inline int route_lt(const route_t *r, i64 a, double p, i64 s)
{
    return r->heap_p[a] < p || (r->heap_p[a] == p && r->heap_s[a] < s);
}

static void route_push(route_t *r, i64 *n, double p, i64 s, i64 node)
{
    i64 i = (*n)++;
    while (i > 0) {
        i64 up = (i - 1) >> 1;
        if (route_lt(r, up, p, s))
            break;
        r->heap_p[i] = r->heap_p[up];
        r->heap_s[i] = r->heap_s[up];
        r->heap_n[i] = r->heap_n[up];
        i = up;
    }
    r->heap_p[i] = p;
    r->heap_s[i] = s;
    r->heap_n[i] = node;
}

static void route_pop(route_t *r, i64 *n)
{
    i64 m = --(*n);
    double p = r->heap_p[m];
    i64 s = r->heap_s[m], node = r->heap_n[m], i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && route_lt(r, c + 1, r->heap_p[c], r->heap_s[c]))
            c++;
        if (!route_lt(r, c, p, s))
            break;
        r->heap_p[i] = r->heap_p[c];
        r->heap_s[i] = r->heap_s[c];
        r->heap_n[i] = r->heap_n[c];
        i = c;
    }
    r->heap_p[i] = p;
    r->heap_s[i] = s;
    r->heap_n[i] = node;
}

/* 1 when the query holds a NaN or an infinity: both routes then return
 * -1 before descending (the python side raises the ValueError
 * ``check_vector`` would) */
static int route_bad_query(route_t *r)
{
    r->evals = 0;
    for (i64 i = 0; i < r->dim; i++)
        if (!isfinite(r->q[i]))
            return 1;
    return 0;
}

/* best-first multi-probe: the n_probe partitions of least accumulated
 * boundary margin, in pop order; returns how many were written */
i64 vp_route_approx(route_t *r, i64 n_probe)
{
    if (route_bad_query(r))
        return -1;
    i64 n_out = 0, nh = 0, seq = 0, evals = 0;
    route_push(r, &nh, 0.0, 0, r->root);
    while (nh && n_out < n_probe) {
        double penalty = r->heap_p[0];
        i64 node = r->heap_n[0];
        route_pop(r, &nh);
        while (node >= 0) {
            double d = route_dist(r, node), mu = r->mus[node];
            const i64 *ch = r->child + 2 * node;
            i64 near = d <= mu ? ch[0] : ch[1], far = d <= mu ? ch[1] : ch[0];
            evals++;
            route_push(r, &nh, penalty + fabs(d - mu), ++seq, far);
            node = near;
        }
        r->out[n_out++] = ~node;
    }
    r->evals = evals;
    return n_out;
}

/* every partition whose cell meets the ball of radius tau, in the
 * left-first DFS order of the python recursion (both tests non-strict) */
i64 vp_route_exact(route_t *r, double tau)
{
    if (route_bad_query(r))
        return -1;
    i64 n_out = 0, top = 0, evals = 0;
    i64 *stack = r->heap_n;
    stack[top++] = r->root;
    while (top) {
        i64 node = stack[--top];
        if (node < 0) {
            r->out[n_out++] = ~node;
            continue;
        }
        double d = route_dist(r, node), mu = r->mus[node];
        const i64 *ch = r->child + 2 * node;
        evals++;
        if (d + tau >= mu)
            stack[top++] = ch[1];
        if (d - tau <= mu)
            stack[top++] = ch[0];
    }
    r->evals = evals;
    return n_out;
}

/* ====================================================================
 * Exact top-k scan (``repro.metrics.topk``): every float32 row against
 * every query, the k nearest kept in (d, id) order.
 *
 * The python reference is ``one_to_many`` — rows and query widened to
 * double, ``einsum("ij,ij->i", X - q, X - q)``, then ``np.sqrt`` for l2 —
 * followed by ``np.lexsort((ids, d))[:k]``.  ``l2sq_wide`` is
 * ``l2sq_f64`` with the row widened as it is loaded (same lanes, same
 * order); the insertion top-k places a row after every kept row it does
 * not precede, which is lexsort's stability, and orders NaN after every
 * number as numpy's sort does.
 * ==================================================================== */

static inline v2d ld2w(const float *p)
{
    v2d v = {(double)p[0], (double)p[1]};
    return v;
}

static inline double l2sq_wide(const float *restrict x,
                               const double *restrict q, i64 dim)
{
    v2d R = {0.0, 0.0};
    i64 k = 0;
    for (; k + 8 <= dim; k += 8) {
        v2d d0 = ld2w(x + k) - ld2(q + k);
        v2d d1 = ld2w(x + k + 2) - ld2(q + k + 2);
        v2d d2 = ld2w(x + k + 4) - ld2(q + k + 4);
        v2d d3 = ld2w(x + k + 6) - ld2(q + k + 6);
        R = d0 * d0 + (d1 * d1 + (d2 * d2 + (d3 * d3 + R)));
    }
    for (; k + 2 <= dim; k += 2) {
        v2d d = ld2w(x + k) - ld2(q + k);
        R = d * d + R;
    }
    if (k < dim) {
        v2d d = {(double)x[k] - q[k], 0.0};
        R = d * d + R;
    }
    return R[0] + R[1];
}

/* (d1, i1) sorts before (d2, i2): numpy's float order (NaN last, NaNs
 * equal), then id */
static inline int topk_lt(double d1, i64 i1, double d2, i64 i2)
{
    if (d1 < d2 || (d2 != d2 && d1 == d1))
        return 1;
    return (d1 == d2 || (d1 != d1 && d2 != d2)) && i1 < i2;
}

/* The two halves of one scan: ``TopkRows`` and ``TopkCall`` in
 * native.py.  A point set describes its rows once; a caller's call
 * descriptor holds its query and output buffers. */
typedef struct {
    const float *X;     /* (n, dim) rows */
    const i64 *ids;     /* (n,) their ids */
    i64 n;
    i64 dim;
} topk_rows_t;

typedef struct {
    const double *Q;    /* (nq, dim) queries, widened from float32 */
    double *D;          /* (nq, k) distances, written */
    i64 *I;             /* (nq, k) ids, written */
    i64 nq;
    i64 k;
    int32_t do_sqrt;
} topk_call_t;

/* writes the min(n, k) nearest rows of each query to row i of D / I */
void exact_topk(const topk_rows_t *rows, const topk_call_t *c)
{
    const float *X = rows->X;
    const i64 *ids = rows->ids;
    i64 n = rows->n, dim = rows->dim, k = c->k;
    for (i64 qi = 0; qi < c->nq; qi++) {
        const double *q = c->Q + qi * dim;
        double *dk = c->D + qi * k;
        i64 *ik = c->I + qi * k, cnt = 0;
        for (i64 r = 0; r < n; r++) {
            double d = l2sq_wide(X + r * dim, q, dim);
            i64 id = ids[r], j;
            if (c->do_sqrt)
                d = sqrt(d);
            if (cnt == k && !topk_lt(d, id, dk[k - 1], ik[k - 1]))
                continue;
            j = cnt < k ? cnt++ : k - 1;
            for (; j > 0 && topk_lt(d, id, dk[j - 1], ik[j - 1]); j--) {
                dk[j] = dk[j - 1];
                ik[j] = ik[j - 1];
            }
            dk[j] = d;
            ik[j] = id;
        }
    }
}

/* ====================================================================
 * VP selection (``repro.vptree.select.spread_scores``) under L2: one
 * tournament round, every candidate scored by the second moment of its
 * sample distances about their median.
 *
 * The numpy reference computes, per candidate row,
 *   d   = sqrt(einsum("ij,ij->i", S - c, S - c))    (``l2sq_f64`` order)
 *   mu  = median(d)               (even count: (lo + hi) / 2.0)
 *   out = mean((d - mu) ** 2)     (pairwise sum over the row, then / ns)
 * and this entry follows it operation for operation.
 * ==================================================================== */

/* four ``l2sq_f64(s_j, c)`` in flight: samples s_0..s_3 are consecutive
 * rows of S; each chain keeps the single-pair order */
static inline void l2sq_f64_x4(const double *restrict s,
                               const double *restrict c, i64 dim,
                               double *out)
{
    const double *s0 = s, *s1 = s + dim, *s2 = s + 2 * dim,
                 *s3 = s + 3 * dim;
    v2d R0 = {0.0, 0.0}, R1 = R0, R2 = R0, R3 = R0;
    i64 k = 0;
    for (; k + 8 <= dim; k += 8) {
        v2d c0 = ld2(c + k), c1 = ld2(c + k + 2), c2 = ld2(c + k + 4),
            c3 = ld2(c + k + 6);
#define X4_STEP(R, p)                                                      \
    do {                                                                   \
        v2d d0 = ld2(p + k) - c0, d1 = ld2(p + k + 2) - c1,                \
            d2 = ld2(p + k + 4) - c2, d3 = ld2(p + k + 6) - c3;            \
        R = d0 * d0 + (d1 * d1 + (d2 * d2 + (d3 * d3 + R)));               \
    } while (0)
        X4_STEP(R0, s0);
        X4_STEP(R1, s1);
        X4_STEP(R2, s2);
        X4_STEP(R3, s3);
#undef X4_STEP
    }
    for (; k + 2 <= dim; k += 2) {
        v2d cv = ld2(c + k);
        v2d d0 = ld2(s0 + k) - cv, d1 = ld2(s1 + k) - cv,
            d2 = ld2(s2 + k) - cv, d3 = ld2(s3 + k) - cv;
        R0 = d0 * d0 + R0;
        R1 = d1 * d1 + R1;
        R2 = d2 * d2 + R2;
        R3 = d3 * d3 + R3;
    }
    if (k < dim) {
        v2d d0 = {s0[k] - c[k], 0.0}, d1 = {s1[k] - c[k], 0.0},
            d2 = {s2[k] - c[k], 0.0}, d3 = {s3[k] - c[k], 0.0};
        R0 = d0 * d0 + R0;
        R1 = d1 * d1 + R1;
        R2 = d2 * d2 + R2;
        R3 = d3 * d3 + R3;
    }
    out[0] = R0[0] + R0[1];
    out[1] = R1[0] + R1[1];
    out[2] = R2[0] + R2[1];
    out[3] = R3[0] + R3[1];
}

/* numpy's float64 pairwise sum (its add reduce over one contiguous row):
 * plain below 8 terms, eight accumulators up to 128, halves above */
static double pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        i64 i;
        memcpy(r, a, sizeof r);
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* the k-th smallest of a[0, n), by Hoare partitioning; on return every
 * a[i] with i < k is <= a[k] (values are finite) */
static double select_kth(double *a, i64 n, i64 k)
{
    i64 lo = 0, hi = n - 1;
    while (lo < hi) {
        double x = a[lo + (hi - lo) / 2];
        i64 i = lo, j = hi;
        while (i <= j) {
            while (a[i] < x)
                i++;
            while (a[j] > x)
                j--;
            if (i <= j) {
                double t = a[i];
                a[i++] = a[j];
                a[j--] = t;
            }
        }
        if (k <= j)
            hi = j;
        else if (k >= i)
            lo = i;
        else
            break;
    }
    return a[k];
}

/* out[i] = the spread score of candidate row i of C (nc, dim) over the
 * sample rows S (ns, dim); work holds 2 * ns doubles.  Returns 1, with
 * out unfinished, when a distance is not finite (the caller then takes
 * the numpy path, whose NaN/inf handling this entry does not copy). */
i64 vp_spread_scores(const double *C, const double *S, i64 nc, i64 ns,
                     i64 dim, double *work, double *out)
{
    double *d = work, *sel = work + ns;
    for (i64 i = 0; i < nc; i++) {
        const double *c = C + i * dim;
        i64 j = 0;
        for (; j + 4 <= ns; j += 4)
            l2sq_f64_x4(S + j * dim, c, dim, d + j);
        for (; j < ns; j++)
            d[j] = l2sq_f64(S + j * dim, c, dim);
        for (j = 0; j < ns; j++) {
            d[j] = sqrt(d[j]);
            if (!isfinite(d[j]))
                return 1;
        }
        memcpy(sel, d, ns * sizeof *sel);
        double mu = select_kth(sel, ns, ns / 2);
        if (ns % 2 == 0) {
            double lo = sel[0];
            for (j = 1; j < ns / 2; j++)
                lo = sel[j] > lo ? sel[j] : lo;
            mu = (lo + mu) / 2.0;
        }
        for (j = 0; j < ns; j++)
            d[j] = (d[j] - mu) * (d[j] - mu);
        out[i] = pairwise_sum(d, ns) / (double)ns;
    }
    return 0;
}
