/* Native kernels for the two hottest loops of the repro engine.
 *
 * Compiled on demand by repro/native/build.py with the system C compiler
 * into a plain shared object loaded over ctypes — no Python.h, no
 * packaging changes.  Everything here operates on raw pointers into numpy
 * arrays owned by the Python side; nothing is allocated across calls.
 *
 * Bit-identity contract
 * ---------------------
 * Both kernels must produce *bit-identical* IEEE-754 float64 results to
 * the pure-python/numpy reference paths, because peeling tie-breaks
 * compare floats for exact equality and the differential test-suite pins
 * byte-for-byte equal peel sequences across engines:
 *
 * - every scalar accumulation follows the same left-to-right association
 *   order as the python loops;
 * - `pw_sum` reproduces numpy's pairwise summation exactly (the scalar
 *   8-accumulator algorithm from numpy's umath loops, which np.sum uses
 *   for float64 reductions) — verified at load time against np.sum by the
 *   self-check in repro/native/kernels.py;
 * - the heaps pop in exactly the order the python loops' lazy-deletion
 *   heapq pops.  Those loops skip every entry whose weight is no longer
 *   its vertex's current one, so each pop they act on is the minimum of
 *   the live (current weight, id) keys.  Ids break weight ties, so live
 *   keys are distinct under a total order and that minimum is unique.
 *   The kernels keep one entry per live id in an indexed min-heap and
 *   rewrite its key in place, so the root is that same minimum at every
 *   step, whatever shape the heap has.
 *
 * Build: cc -O2 -fPIC -shared  (never -ffast-math: it would reassociate).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* Pairwise summation: exact replica of numpy's float64 pairwise_sum.  */
/* ------------------------------------------------------------------ */

static double pw_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (int64_t i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i + 8 <= n; i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pw_sum(a, n2) + pw_sum(a + n2, n - n2);
}

EXPORT double repro_pw_sum(const double *a, int64_t n)
{
    return pw_sum(a, n);
}

/* ------------------------------------------------------------------ */
/* Indexed (weight, id) binary min-heap with lexicographic order — the  */
/* exact comparison heapq performs on (float, int) tuples.  One entry   */
/* per queued id; slot[id] is that entry's index, valid while queued.   */
/* ------------------------------------------------------------------ */

typedef struct {
    double w;
    int32_t v;
} HeapEntry;

typedef struct {
    HeapEntry *data;
    int64_t len;
    int64_t cap;
    int32_t *slot;
} Heap;

static inline int entry_lt(HeapEntry a, HeapEntry b)
{
    return a.w < b.w || (a.w == b.w && a.v < b.v);
}

static inline void heap_set(Heap *h, int64_t i, HeapEntry e)
{
    h->data[i] = e;
    h->slot[e.v] = (int32_t)i;
}

/* Move the entry at i toward the root while it beats its parent. */
static inline int64_t heap_rise(Heap *h, int64_t i)
{
    HeapEntry item = h->data[i];
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!entry_lt(item, h->data[parent]))
            break;
        heap_set(h, i, h->data[parent]);
        i = parent;
    }
    heap_set(h, i, item);
    return i;
}

/* Move the entry at i toward the leaves while a child beats it. */
static inline void heap_sink(Heap *h, int64_t i)
{
    HeapEntry item = h->data[i];
    for (int64_t child = 2 * i + 1; child < h->len; child = 2 * i + 1) {
        if (child + 1 < h->len && entry_lt(h->data[child + 1], h->data[child]))
            child++;
        if (!entry_lt(h->data[child], item))
            break;
        heap_set(h, i, h->data[child]);
        i = child;
    }
    heap_set(h, i, item);
}

static inline int heap_push(Heap *h, double w, int32_t v)
{
    if (h->len == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 64;
        HeapEntry *grown = (HeapEntry *)realloc(h->data, (size_t)cap * sizeof(HeapEntry));
        if (!grown)
            return -1;
        h->data = grown;
        h->cap = cap;
    }
    h->data[h->len].w = w;
    h->data[h->len].v = v;
    heap_rise(h, h->len++);
    return 0;
}

/* Remove the root; the caller has read it.  slot[] of the removed id is
 * set to -1, which repro_peel reads as "not queued". */
static inline void heap_pop(Heap *h)
{
    h->slot[h->data[0].v] = -1;
    if (--h->len) {
        heap_set(h, 0, h->data[h->len]);
        heap_sink(h, 0);
    }
}

/* Rewrite v's key in place.  A key only falls while weights are
 * positive, but sinking when it did not rise keeps any value correct. */
static inline void heap_update(Heap *h, int32_t v, double w)
{
    int64_t i = h->slot[v];
    h->data[i].w = w;
    if (heap_rise(h, i) == i)
        heap_sink(h, i);
}

/* ------------------------------------------------------------------ */
/* Kernel (a): the flat greedy peel loop of _peel_csr_ids.             */
/* ------------------------------------------------------------------ */

/* The vectorised phase-1 initialisation (member-restricted incident
 * weights, total) stays in numpy on the Python side; this kernel is the
 * phase-2 greedy loop over the combined-incidence CSR.  `init_cur[i]` is
 * the initial peeling weight of `member_ids[i]`.  Writes the peel order /
 * weights into `order_out` / `weights_out` (length k each) and returns
 * the number peeled (== k unless member_ids repeats an id), or -1 on
 * allocation failure.
 *
 * The heap holds exactly the live members, so it is sized once at k:
 * heapify the initial weights, pop the minimum, and rewrite each live
 * neighbour's key in place.  slot[id] >= 0 marks an unpeeled member; the
 * key is its current peeling weight, so no separate array holds it.
 */
EXPORT int64_t repro_peel(
    const int64_t *inc_off,
    const int32_t *inc_nbr,
    const double *inc_w,
    int64_t num_ids,
    const int32_t *member_ids,
    const double *init_cur,
    int64_t k,
    int32_t *order_out,
    double *weights_out)
{
    if (k <= 0)
        return 0;
    Heap heap = {0, 0, 0, 0};
    heap.data = (HeapEntry *)malloc((size_t)k * sizeof(HeapEntry));
    heap.slot = (int32_t *)malloc((size_t)num_ids * sizeof(int32_t));
    int64_t produced = -1;
    if (!heap.data || !heap.slot)
        goto done;
    memset(heap.slot, 0xff, (size_t)num_ids * sizeof(int32_t));

    for (int64_t i = 0; i < k; i++) {
        int32_t vid = member_ids[i];
        if (heap.slot[vid] >= 0)
            continue; /* a repeated id is peeled once */
        heap.data[heap.len].w = init_cur[i];
        heap.data[heap.len].v = vid;
        heap.slot[vid] = (int32_t)heap.len++;
    }
    for (int64_t i = heap.len / 2 - 1; i >= 0; i--)
        heap_sink(&heap, i);

    int64_t n_out = 0;
    while (heap.len) {
        HeapEntry top = heap.data[0];
        heap_pop(&heap);
        order_out[n_out] = top.v;
        weights_out[n_out] = top.w;
        n_out++;
        int64_t end = inc_off[top.v + 1];
        for (int64_t j = inc_off[top.v]; j < end; j++) {
            int32_t nbr = inc_nbr[j];
            int32_t at = heap.slot[nbr];
            if (at >= 0)
                heap_update(&heap, nbr, heap.data[at].w - inc_w[j]);
        }
    }
    produced = n_out;

done:
    free(heap.data);
    free(heap.slot);
    return produced;
}

/* ------------------------------------------------------------------ */
/* Kernel (b): the reorder inner loop of reorder_after_insertions.     */
/* ------------------------------------------------------------------ */

/* Growable int32 / (int32, double) logs used by the reorder kernel. */
typedef struct {
    int32_t *ids;
    double *ws;
    int64_t len;
    int64_t cap;
} IslandBuf;

static int island_reserve(IslandBuf *b, int64_t need)
{
    if (need <= b->cap)
        return 0;
    int64_t cap = b->cap ? b->cap : 64;
    while (cap < need)
        cap *= 2;
    int32_t *ids = (int32_t *)realloc(b->ids, (size_t)cap * sizeof(int32_t));
    if (!ids)
        return -1;
    b->ids = ids;
    double *ws = (double *)realloc(b->ws, (size_t)cap * sizeof(double));
    if (!ws)
        return -1;
    b->ws = ws;
    b->cap = cap;
    return 0;
}

typedef struct {
    /* adjacency arenas (ArrayGraph): vid's run is base[start[vid] ..
     * start[vid] + len[vid]) in each direction, for vid < num_ids */
    const int32_t *out_nbr;
    const double *out_w;
    const int64_t *out_start;
    const int64_t *out_len;
    const int32_t *in_nbr;
    const double *in_w;
    const int64_t *in_start;
    const int64_t *in_len;
    int64_t num_ids;
    const double *vw;       /* vertex priors */
    /* sequence state */
    int32_t *order_buf;
    double *weights_buf;
    int64_t head;
    int64_t n;
    int64_t *pos_buf;
    uint8_t *touched;
    uint8_t *in_queue_mask;
    int64_t small_degree;
    /* scratch */
    Heap heap;              /* the queue T; its keys are the priorities */
    IslandBuf island;
    int32_t *queued_log;
    int64_t queued_len;
    int64_t queued_cap;
    double *wscratch;       /* degree-sized pw_sum scratch */
    int64_t wscratch_cap;
    /* stats */
    int64_t queued_vertices;
    int64_t moved_vertices;
    int64_t scanned_positions;
    int64_t edge_traversals;
    int64_t islands;
    /* loop coordinates */
    int64_t island_start;
    int32_t repeat_vid;     /* the id a -3 exit tried to queue twice */
} Reorder;

static inline int64_t degree_of(const Reorder *r, int32_t vid)
{
    if (vid >= r->num_ids)
        return 0;
    return r->out_len[vid] + r->in_len[vid];
}

static int queued_log_push(Reorder *r, int32_t vid)
{
    if (r->queued_len == r->queued_cap) {
        int64_t cap = r->queued_cap ? r->queued_cap * 2 : 64;
        int32_t *grown = (int32_t *)realloc(r->queued_log, (size_t)cap * sizeof(int32_t));
        if (!grown)
            return -1;
        r->queued_log = grown;
        r->queued_cap = cap;
    }
    r->queued_log[r->queued_len++] = vid;
    return 0;
}

static int wscratch_reserve(Reorder *r, int64_t need)
{
    if (need <= r->wscratch_cap)
        return 0;
    int64_t cap = r->wscratch_cap ? r->wscratch_cap : 64;
    while (cap < need)
        cap *= 2;
    double *grown = (double *)realloc(r->wscratch, (size_t)cap * sizeof(double));
    if (!grown)
        return -1;
    r->wscratch = grown;
    r->wscratch_cap = cap;
    return 0;
}

/* Recompute the true peeling weight of `vid` w.r.t. the remaining set,
 * graying its neighbourhood — the exact float association order of the
 * python recover_weight: scalar left-to-right for degree <= SMALL_DEGREE,
 * numpy pairwise over the (out ++ in) concatenated weights otherwise. */
static int recover_weight(Reorder *r, int32_t vid, double *out)
{
    double total = r->vw[vid];
    int64_t n_out = vid < r->num_ids ? r->out_len[vid] : 0;
    int64_t n_in = vid < r->num_ids ? r->in_len[vid] : 0;
    int64_t degree = n_out + n_in;
    if (degree) {
        int64_t threshold = r->head + r->island_start;
        const int32_t *onbr = r->out_nbr + r->out_start[vid];
        const double *ow = r->out_w + r->out_start[vid];
        const int32_t *inbr = r->in_nbr + r->in_start[vid];
        const double *iw = r->in_w + r->in_start[vid];
        if (degree <= r->small_degree) {
            double incident = 0.0;
            for (int64_t i = 0; i < n_out; i++)
                if (r->pos_buf[onbr[i]] >= threshold)
                    incident += ow[i];
            for (int64_t i = 0; i < n_in; i++)
                if (r->pos_buf[inbr[i]] >= threshold)
                    incident += iw[i];
            total += incident;
        } else {
            /* numpy path: edge_weights.sum() over the concatenated
             * neighbourhood when nothing is placed, the compacted
             * unplaced weights otherwise, nothing when all placed. */
            if (wscratch_reserve(r, degree))
                return -1;
            int64_t m = 0;
            int64_t placed = 0;
            for (int64_t i = 0; i < n_out; i++) {
                if (r->pos_buf[onbr[i]] < threshold)
                    placed++;
                else
                    r->wscratch[m++] = ow[i];
            }
            for (int64_t i = 0; i < n_in; i++) {
                if (r->pos_buf[inbr[i]] < threshold)
                    placed++;
                else
                    r->wscratch[m++] = iw[i];
            }
            if (placed == 0) {
                /* no neighbour placed: numpy sums the *full* weights
                 * array — same elements, same order as the scratch. */
                total += pw_sum(r->wscratch, m);
            } else if (placed < degree) {
                total += pw_sum(r->wscratch, m);
            }
        }
        for (int64_t i = 0; i < n_out; i++)
            r->touched[onbr[i]] = 1;
        for (int64_t i = 0; i < n_in; i++)
            r->touched[inbr[i]] = 1;
    }
    r->edge_traversals += 2 * degree;
    *out = total;
    return 0;
}

/* Returns -3 if vid is queued already: it would hold two heap slots. */
static int push_to_queue(Reorder *r, int32_t vid)
{
    if (r->in_queue_mask[vid]) {
        r->repeat_vid = vid;
        return -3;
    }
    double weight;
    if (recover_weight(r, vid, &weight))
        return -1;
    if (queued_log_push(r, vid))
        return -1;
    if (heap_push(&r->heap, weight, vid))
        return -1;
    r->in_queue_mask[vid] = 1;
    r->queued_vertices++;
    return 0;
}

/* Case 1: place the head of T (the heap root). */
static int place_from_queue(Reorder *r, double weight, int32_t vid)
{
    heap_pop(&r->heap);
    r->in_queue_mask[vid] = 0;
    if (island_reserve(&r->island, r->island.len + 1))
        return -1;
    r->island.ids[r->island.len] = vid;
    r->island.ws[r->island.len] = weight;
    r->island.len++;
    r->pos_buf[vid] = r->head - 1; /* emitted sentinel */
    if (r->heap.len == 0)
        return 0; /* nothing pending: skip the traversal */
    int64_t n_out = vid < r->num_ids ? r->out_len[vid] : 0;
    int64_t n_in = vid < r->num_ids ? r->in_len[vid] : 0;
    r->edge_traversals += n_out + n_in;
    if (n_out + n_in == 0)
        return 0;
    /* Both python branches (scalar and masked-vector) reduce to one
     * scalar subtract + decrease-key per pending neighbour, in run order. */
    const int32_t *onbr = r->out_nbr + r->out_start[vid];
    const double *ow = r->out_w + r->out_start[vid];
    const int32_t *inbr = r->in_nbr + r->in_start[vid];
    const double *iw = r->in_w + r->in_start[vid];
    for (int64_t i = 0; i < n_out; i++) {
        int32_t nbr = onbr[i];
        if (r->in_queue_mask[nbr])
            heap_update(&r->heap, nbr, r->heap.data[r->heap.slot[nbr]].w - ow[i]);
    }
    for (int64_t i = 0; i < n_in; i++) {
        int32_t nbr = inbr[i];
        if (r->in_queue_mask[nbr])
            heap_update(&r->heap, nbr, r->heap.data[r->heap.slot[nbr]].w - iw[i]);
    }
    return 0;
}

/* Case 2(b): re-emit the run of white vertices starting at k; returns the
 * stop position.  Scalar scan — the chunked numpy version on the python
 * side is a vectorisation of exactly this predicate. */
static int emit_white_run(Reorder *r, int64_t *k_io, double head_weight, int32_t head_vid)
{
    int64_t k = *k_io;
    while (k < r->n) {
        int32_t vid = r->order_buf[r->head + k];
        if (r->touched[vid])
            break;
        double w = r->weights_buf[r->head + k];
        if (head_weight < w || (head_weight == w && head_vid < vid))
            break;
        if (island_reserve(&r->island, r->island.len + 1))
            return -1;
        r->island.ids[r->island.len] = vid;
        r->island.ws[r->island.len] = w;
        r->island.len++;
        r->pos_buf[vid] = r->head - 1;
        r->scanned_positions++;
        k++;
    }
    *k_io = k;
    return 0;
}

/* Write the rebuilt island back into [island_start, end). Returns -2 on
 * span mismatch (internal invariant violation; the wrapper raises). */
static int flush_island(Reorder *r, int64_t end)
{
    if (r->island.len == 0)
        return 0;
    if (r->island.len != end - r->island_start)
        return -2;
    int64_t a = r->head + r->island_start;
    int64_t moved = 0;
    for (int64_t i = 0; i < r->island.len; i++) {
        if (r->order_buf[a + i] != r->island.ids[i] ||
            r->weights_buf[a + i] != r->island.ws[i])
            moved++;
        r->order_buf[a + i] = r->island.ids[i];
        r->weights_buf[a + i] = r->island.ws[i];
        r->pos_buf[r->island.ids[i]] = a + i;
    }
    r->moved_vertices += moved;
    r->island.len = 0;
    return 0;
}

/* The full reorder pass.  stats_out: [queued, moved, scanned,
 * edge_traversals, islands, island_len, island_start, repeat_vid].
 * Returns 0 on success, -1 on allocation failure, -2 on island-accounting
 * violation (detail in island_len / island_start), -3 when an id already
 * queued is queued again (detail in repeat_vid).  num_slots bounds the
 * ids the queue can hold (len(pos_buf): every sequence id indexes it).
 * The touched / in_queue masks are reset (exactly the entries this pass
 * set) on every exit path, mirroring the python finally block. */
EXPORT int64_t repro_reorder(
    const int32_t *out_nbr,
    const double *out_w,
    const int64_t *out_start,
    const int64_t *out_len,
    const int32_t *in_nbr,
    const double *in_w,
    const int64_t *in_start,
    const int64_t *in_len,
    int64_t num_ids,
    const double *vw,
    int32_t *order_buf,
    double *weights_buf,
    int64_t head,
    int64_t n,
    int64_t *pos_buf,
    int64_t num_slots,
    uint8_t *touched,
    uint8_t *in_queue_mask,
    const int32_t *seed_ids,
    int64_t num_seeds,
    const int64_t *seed_positions,
    int64_t num_seed_positions,
    int64_t small_degree,
    int64_t *stats_out)
{
    Reorder r;
    memset(&r, 0, sizeof(r));
    r.out_nbr = out_nbr;
    r.out_w = out_w;
    r.out_start = out_start;
    r.out_len = out_len;
    r.in_nbr = in_nbr;
    r.in_w = in_w;
    r.in_start = in_start;
    r.in_len = in_len;
    r.num_ids = num_ids;
    r.vw = vw;
    r.order_buf = order_buf;
    r.weights_buf = weights_buf;
    r.head = head;
    r.n = n;
    r.pos_buf = pos_buf;
    r.touched = touched;
    r.in_queue_mask = in_queue_mask;
    r.small_degree = small_degree;
    r.heap.slot = (int32_t *)malloc((size_t)num_slots * sizeof(int32_t));

    for (int64_t i = 0; i < num_seeds; i++)
        touched[seed_ids[i]] = 1;

    int64_t rc = r.heap.slot ? 0 : -1;
    int64_t seed_cursor = 0;
    r.island_start = seed_positions[0];
    int64_t k = r.island_start;

    while (rc == 0) {
        if (r.heap.len == 0) {
            rc = flush_island(&r, k);
            if (rc)
                break;
            while (seed_cursor < num_seed_positions && seed_positions[seed_cursor] < k)
                seed_cursor++;
            if (seed_cursor >= num_seed_positions)
                break;
            r.island_start = k = seed_positions[seed_cursor];
            seed_cursor++;
            r.islands++;
            r.scanned_positions++;
            if ((rc = push_to_queue(&r, order_buf[head + k])))
                break;
            k++;
            continue;
        }
        double head_weight = r.heap.data[0].w;
        int32_t head_vid = r.heap.data[0].v;
        if (k >= n) {
            if ((rc = place_from_queue(&r, head_weight, head_vid)))
                break;
            continue;
        }
        if ((rc = emit_white_run(&r, &k, head_weight, head_vid)))
            break;
        if (k >= n)
            continue;
        int32_t sequence_vid = order_buf[head + k];
        double sequence_weight = weights_buf[head + k];
        r.scanned_positions++;
        if (head_weight < sequence_weight ||
            (head_weight == sequence_weight && head_vid < sequence_vid)) {
            if ((rc = place_from_queue(&r, head_weight, head_vid)))
                break;
            continue;
        }
        if ((rc = push_to_queue(&r, sequence_vid)))
            break;
        k++;
    }

    /* finally: reset exactly the entries this pass set. */
    for (int64_t i = 0; i < num_seeds; i++)
        touched[seed_ids[i]] = 0;
    for (int64_t i = 0; i < r.queued_len; i++) {
        int32_t vid = r.queued_log[i];
        touched[vid] = 0;
        in_queue_mask[vid] = 0;
        if (vid < num_ids) {
            for (int64_t j = 0; j < out_len[vid]; j++)
                touched[out_nbr[out_start[vid] + j]] = 0;
            for (int64_t j = 0; j < in_len[vid]; j++)
                touched[in_nbr[in_start[vid] + j]] = 0;
        }
    }

    stats_out[0] = r.queued_vertices;
    stats_out[1] = r.moved_vertices;
    stats_out[2] = r.scanned_positions;
    stats_out[3] = r.edge_traversals;
    stats_out[4] = r.islands;
    stats_out[5] = r.island.len;
    stats_out[6] = r.island_start;
    stats_out[7] = r.repeat_vid;

    free(r.heap.data);
    free(r.heap.slot);
    free(r.island.ids);
    free(r.island.ws);
    free(r.queued_log);
    free(r.wscratch);
    return rc;
}
