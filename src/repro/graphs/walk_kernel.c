/* Native batched kernel for topology-constrained parallel random walks.
 *
 * Advances an (R, n) ensemble of independent walk replicas over one shared
 * CSR topology for a given number of rounds entirely in C.  Per round and
 * per active replica, either every non-empty node forwards one token to a
 * uniformly random neighbor (constrained mode — the paper's process on a
 * general graph) or every token moves independently (unconstrained mode).
 * Window metrics (max load, min empty-node count, first legitimate round)
 * and the per-replica early stop on legitimacy are maintained in-kernel so
 * a whole `run()` costs a single FFI call.
 *
 * Layout and parallelism: the loop is replica-major and replicas are
 * fanned out across threads by repro_for_each_replica()
 * (core/_kernel_common.h).  The arrivals and source-compaction buffers are
 * per-thread slices of (n_threads, n) arrays handed in by the caller, so
 * workers never share mutable state; a replica's trajectory depends only
 * on its own xoshiro256++ stream, making results bit-identical for every
 * thread count.
 *
 * Fused observation: when n_obs > 0 the kernel records, at every stride
 * boundary ((t+1) % observe_every == 0) and at the window end, the
 * post-round max load and empty-node count into (n_obs, R) output buffers,
 * plus the load sum and sum of squares and the per-replica load histogram
 * when those buffers are non-NULL, through the shared recorder of
 * core/_kernel_common.h, exactly as rbb_kernel.c does.
 *
 * Randomness: each replica owns an independent xoshiro256++ stream whose
 * 4-word state is seeded by the caller (from a numpy SeedSequence), exactly
 * like rbb_kernel.c.  Neighbor picks use Lemire's unbiased bounded-integer
 * reduction with per-node rejection thresholds precomputed by the caller;
 * two 32-bit lanes are taken from each 64-bit draw, and the lane buffer is
 * reset at every round boundary so segmented runs (observation strides)
 * follow the exact same trajectory as whole-window runs.
 *
 * Compiled on demand by repro.core.native via the system C compiler; the
 * pure-numpy kernel in repro.graphs.batched is the semantic reference.
 */

#include "_kernel_common.h"

typedef struct {
    int32_t *loads;
    int64_t n;
    const int32_t *neighbors;
    const int64_t *offsets;
    const int32_t *degrees;
    const uint32_t *lims;
    int64_t rounds;
    uint64_t *rng_state;
    int32_t thr;
    int stop_when_legitimate;
    int constrained;
    int32_t *max_seen;
    int32_t *min_empty_seen;
    int64_t *first_legit;
    int64_t *rounds_done;
    uint8_t *active;
    int32_t *scratch; /* (n_threads, n) arrivals, all-zero rows */
    int32_t *sources; /* (n_threads, n) non-empty-node compaction */
    repro_obs_t obs;
} walks_ctx;

static void walks_replica(void *vctx, int64_t r, int tid)
{
    walks_ctx *c = (walks_ctx *)vctx;
    const int64_t n = c->n;
    const int32_t thr = c->thr;
    int32_t *row = c->loads + r * n;
    int32_t *scratch = c->scratch + (int64_t)tid * n;
    int32_t *sources = c->sources + (int64_t)tid * n;
    rng_t *g = (rng_t *)(c->rng_state + 4 * r);
    int64_t k = 0; /* next fused observation slot */

    for (int64_t t = 0; t < c->rounds; t++) {
        if (!c->active[r])
            break;
        lanes_t L = {g, 0, 0};

        if (c->constrained) {
            /* departures: one token per non-empty node.  A SIMD-
             * friendly count first, then the path that fits the
             * density: for sparse rows a guarded loop's branch is
             * almost always not-taken (predicts perfectly); for dense
             * rows a branchless compaction (conditional write-cursor
             * increment) avoids mispredicting the random nonempty
             * pattern, and the draw loop touches only the cnt
             * non-empty nodes. */
            int64_t cnt = 0;
            for (int64_t i = 0; i < n; i++)
                cnt += (row[i] > 0);
            if (cnt * 8 < n) { /* sparse */
                for (int64_t i = 0; i < n; i++) {
                    if (row[i] > 0) {
                        row[i]--;
                        const uint32_t d = (uint32_t)c->degrees[i];
                        const int64_t off = c->offsets[i];
                        const int64_t j =
                            d == 1 ? 0 : (int64_t)bounded(&L, d, c->lims[i]);
                        scratch[c->neighbors[off + j]]++;
                    }
                }
            } else { /* dense */
                int64_t w = 0;
                for (int64_t i = 0; i < n; i++) {
                    const int32_t ne = row[i] > 0;
                    sources[w] = (int32_t)i;
                    w += ne;
                    row[i] -= ne;
                }
                for (int64_t s = 0; s < cnt; s++) {
                    const int64_t i = sources[s];
                    const uint32_t d = (uint32_t)c->degrees[i];
                    const int64_t off = c->offsets[i];
                    const int64_t j =
                        d == 1 ? 0 : (int64_t)bounded(&L, d, c->lims[i]);
                    scratch[c->neighbors[off + j]]++;
                }
            }
        } else {
            /* every token moves independently */
            for (int64_t i = 0; i < n; i++) {
                const int32_t l = row[i];
                if (l > 0) {
                    row[i] = 0;
                    const uint32_t d = (uint32_t)c->degrees[i];
                    const int64_t off = c->offsets[i];
                    const uint32_t lim = c->lims[i];
                    for (int32_t b = 0; b < l; b++) {
                        const int64_t j =
                            d == 1 ? 0 : (int64_t)bounded(&L, d, lim);
                        scratch[c->neighbors[off + j]]++;
                    }
                }
            }
        }

        /* arrivals + metrics of the new configuration */
        int32_t mx = 0;
        int64_t empty = 0;
        for (int64_t i = 0; i < n; i++) {
            const int32_t l = row[i] + scratch[i];
            row[i] = l;
            scratch[i] = 0;
            if (l > mx)
                mx = l;
            empty += (l == 0);
        }
        c->rounds_done[r]++;
        if (mx > c->max_seen[r])
            c->max_seen[r] = mx;
        if ((int32_t)empty < c->min_empty_seen[r])
            c->min_empty_seen[r] = (int32_t)empty;
        if (c->first_legit[r] < 0 && mx <= thr) {
            c->first_legit[r] = c->rounds_done[r];
            if (c->stop_when_legitimate)
                c->active[r] = 0;
        }
        if (repro_obs_due(&c->obs, t, c->rounds))
            repro_obs_record(&c->obs, r, k++, row, n, mx, empty,
                             (const int32_t *)0, 0);
    }
    repro_obs_finish(&c->obs, r, k, row, n);
}

/* Advance the walk ensemble.
 *
 * loads          (R, n) int32, C-contiguous, mutated in place
 * neighbors      (E,)  int32 CSR flat adjacency (shared by all replicas)
 * offsets        (n+1,) int64 CSR row offsets
 * degrees        (n,)  int32 per-node degree (offsets[i+1] - offsets[i])
 * lims           (n,)  uint32 Lemire rejection thresholds (2^32 - d) % d
 * rng_state      (R, 4) uint64 xoshiro256++ states, mutated in place
 * threshold      legitimacy threshold beta * log(n)
 * constrained    1: one token per non-empty node per round; 0: every token
 * max_seen       (R,) int32 running window maximum, updated in place
 * min_empty_seen (R,) int32 running window minimum of the empty-node count
 * first_legit    (R,) int64, -1 until the replica first becomes legitimate
 * rounds_done    (R,) int64 global per-replica round counters
 * active         (R,) uint8, replicas with 0 are frozen and skipped
 * scratch        (n_threads, n) int32 arrivals buffers, all-zero on entry
 *                and on exit
 * sources        (n_threads, n) int32 scratch for non-empty-node lists
 * n_threads      worker threads for the replica axis (<= 1: serial)
 * observe_every  fused observation stride (ignored when n_obs == 0)
 * n_obs          number of fused observation slots; 0 disables observation
 * obs_max        (n_obs, R) int32 post-round max load per slot, or NULL
 * obs_empty      (n_obs, R) int32 empty-node count per slot, or NULL
 * obs_sum        (n_obs, R) int64 load sum per slot, or NULL to skip moments
 * obs_sumsq      (n_obs, R) int64 load sum-of-squares per slot, or NULL
 * hist_k         load histogram cap: loads above it share bucket hist_k
 * obs_hist       (R, hist_k + 1) int64 node-load counts over every
 *                observation point, added to in place, or NULL to skip
 * obs_overflow   (R,) int64 count of observed loads above hist_k, added to
 *                in place, or NULL
 */
REPRO_ABI void walks_run(int32_t *loads, int64_t R, int64_t n, const int32_t *neighbors,
               const int64_t *offsets, const int32_t *degrees,
               const uint32_t *lims, int64_t rounds, uint64_t *rng_state,
               double threshold, int stop_when_legitimate, int constrained,
               int32_t *max_seen, int32_t *min_empty_seen,
               int64_t *first_legit, int64_t *rounds_done, uint8_t *active,
               int32_t *scratch, int32_t *sources, int32_t n_threads,
               int64_t observe_every, int64_t n_obs, int32_t *obs_max,
               int32_t *obs_empty, int64_t *obs_sum, int64_t *obs_sumsq,
               int64_t hist_k, int64_t *obs_hist, int64_t *obs_overflow)
{
    walks_ctx c;
    c.loads = loads;
    c.n = n;
    c.neighbors = neighbors;
    c.offsets = offsets;
    c.degrees = degrees;
    c.lims = lims;
    c.rounds = rounds;
    c.rng_state = rng_state;
    c.thr = (int32_t)threshold;
    c.stop_when_legitimate = stop_when_legitimate;
    c.constrained = constrained;
    c.max_seen = max_seen;
    c.min_empty_seen = min_empty_seen;
    c.first_legit = first_legit;
    c.rounds_done = rounds_done;
    c.active = active;
    c.scratch = scratch;
    c.sources = sources;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_k, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, walks_replica, R, n_threads);
}
