/* Native batched kernel for the repeated balls-into-bins process.
 *
 * Advances an (R, n) ensemble of independent replicas for a given number of
 * rounds entirely in C: per round and per active replica, one ball leaves
 * every non-empty bin and lands in a bin chosen uniformly at random inside
 * the same replica.  Window metrics (max load, min empty-bin count, first
 * legitimate round) and the per-replica early stop on legitimacy are
 * maintained in-kernel so a whole `run()` costs a single FFI call.
 *
 * Layout and parallelism: the loop is replica-major — each replica runs all
 * its rounds to completion before the next starts — so the working set per
 * task is one 4·n-byte row that stays cache-resident instead of an R·n
 * sweep per round.  Replicas are fanned out across threads by
 * repro_for_each_replica() (_kernel_common.h); a replica's trajectory
 * depends only on its own xoshiro256++ state, so results are bit-identical
 * for every thread count.
 *
 * Round structure: a round is three passes over the row.  The first and
 * the last are plain loops the compiler vectorizes.
 *
 *   1. departures, row[i] -= row[i] > 0.  The number of balls that leave,
 *      cnt, is n minus the empty count of the previous round's pass 3 (one
 *      count pass at entry seeds the first round), so this pass reduces
 *      nothing.
 *   2. arrivals, in blocks of at most RBB_BLOCK destinations held on the
 *      stack: draw whole xoshiro words into a lane buffer, map both 32-bit
 *      lanes of every word through Lemire's reduction in a separate loop
 *      that also flags any rejected lane, recompact the block's accepted
 *      lanes in order if one was flagged (a lane is rejected with
 *      probability below n / 2^32), drop the round's one possible surplus
 *      lane, and scatter row[dst]++.
 *   3. the post-round max and empty count, one int32 pass.  They feed the
 *      window metrics, the early stop and the fused recorder.
 *
 * The xoshiro state lives in a local for the whole call, so the draw loop
 * keeps it in registers; it is written back once, at the end.
 *
 * Never over-drawing: the stream is defined lane by lane.  A round takes
 * lanes in order, low lane of a word first, skips rejected ones, and ends at
 * its cnt-th accepted lane; if that is a low lane, the high lane of the
 * same word is discarded, and the next round starts on a fresh word.  A
 * block that still needs `need` destinations draws at most ceil(need / 2)
 * words, which the lane-by-lane loop would have to draw anyway, since a
 * word yields at most two accepted lanes.  So a block yields at most
 * need + 1 accepted lanes, and need + 1 only when need is odd and none of
 * its lanes was rejected; the surplus is then the high lane of its last
 * word, the very lane the lane-by-lane loop discards.  Every round
 * therefore consumes exactly the words, and places exactly the balls, of
 * the lane-by-lane definition.  baselines/greedy_kernel.c still consumes the
 * stream lane by lane, and at d = 1 it reproduces this kernel's
 * trajectories, which the tests check.
 *
 * Fused observation: when n_obs > 0 the kernel records, at every stride
 * boundary ((t+1) % observe_every == 0) and at the window end, the
 * post-round max load and empty-bin count into (n_obs, R) output buffers,
 * plus the load sum and sum of squares when the moment buffers are
 * non-NULL, and adds each observed configuration to a per-replica load
 * histogram when the histogram buffers are non-NULL.  The recorder is
 * repro_obs_record() in _kernel_common.h, shared by every kernel.  All
 * outputs are integers, so the Python trackers that ingest them reproduce
 * the segmented observation loop bit-for-bit.
 *
 * Randomness: each replica owns an independent xoshiro256++ stream whose
 * 4-word state is seeded by the caller (from a numpy SeedSequence).  A
 * replica's trajectory therefore depends only on its own seed words, not on
 * how many replicas share the batch.  Destinations are drawn with Lemire's
 * unbiased bounded-integer reduction, two 32-bit lanes per 64-bit output.
 *
 * Compiled on demand by repro.core.native via the system C compiler; the
 * pure-numpy kernel in repro.core.batched is the semantic reference.
 */

#include "_kernel_common.h"

/* Destinations per arrival block.  The lane and destination buffers take
 * 2 * 4 * RBB_BLOCK bytes (4 KB) of stack per thread. */
#define RBB_BLOCK 512

typedef struct {
    int32_t *loads;
    int64_t n;
    int64_t rounds;
    uint64_t *rng_state;
    int32_t thr;
    int stop_when_legitimate;
    int32_t *max_seen;
    int32_t *min_empty_seen;
    int64_t *first_legit;
    int64_t *rounds_done;
    uint8_t *active;
    uint32_t lim; /* Lemire rejection threshold for n */
    repro_obs_t obs;
} rbb_ctx;

/* Draw `words` words into lane[0, 2 * words), low lane first. */
static inline void rbb_draw(rng_t *g, uint32_t *lane, int64_t words)
{
    for (int64_t i = 0; i < words; i++) {
        const uint64_t w = next64(g);
        lane[2 * i] = (uint32_t)w;
        lane[2 * i + 1] = (uint32_t)(w >> 32);
    }
}

/* Map lanes [0, m) to bins by Lemire's reduction; nonzero iff any lane is
 * rejected (its destination would be biased, so the block recompacts). */
static inline uint32_t rbb_map(const uint32_t *lane, uint32_t *dst, int64_t m,
                               uint32_t un, uint32_t lim)
{
    uint32_t rejected = 0;
    for (int64_t i = 0; i < m; i++) {
        const uint64_t p = (uint64_t)lane[i] * un;
        dst[i] = (uint32_t)(p >> 32);
        rejected |= (uint32_t)p < lim;
    }
    return rejected;
}

/* The destinations of the accepted lanes among [0, m), in lane order, at
 * the front of dst; returns their count. */
static int64_t rbb_accepted(const uint32_t *lane, uint32_t *dst, int64_t m,
                            uint32_t un, uint32_t lim)
{
    int64_t a = 0;
    for (int64_t i = 0; i < m; i++) {
        const uint64_t p = (uint64_t)lane[i] * un;
        dst[a] = (uint32_t)(p >> 32);
        a += (uint32_t)p >= lim;
    }
    return a;
}

static void rbb_replica(void *vctx, int64_t r, int tid)
{
    rbb_ctx *c = (rbb_ctx *)vctx;
    const int64_t n = c->n;
    const uint32_t un = (uint32_t)n;
    const uint32_t lim = c->lim;
    const int32_t thr = c->thr;
    int32_t *row = c->loads + r * n;
    uint64_t *state = c->rng_state + 4 * r;
    rng_t g = {{state[0], state[1], state[2], state[3]}};
    uint32_t lane[RBB_BLOCK], dst[RBB_BLOCK];
    int64_t k = 0; /* next fused observation slot */
    (void)tid;

    int32_t empty = 0; /* empty bins after the previous round */
    for (int64_t i = 0; i < n; i++)
        empty += row[i] == 0;

    for (int64_t t = 0; t < c->rounds; t++) {
        if (!c->active[r])
            break;

        /* 1. departures: every non-empty bin loses one ball */
        const int64_t cnt = n - empty;
        for (int64_t i = 0; i < n; i++)
            row[i] -= row[i] > 0;

        /* 2. arrivals: cnt uniform throws, one block at a time */
        for (int64_t j = 0; j < cnt;) {
            const int64_t need = cnt - j;
            const int64_t words =
                need < RBB_BLOCK ? (need + 1) / 2 : RBB_BLOCK / 2;
            rbb_draw(&g, lane, words);
            int64_t got = 2 * words;
            if (rbb_map(lane, dst, got, un, lim))
                got = rbb_accepted(lane, dst, got, un, lim);
            if (got > need)
                got = need; /* the high lane of the round's last word */
            for (int64_t i = 0; i < got; i++)
                row[dst[i]]++;
            j += got;
        }

        /* 3. the post-round max and empty count */
        int32_t mx = 0;
        empty = 0;
        for (int64_t i = 0; i < n; i++) {
            const int32_t l = row[i];
            mx = l > mx ? l : mx;
            empty += l == 0;
        }

        c->rounds_done[r]++;
        if (mx > c->max_seen[r])
            c->max_seen[r] = mx;
        if (empty < c->min_empty_seen[r])
            c->min_empty_seen[r] = empty;
        if (c->first_legit[r] < 0 && mx <= thr) {
            c->first_legit[r] = c->rounds_done[r];
            if (c->stop_when_legitimate)
                c->active[r] = 0;
        }
        if (repro_obs_due(&c->obs, t, c->rounds))
            repro_obs_record(&c->obs, r, k++, row, n, mx, empty);
    }
    for (int w = 0; w < 4; w++)
        state[w] = g.s[w];
    repro_obs_finish(&c->obs, r, k, row, n);
}

/* Advance the ensemble.
 *
 * loads          (R, n) int32, C-contiguous, mutated in place
 * rng_state      (R, 4) uint64 xoshiro256++ states, mutated in place
 * threshold      legitimacy threshold beta * log(n) (loads are integers, so
 *                comparing against floor(threshold) is exact)
 * max_seen       (R,) int32 running window maximum, updated in place
 * min_empty_seen (R,) int32 running window minimum of the empty-bin count
 * first_legit    (R,) int64, -1 until the replica first becomes legitimate,
 *                then the (1-based, global) round index
 * rounds_done    (R,) int64 global per-replica round counters
 * active         (R,) uint8, replicas with 0 are frozen and skipped;
 *                cleared in-kernel when stop_when_legitimate is set
 * n_threads      worker threads for the replica axis (<= 1: serial)
 * observe_every  fused observation stride (ignored when n_obs == 0)
 * n_obs          number of fused observation slots; 0 disables observation
 * obs_max        (n_obs, R) int32 post-round max load per slot, or NULL
 * obs_empty      (n_obs, R) int32 empty-bin count per slot, or NULL
 * obs_sum        (n_obs, R) int64 load sum per slot, or NULL to skip moments
 * obs_sumsq      (n_obs, R) int64 load sum-of-squares per slot, or NULL
 * hist_k         load histogram cap: loads above it share bucket hist_k
 * obs_hist       (R, hist_k + 1) int64 load counts over every observation
 *                point, added to in place, or NULL to skip the histogram
 * obs_overflow   (R,) int64 count of observed loads above hist_k, added to
 *                in place, or NULL
 */
REPRO_ABI void rbb_run(int32_t *loads, int64_t R, int64_t n, int64_t rounds,
             uint64_t *rng_state, double threshold, int stop_when_legitimate,
             int32_t *max_seen, int32_t *min_empty_seen, int64_t *first_legit,
             int64_t *rounds_done, uint8_t *active, int32_t n_threads,
             int64_t observe_every, int64_t n_obs, int32_t *obs_max,
             int32_t *obs_empty, int64_t *obs_sum, int64_t *obs_sumsq,
             int64_t hist_k, int64_t *obs_hist, int64_t *obs_overflow)
{
    const uint32_t un = (uint32_t)n;
    rbb_ctx c;
    c.loads = loads;
    c.n = n;
    c.rounds = rounds;
    c.rng_state = rng_state;
    c.thr = (int32_t)threshold;
    c.stop_when_legitimate = stop_when_legitimate;
    c.max_seen = max_seen;
    c.min_empty_seen = min_empty_seen;
    c.first_legit = first_legit;
    c.rounds_done = rounds_done;
    c.active = active;
    c.lim = (uint32_t)(-un) % un;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_k, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, rbb_replica, R, n_threads);
}
