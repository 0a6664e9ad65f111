/* Native batched kernel for the repeated balls-into-bins process.
 *
 * Advances an (R, n) ensemble of independent replicas for a given number of
 * rounds entirely in C: per round and per active replica, one ball leaves
 * every non-empty bin and lands in a bin chosen uniformly at random inside
 * the same replica.  Window metrics (max load, min empty-bin count, first
 * legitimate round) and the per-replica early stop on legitimacy are
 * maintained in-kernel so a whole `run()` costs a single FFI call.
 *
 * Layout and parallelism: the work unit is a group of 4 consecutive
 * replicas that step through their rounds together ("lockstep"), or a
 * single replica.  A unit runs all its rounds to completion before the
 * next starts, so its working set is its rows (4·n bytes each), which stay
 * cache-resident instead of an R·n sweep per round.  repro_for_each_replica()
 * (_kernel_common.h) hands the units out to threads dynamically: the
 * floor(R / 4) groups first, then the R mod 4 tail replicas one by one
 * (all R replicas one by one where groups do not run, see below).
 * A replica's trajectory depends only on its own xoshiro256++ state,
 * whichever unit, group or thread runs it, so results are bit-identical
 * for every thread count and either way of running a replica.
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
 * A group's round runs pass 1 for every member, then draws the first
 * W = min over the members of ceil(cnt / 2) words of every member's round
 * at once: one xoshiro256++ step on the four states held side by side in
 * a 4 x 64-bit vector gives one word per member.  Each member maps and
 * scatters its lanes as above, finishes its arrivals alone through the
 * same block loop, and runs pass 3 and the bookkeeping alone.  A group
 * runs in lockstep only while all four members are active; from the first
 * round in which one is frozen or stopped early, every member goes on
 * alone.
 *
 * The xoshiro state lives in a local copy for the whole call, so the draw
 * loop keeps it in registers; it is written back once, at the end.
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
 * word, the very lane the lane-by-lane loop discards.  The lockstep draw
 * keeps this: W is at most every member's ceil(cnt / 2), the words that
 * member's round consumes anyway, so no member draws ahead of its round,
 * and a member's lockstep blocks end in a surplus lane only if W equals
 * its ceil(cnt / 2) and cnt is odd, on the last word.  Every round
 * therefore consumes exactly the words, and places exactly the balls, of
 * the lane-by-lane definition.  baselines/greedy_kernel.c still consumes the
 * stream lane by lane, and at d = 1 it reproduces this kernel's
 * trajectories, which the tests check.
 *
 * When groups run.  Two rules keep the lockstep path where it pays; the
 * figures are single-thread bin-updates/s against the replica-by-replica
 * kernel on a 2-vCPU Xeon VM with AVX-512, gcc 12.
 *
 *   Rule 1, build time: the group path is compiled only where the
 *   target's vectors hold four 64-bit lanes (__BIGGEST_ALIGNMENT__ >= 32:
 *   16 on the plain -O3 rung and under TSan, 32 with AVX2, 64 with
 *   AVX-512), on little-endian targets, whose lane order the 64-bit lane
 *   stores follow.  It uses GCC/Clang generic vectors, no intrinsics, and
 *   no function takes or returns a vector by value.  Forced onto the
 *   plain -O3 rung it ran 0.88-1.3x as fast (n = 16 slowest); with
 *   -march=haswell (AVX2) 1.08-1.20x; with -march=native (AVX-512)
 *   1.3x on the converge_fused shape (n = 1024, R = 256, all-in-one
 *   start) and 1.4x on balanced rounds at n = 1024.
 *   rbb_lockstep_width() reports 4 where the path is compiled in, else 1.
 *
 *   Rule 2, run time: a group runs in lockstep only while its 4 rows fit
 *   in 1 MiB, n <= RBB_GROUP_MAX_N = 65536; above it every replica runs
 *   alone.  Without the budget (R = 4, balanced), lockstep ran 1.22x as
 *   fast at n = 2^16 and 1.13x at 2^17, but 0.91x at 2^18, 0.78x at 2^19
 *   and 0.61x at 2^20, where the rows leave L2 and the TLB's reach.
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

#include <string.h>

/* Destinations per arrival block.  A replica's lane and destination
 * buffers take 2 * 4 * RBB_BLOCK bytes (4 KB) of stack per thread, and a
 * group's another 5 * 4 * RBB_BLOCK bytes (10 KB). */
#define RBB_BLOCK 512

/* Replicas per lockstep group: 4 where the target's vectors hold four
 * 64-bit lanes, else 1 (no group path).  See the header comment. */
#if __BIGGEST_ALIGNMENT__ >= 32 && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define RBB_LOCKSTEP 4
#else
#define RBB_LOCKSTEP 1
#endif

/* Largest n at which a group runs in lockstep: its 4 rows fit in 1 MiB. */
#define RBB_GROUP_MAX_N 65536

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
    uint32_t lim;   /* Lemire rejection threshold for n */
    int64_t groups; /* lockstep groups, replicas [0, 4 * groups) */
    repro_obs_t obs;
} rbb_ctx;

/* One replica's state within a call. */
typedef struct {
    int64_t r;
    int32_t *row;
    rng_t g;       /* a local copy of its xoshiro state */
    int32_t empty; /* empty bins after the previous round */
    int64_t k;     /* next fused observation slot */
} rbb_rep;

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

/* Throw the balls of one block's m lanes into row: its accepted lanes in
 * order, at most `need` of them (the rest is the high lane of the round's
 * last word).  Returns the number placed. */
static inline int64_t rbb_place(int32_t *row, const uint32_t *lane,
                                uint32_t *dst, int64_t m, int64_t need,
                                uint32_t un, uint32_t lim)
{
    int64_t got = m;
    if (rbb_map(lane, dst, m, un, lim))
        got = rbb_accepted(lane, dst, m, un, lim);
    if (got > need)
        got = need;
    for (int64_t i = 0; i < got; i++)
        row[dst[i]]++;
    return got;
}

/* 1. departures: every non-empty bin loses one ball; returns how many. */
static inline int64_t rbb_depart(rbb_rep *p, int64_t n)
{
    int32_t *row = p->row;
    for (int64_t i = 0; i < n; i++)
        row[i] -= row[i] > 0;
    return n - p->empty;
}

/* 2. arrivals: `need` more uniform throws, one block at a time. */
static void rbb_arrivals(rbb_rep *p, int64_t need, uint32_t un, uint32_t lim)
{
    uint32_t lane[RBB_BLOCK], dst[RBB_BLOCK];
    rng_t g = p->g; /* kept in registers by the draw loop */
    while (need > 0) {
        const int64_t words =
            need < RBB_BLOCK ? (need + 1) / 2 : RBB_BLOCK / 2;
        rbb_draw(&g, lane, words);
        need -= rbb_place(p->row, lane, dst, 2 * words, need, un, lim);
    }
    p->g = g;
}

/* 3. the end of round t: the post-round max and empty count, the window
 * metrics, the early stop and the fused recorder. */
static void rbb_end_round(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    const int64_t n = c->n;
    const int64_t r = p->r;
    const int32_t *row = p->row;
    int32_t mx = 0;
    int32_t empty = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t l = row[i];
        mx = l > mx ? l : mx;
        empty += l == 0;
    }
    p->empty = empty;

    c->rounds_done[r]++;
    if (mx > c->max_seen[r])
        c->max_seen[r] = mx;
    if (empty < c->min_empty_seen[r])
        c->min_empty_seen[r] = empty;
    if (c->first_legit[r] < 0 && mx <= c->thr) {
        c->first_legit[r] = c->rounds_done[r];
        if (c->stop_when_legitimate)
            c->active[r] = 0;
    }
    if (repro_obs_due(&c->obs, t, c->rounds))
        repro_obs_record(&c->obs, r, p->k++, row, n, mx, empty);
}

/* Load replica r's row, stream and empty count. */
static void rbb_start(const rbb_ctx *c, rbb_rep *p, int64_t r)
{
    const int64_t n = c->n;
    const uint64_t *state = c->rng_state + 4 * r;
    int32_t *row = c->loads + r * n;
    int32_t empty = 0;
    for (int64_t i = 0; i < n; i++)
        empty += row[i] == 0;
    p->r = r;
    p->row = row;
    for (int w = 0; w < 4; w++)
        p->g.s[w] = state[w];
    p->empty = empty;
    p->k = 0;
}

/* Run one replica's rounds [t, rounds) alone, then store its stream and
 * fill its remaining observation points. */
static void rbb_solo(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    const uint32_t un = (uint32_t)c->n;
    for (; t < c->rounds && c->active[p->r]; t++) {
        rbb_arrivals(p, rbb_depart(p, c->n), un, c->lim);
        rbb_end_round(c, p, t);
    }
    uint64_t *state = c->rng_state + 4 * p->r;
    for (int w = 0; w < 4; w++)
        state[w] = p->g.s[w];
    repro_obs_finish(&c->obs, p->r, p->k, p->row, c->n);
}

#if RBB_LOCKSTEP == 4
typedef uint64_t rbb_u64x4 __attribute__((vector_size(32)));

/* Draw `words` words from each member's stream, member m's into
 * lane[m][0, 2 * words) in rbb_draw()'s layout (a little-endian 64-bit
 * store puts the low lane first): one xoshiro256++ step of the four
 * states held side by side yields one word per member. */
static inline void rbb_draw4(rbb_rep *p, uint32_t lane[4][RBB_BLOCK],
                             int64_t words)
{
    rbb_u64x4 s0, s1, s2, s3;
    for (int m = 0; m < 4; m++) {
        s0[m] = p[m].g.s[0];
        s1[m] = p[m].g.s[1];
        s2[m] = p[m].g.s[2];
        s3[m] = p[m].g.s[3];
    }
    for (int64_t i = 0; i < words; i++) {
        const rbb_u64x4 sum = s0 + s3;
        const rbb_u64x4 w = ((sum << 23) | (sum >> 41)) + s0;
        const rbb_u64x4 t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);
        for (int m = 0; m < 4; m++) {
            const uint64_t wm = w[m];
            memcpy(&lane[m][2 * i], &wm, sizeof wm);
        }
    }
    for (int m = 0; m < 4; m++) {
        p[m].g.s[0] = s0[m];
        p[m].g.s[1] = s1[m];
        p[m].g.s[2] = s2[m];
        p[m].g.s[3] = s3[m];
    }
}

/* Run the group's rounds in lockstep while every member is active;
 * returns the first round it did not run. */
static int64_t rbb_lockstep(rbb_ctx *c, rbb_rep *p)
{
    const int64_t n = c->n;
    const uint32_t un = (uint32_t)n;
    const uint32_t lim = c->lim;
    uint32_t lane[4][RBB_BLOCK], dst[RBB_BLOCK];
    int64_t t = 0;
    for (; t < c->rounds; t++) {
        if (!(c->active[p[0].r] && c->active[p[1].r] && c->active[p[2].r] &&
              c->active[p[3].r]))
            break;
        int64_t need[4];
        int64_t W = n; /* words every member's round consumes anyway */
        for (int m = 0; m < 4; m++) {
            need[m] = rbb_depart(&p[m], n);
            if ((need[m] + 1) / 2 < W)
                W = (need[m] + 1) / 2;
        }
        for (int64_t w = 0; w < W;) {
            const int64_t words =
                W - w < RBB_BLOCK / 2 ? W - w : RBB_BLOCK / 2;
            rbb_draw4(p, lane, words);
            for (int m = 0; m < 4; m++)
                need[m] -= rbb_place(p[m].row, lane[m], dst, 2 * words,
                                     need[m], un, lim);
            w += words;
        }
        for (int m = 0; m < 4; m++) {
            rbb_arrivals(&p[m], need[m], un, lim);
            rbb_end_round(c, &p[m], t);
        }
    }
    return t;
}

/* Replicas [r0, r0 + 4): in lockstep while all are active, then alone. */
static void rbb_group(rbb_ctx *c, int64_t r0)
{
    rbb_rep p[4];
    for (int m = 0; m < 4; m++)
        rbb_start(c, &p[m], r0 + m);
    const int64_t t = rbb_lockstep(c, p);
    for (int m = 0; m < 4; m++)
        rbb_solo(c, &p[m], t);
}
#endif

/* Work unit u: group u while u < groups, then the tail replicas one by
 * one. */
static void rbb_unit(void *vctx, int64_t u, int tid)
{
    rbb_ctx *c = (rbb_ctx *)vctx;
    (void)tid;
#if RBB_LOCKSTEP == 4
    if (u < c->groups) {
        rbb_group(c, 4 * u);
        return;
    }
#endif
    rbb_rep p;
    rbb_start(c, &p, 4 * c->groups + (u - c->groups));
    rbb_solo(c, &p, 0);
}

/* The replicas a group of this build holds: 4 when the lockstep path is
 * compiled in, else 1. */
REPRO_ABI int rbb_lockstep_width(void)
{
    return RBB_LOCKSTEP;
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
    c.groups = RBB_LOCKSTEP == 4 && n <= RBB_GROUP_MAX_N ? R / 4 : 0;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_k, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, rbb_unit, R - 3 * c.groups, n_threads);
}
