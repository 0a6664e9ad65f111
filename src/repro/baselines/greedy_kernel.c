/* Native batched kernel for the repeated Greedy[d] process.
 *
 * Advances an (R, n) ensemble of independent replicas for a given number of
 * rounds entirely in C: per round and per active replica, one ball leaves
 * every non-empty bin, and the departed balls are then placed one after
 * another, each into the least loaded of d uniform candidate bins of the
 * same replica.  Candidates are compared against the *current* loads (the
 * balls placed earlier in the round count), and ties go to the earliest
 * candidate — exactly DChoicesProcess.step and the exact chain of
 * repro.markov.small_n.exact_greedy_d_transition_matrix.  Window metrics
 * (max load, min empty-bin count, first legitimate round) and the
 * per-replica early stop on legitimacy are maintained in-kernel so a whole
 * `run()` costs a single FFI call.
 *
 * Layout and parallelism follow rbb_kernel.c: the work unit is a group of
 * 4 consecutive replicas that step through their rounds together
 * ("lockstep"), or a single replica, and a unit runs all its rounds before
 * the next starts.  repro_for_each_replica() (core/_kernel_common.h) hands
 * out the floor(R / 4) groups first, then the R mod 4 tail replicas one by
 * one (all R one by one where groups do not run: d = 1, n > 65536, or a
 * build whose vectors are too narrow; see Lockstep groups in that header).
 * When n_obs > 0 the shared recorder of that header writes the post-round
 * max load and empty-bin count into (n_obs, R) buffers at every stride
 * boundary and at the window end, plus the load sum and sum of squares and
 * the per-replica load histogram when those buffers are non-NULL.
 *
 * A round has rbb_kernel.c's three steps, through the passes of
 * _kernel_common.h (Round passes there): the departure pass, whose ball
 * count cnt is n minus the empty count the previous round left; the cnt
 * placements, which keep no books; and one pass for the post-round max and
 * empty count, which feed the window metrics, the early stop and the fused
 * recorder.  One pass per round costs less than keeping the max and the
 * empty count up to date ball by ball: against that, it ran 1.06-1.34x at
 * m = n and 1.15-1.68x at m << n (one thread on the 2-vCPU Xeon VM below,
 * n = 16 to 65536, d = 2 to 4, medians of 9 alternating pairs, two grids).
 *
 * A replica alone draws its d * cnt candidates lane by lane and places
 * each ball into the first least-loaded candidate, which defines the
 * stream.  A group's round runs every member's departures, then draws
 * every member's d * cnt candidates together, one on-stack block at a time
 * (repro_draw4(), masked once a member's block is drawn).  Each member
 * reads its block's bins straight off the lanes at a power-of-two n
 * (repro_pow2_shift()) or maps them (repro_block_map()), places the balls
 * whose d candidates lie in the block, and carries a ball whose candidates
 * straddle two blocks over to the next.  A group runs a round in lockstep
 * only while all four members are active; a round in which one is frozen
 * or stopped early runs each active member alone.
 *
 * Placements that do not wait on their compares: a placement alone does
 * row[best] = min + 1, a store whose address depends on the compares of
 * the loads it follows, so the next ball's loads wait for them.  A block's
 * placements store every candidate's load back instead, last-drawn first,
 * with 1 added to the first least-loaded one's; a candidate drawn twice is
 * written last at its first draw, which is the one that can be best, so the
 * loads are the same.  Every store address is then known when the
 * candidates are drawn.  d = 2, 3 and 4 run as compile-time constants, any
 * larger d through a loop (a loop over d gave 0.97-1.08x at d = 3 and 4 in
 * a scratch build).  Neither half pays alone: at n = 1024, d = 2, lockstep
 * draws alone ran 1.03x and storing every candidate alone 1.05x as fast as
 * the lane-by-lane loop, and both together 1.48x.
 *
 * Where a ball often shares a candidate with the ball before it (with
 * probability about d^2 / n), its load waits for that ball's compares, for
 * any of the d stored candidates rather than only the best, and groups
 * gain nothing.  Alternating calls of both builds on one thread (2-vCPU
 * Xeon VM, AVX-512, gcc 12, balanced starts, medians of 15 pairs, group
 * path against the lane-by-lane loop): at d^2 / n = 1/2 and above the
 * groups ran 0.88x (n = 16, d = 4), 0.91x (n = 32, d = 4) and 0.95x
 * (n = 16, d = 3); at 1/4, 1.03x (n = 16, d = 2) and 1.05x (n = 36,
 * d = 3).  Groups run there anyway: such rows are tiny, and the exact-
 * chain checks of repro verify (n = 3 and 4) then cover the group path.
 *
 * Randomness: each replica owns an independent xoshiro256++ stream seeded
 * by the caller.  Candidates are drawn with Lemire's unbiased reduction,
 * two 32-bit lanes per 64-bit draw, and every round starts on a fresh word,
 * so fused, segmented and whole-window runs follow the exact same
 * trajectory for every thread count, and a group's blocks take exactly the
 * lanes of the lane-by-lane loop (_kernel_common.h).  With d == 1 the
 * draws are consumed exactly as rbb_kernel.c consumes them, so Greedy[1]
 * reproduces the native rbb trajectory.
 *
 * Compiled on demand by repro.core.native via the system C compiler; the
 * pure-numpy kernel in repro.baselines.d_choices is the semantic reference.
 */

#include "_kernel_common.h"

typedef struct {
    int32_t *loads;
    int64_t n;
    int64_t d;
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
    int shift;      /* repro_pow2_shift(n): 0 unless n is a power of 2 */
    int64_t groups; /* lockstep groups, replicas [0, 4 * groups) */
    repro_obs_t obs;
} greedy_ctx;

/* One replica's state within a call, and within the round it is in. */
typedef struct {
    int64_t r;
    int32_t *row;
    rng_t g;   /* a local copy of its xoshiro state */
    int64_t k; /* next fused observation slot */
    int32_t empty;   /* empty bins after the previous round */
    int64_t need;    /* candidates the round has still to take */
    int64_t seen;    /* candidates of a ball straddling two blocks, or 0 */
    uint32_t best;   /* that ball's first least-loaded candidate so far */
    int32_t best_load;
} greedy_rep;

/* Place `balls` balls one at a time, each into the first least-loaded of d
 * candidates drawn lane by lane from L: the stream's definition.  The
 * selection is branchless because the compare outcome is random. */
static inline void greedy_lanes(greedy_rep *p, lanes_t *L, int64_t balls,
                                int64_t d, uint32_t un, uint32_t lim)
{
    int32_t *row = p->row;
    for (int64_t j = 0; j < balls; j++) {
        uint32_t best = bounded(L, un, lim);
        int32_t best_load = row[best];
        for (int64_t e = 1; e < d; e++) {
            const uint32_t cand = bounded(L, un, lim);
            const int32_t l = row[cand];
            const int better = l < best_load;
            best = better ? cand : best;
            best_load = better ? l : best_load;
        }
        row[best] = best_load + 1;
    }
}

/* The end of round t: the post-round max and empty count in one pass,
 * then the window metrics, the early stop and the fused recorder. */
static void greedy_record(greedy_ctx *c, greedy_rep *p, int64_t t)
{
    const int64_t r = p->r;
    const int32_t mx = repro_max_empty(p->row, c->n, &p->empty);
    c->rounds_done[r]++;
    if (mx > c->max_seen[r])
        c->max_seen[r] = mx;
    if (p->empty < c->min_empty_seen[r])
        c->min_empty_seen[r] = p->empty;
    if (c->first_legit[r] < 0 && mx <= c->thr) {
        c->first_legit[r] = c->rounds_done[r];
        if (c->stop_when_legitimate)
            c->active[r] = 0;
    }
    if (repro_obs_due(&c->obs, t, c->rounds))
        repro_obs_record(&c->obs, r, p->k++, p->row, c->n, mx, p->empty,
                         (const int32_t *)0, 0);
}

/* Round t of one replica on its own, lane by lane. */
static void greedy_round(greedy_ctx *c, greedy_rep *p, int64_t t)
{
    lanes_t L = {&p->g, 0, 0};
    const int64_t cnt = repro_depart(p->row, c->n, p->empty);
    greedy_lanes(p, &L, cnt, c->d, (uint32_t)c->n, c->lim);
    greedy_record(c, p, t);
}

/* Load replica r's row, stream and empty count. */
static void greedy_start(const greedy_ctx *c, greedy_rep *p, int64_t r)
{
    const uint64_t *state = c->rng_state + 4 * r;
    p->r = r;
    p->row = c->loads + r * c->n;
    for (int w = 0; w < 4; w++)
        p->g.s[w] = state[w];
    p->empty = repro_count_empty(p->row, c->n);
    p->k = 0;
    p->seen = 0;
}

/* Store replica p's stream and fill its remaining observation points. */
static void greedy_finish(const greedy_ctx *c, const greedy_rep *p)
{
    uint64_t *state = c->rng_state + 4 * p->r;
    for (int w = 0; w < 4; w++)
        state[w] = p->g.s[w];
    repro_obs_finish(&c->obs, p->r, p->k, p->row, c->n);
}

#if REPRO_LOCKSTEP == 4
/* Candidate `cand` of the ball whose candidates straddle two blocks; its
 * last one places it into the first least-loaded of them. */
static inline void greedy_straddle(greedy_rep *p, uint32_t cand, int64_t d)
{
    const int32_t l = p->row[cand];
    if (p->seen == 0 || l < p->best_load) {
        p->best = cand;
        p->best_load = l;
    }
    if (++p->seen == d) {
        p->row[p->best] = p->best_load + 1;
        p->seen = 0;
    }
}

/* Place `balls` balls onto the candidates bin[d * j, d * j + d) >> shift:
 * each stores every candidate's load back, last-drawn first, the first
 * least-loaded one's plus 1.  With d a constant up to 4 (the callers pass
 * literals) the loads stay in registers; a larger d re-reads them, adding
 * 0 to all but the best. */
static inline __attribute__((always_inline)) void
greedy_whole(greedy_rep *p, const uint32_t *bin, int shift, int64_t balls,
             const int64_t d)
{
    int32_t *row = p->row;
    for (int64_t j = 0; j < balls; j++, bin += d) {
        int32_t l[4];
        int64_t best = 0;
        int32_t best_load = row[bin[0] >> shift];
        l[0] = best_load;
        for (int64_t e = 1; e < d; e++) {
            const int32_t le = row[bin[e] >> shift];
            const int better = le < best_load;
            best = better ? e : best;
            best_load = better ? le : best_load;
            if (d <= 4)
                l[e] = le;
        }
        for (int64_t e = d - 1; e >= 0; e--) {
            if (d <= 4)
                row[bin[e] >> shift] = l[e] + (e == best);
            else
                row[bin[e] >> shift] += e == best;
        }
    }
}

/* Take `got` candidates, candidate i being bin[i] >> shift (shift is a
 * literal 0 for mapped bins), into p's round: the ball straddling the
 * previous block is finished first, then the whole balls are placed, and
 * the last, partial one carries over. */
static inline __attribute__((always_inline)) void
greedy_take(greedy_rep *p, const uint32_t *bin, const int shift, int64_t got,
            int64_t d)
{
    int64_t i = 0;
    while (p->seen && i < got)
        greedy_straddle(p, bin[i++] >> shift, d);
    const int64_t balls = (got - i) / d;
    switch (d) {
    case 2:
        greedy_whole(p, bin + i, shift, balls, 2);
        break;
    case 3:
        greedy_whole(p, bin + i, shift, balls, 3);
        break;
    case 4:
        greedy_whole(p, bin + i, shift, balls, 4);
        break;
    default:
        greedy_whole(p, bin + i, shift, balls, d);
    }
    for (i += balls * d; i < got; i++)
        greedy_straddle(p, bin[i] >> shift, d);
}

/* Take a lockstep block's m lanes into p's round: its accepted lanes in
 * order, at most p->need of them (the rest is the high lane of the round's
 * last word).  A power-of-two row reads its candidates straight off the
 * lanes; any other maps them into cand first. */
static void greedy_block(const greedy_ctx *c, greedy_rep *p,
                         const uint32_t *lane, uint32_t *cand, int64_t m)
{
    int64_t got = c->shift ? m
                           : repro_block_map(lane, cand, m, (uint32_t)c->n,
                                             c->lim);
    if (got > p->need)
        got = p->need;
    p->need -= got;
    if (c->shift)
        greedy_take(p, lane, c->shift, got, c->d);
    else
        greedy_take(p, cand, 0, got, c->d);
}

/* Round t of a group in lockstep: every member is active.  Each block
 * draws every member's next repro_block_words() at once, until every
 * member's round is drawn. */
static void greedy_lockstep(greedy_ctx *c, greedy_rep *p, int64_t t)
{
    uint32_t lane[4][REPRO_BLOCK], cand[REPRO_BLOCK];
    rng_t *const g[4] = {&p[0].g, &p[1].g, &p[2].g, &p[3].g};
    int64_t words[4];
    for (int m = 0; m < 4; m++)
        p[m].need = c->d * repro_depart(p[m].row, c->n, p[m].empty);
    for (;;) {
        int64_t drawn = 0;
        for (int m = 0; m < 4; m++)
            drawn += words[m] = repro_block_words(p[m].need);
        if (!drawn)
            break;
        repro_draw4(g, lane, words);
        for (int m = 0; m < 4; m++)
            greedy_block(c, &p[m], lane[m], cand, 2 * words[m]);
    }
    for (int m = 0; m < 4; m++)
        greedy_record(c, &p[m], t);
}

/* Replicas [r0, r0 + 4): a round runs in lockstep while every member is
 * active; otherwise each active member runs it alone. */
static void greedy_group(greedy_ctx *c, int64_t r0)
{
    greedy_rep p[4];
    for (int m = 0; m < 4; m++)
        greedy_start(c, &p[m], r0 + m);
    for (int64_t t = 0; t < c->rounds; t++) {
        int active = 0;
        for (int m = 0; m < 4; m++)
            active += c->active[p[m].r] != 0;
        if (!active)
            break;
        if (active == 4) {
            greedy_lockstep(c, p, t);
            continue;
        }
        for (int m = 0; m < 4; m++)
            if (c->active[p[m].r])
                greedy_round(c, &p[m], t);
    }
    for (int m = 0; m < 4; m++)
        greedy_finish(c, &p[m]);
}
#endif

/* Work unit u: group u while u < groups, then the tail replicas one by
 * one. */
static void greedy_unit(void *vctx, int64_t u, int tid)
{
    greedy_ctx *c = (greedy_ctx *)vctx;
    (void)tid;
#if REPRO_LOCKSTEP == 4
    if (u < c->groups) {
        greedy_group(c, 4 * u);
        return;
    }
#endif
    greedy_rep p;
    greedy_start(c, &p, 4 * c->groups + (u - c->groups));
    for (int64_t t = 0; t < c->rounds && c->active[p.r]; t++)
        greedy_round(c, &p, t);
    greedy_finish(c, &p);
}

/* Advance the ensemble.  The parameters are rbb_run's (see rbb_kernel.c),
 * fused-observation and histogram buffers included, plus
 *
 * d              candidate bins per placement (>= 1)
 */
REPRO_ABI void greedy_run(int32_t *loads, int64_t R, int64_t n, int64_t d,
                int64_t rounds, uint64_t *rng_state, double threshold,
                int stop_when_legitimate, int32_t *max_seen,
                int32_t *min_empty_seen, int64_t *first_legit,
                int64_t *rounds_done, uint8_t *active, int32_t n_threads,
                int64_t observe_every, int64_t n_obs, int32_t *obs_max,
                int32_t *obs_empty, int64_t *obs_sum, int64_t *obs_sumsq,
                int64_t hist_k, int64_t *obs_hist, int64_t *obs_overflow)
{
    const uint32_t un = (uint32_t)n;
    greedy_ctx c;
    c.loads = loads;
    c.n = n;
    c.d = d < 1 ? 1 : d;
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
    c.shift = repro_pow2_shift(n);
    c.groups = REPRO_LOCKSTEP == 4 && c.d >= 2 && n <= REPRO_GROUP_MAX_N
                   ? R / 4
                   : 0;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_k, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, greedy_unit, R - 3 * c.groups, n_threads);
}
