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
 * Threading and fused observation follow rbb_kernel.c, the layout only in
 * part: the loop is replica-major, each replica running all its rounds
 * before the next, but with no lockstep replica groups (the cost here is
 * the dependent placement loop, not the draws).  Replicas are fanned out
 * by repro_for_each_replica() (core/_kernel_common.h), and when n_obs > 0
 * the shared recorder of that header writes the post-round max load and
 * empty-bin count into (n_obs, R) buffers at every stride boundary and at
 * the window end, plus the load sum and sum of squares and the per-replica
 * load histogram when those buffers are non-NULL.
 *
 * Randomness: each replica owns an independent xoshiro256++ stream seeded
 * by the caller.  Candidates are drawn with Lemire's unbiased reduction,
 * two 32-bit lanes per 64-bit draw, and the lane buffer is reset at every
 * round boundary, so fused, segmented and whole-window runs follow the
 * exact same trajectory for every thread count.  With d == 1 the draws are
 * consumed exactly as rbb_kernel.c consumes them, so Greedy[1] reproduces
 * the native rbb trajectory.
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
    uint32_t lim; /* Lemire rejection threshold for n */
    repro_obs_t obs;
} greedy_ctx;

static void greedy_replica(void *vctx, int64_t r, int tid)
{
    greedy_ctx *c = (greedy_ctx *)vctx;
    const int64_t n = c->n;
    const int64_t d = c->d;
    const uint32_t un = (uint32_t)n;
    const uint32_t lim = c->lim;
    const int32_t thr = c->thr;
    int32_t *row = c->loads + r * n;
    rng_t *g = (rng_t *)(c->rng_state + 4 * r);
    int64_t k = 0; /* next fused observation slot */
    (void)tid;

    for (int64_t t = 0; t < c->rounds; t++) {
        if (!c->active[r])
            break;
        lanes_t L = {g, 0, 0};

        /* departures: every non-empty bin loses one ball; the same pass
         * collects the ball count, the max and the empty count.
         * rbb_kernel.c splits this work instead: its departure pass only
         * subtracts, the count comes from the previous round's empty
         * count, and the max and empty count from a pass after the
         * arrivals; while few bins are occupied it runs all three over a
         * list of those bins rather than the row.  Here every round scans
         * the row, and the recorder is passed no list. */
        int64_t cnt = 0;
        int32_t mx = 0;
        int64_t empty = 0;
        for (int64_t i = 0; i < n; i++) {
            const int32_t l0 = row[i];
            const int32_t ne = l0 > 0;
            const int32_t l = l0 - ne;
            row[i] = l;
            cnt += ne;
            if (l > mx)
                mx = l;
            empty += (l == 0);
        }

        /* placements: one ball at a time into the first least-loaded of
         * d candidates; the selection is branchless because the compare
         * outcome is random */
        for (int64_t j = 0; j < cnt; j++) {
            uint32_t best = bounded(&L, un, lim);
            int32_t best_load = row[best];
            for (int64_t e = 1; e < d; e++) {
                const uint32_t cand = bounded(&L, un, lim);
                const int32_t l = row[cand];
                const int better = l < best_load;
                best = better ? cand : best;
                best_load = better ? l : best_load;
            }
            const int32_t v = best_load + 1;
            row[best] = v;
            empty -= (v == 1);
            if (v > mx)
                mx = v;
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
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_k, obs_hist,
                           obs_overflow);
    repro_for_each_replica(&c, greedy_replica, R, n_threads);
}
