/* Native batched kernel for the repeated balls-into-bins process.
 *
 * Advances an (R, n) ensemble of independent replicas for a given number of
 * rounds entirely in C: per round and per active replica, one ball leaves
 * every non-empty bin and lands in a bin chosen uniformly at random inside
 * the same replica.  Window metrics (max load, min empty-bin count, first
 * legitimate round), the per-replica early stop on legitimacy and the
 * concentrate adversary's pile faults (see Faults below) are maintained
 * in-kernel, so a whole `run()`, with or without pile faults, costs a
 * single FFI call.
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
 * whichever unit, group or thread runs it and whether its rounds run
 * dense or sparse, so results are bit-identical for every thread count and
 * every way of running a replica.
 *
 * Round structure: a dense round is three passes over the row (a sparse
 * one walks a list instead, see below).  The first and the last are plain
 * loops the compiler vectorizes, shared with greedy_kernel.c (Round passes
 * in _kernel_common.h).
 *
 *   1. departures, row[i] -= row[i] > 0.  The number of balls that leave,
 *      cnt, is n minus the empty count of the previous round's pass 3 (one
 *      count pass at entry seeds the first round), so this pass reduces
 *      nothing.
 *   2. arrivals, in blocks of at most REPRO_BLOCK lanes held on the
 *      stack: draw whole xoshiro words into a lane buffer (repro_draw() in
 *      _kernel_common.h, whose blocks never draw ahead of the lane-by-lane
 *      stream), drop the round's one possible surplus lane, and scatter
 *      row[bin]++.  At a power-of-two n a lane's bin is the lane shifted
 *      right (repro_pow2_shift()), read straight off the lane buffer; any
 *      other n maps the block into a bin buffer first (repro_block_map()).
 *   3. the post-round max and empty count, one int32 pass.  They feed the
 *      window metrics, the early stop and the fused recorder.
 *
 * A group's round runs pass 1 for every member, then draws every member's
 * whole round together, one block at a time (repro_draw4(), one word per
 * member per xoshiro256++ step, masked once a member's block is drawn; see
 * Lockstep groups in _kernel_common.h, with the rules on the build's
 * vectors and the n <= 65536 budget).  Each member places its block's
 * lanes as above, and runs pass 3 and the bookkeeping alone.  A group runs
 * a round in lockstep only while all four members are active and dense
 * (see sparse rounds below).  A round in which one is frozen, stopped
 * early or sparse runs each active member alone, and the group goes back
 * to lockstep once all four are active and dense again.
 *
 * Sparse rounds: while few of a row's bins hold balls, its rounds run
 * over an int32 list of those bins instead of the whole row.
 *
 *   1. departures walk the list and drop the bins that empty; the number
 *      of balls that leave is the list's length.
 *   2. arrivals draw, map and place through the same block loop, and a
 *      bin that goes 0 -> 1 is appended to the list.
 *   3. the max is taken over the list; the empty count is n minus its
 *      length.  The fused recorder takes the moments and the histogram
 *      from the list too (n - length zeros, then the listed loads).
 *
 * A row goes sparse after a round that leaves at most
 * max(1, n / RBB_SPARSE_ENTER) bins occupied, and a call starts it sparse
 * if it has that few; it goes dense again after a round that leaves more
 * than RBB_SPARSE_EXIT times that many.  The rule reads only the row's
 * occupancy.  After a concentrate fault the pile releases one ball per
 * round, so t rounds later at most t + 1 bins are occupied, and a 32-round
 * fault period at n = 1024 stays sparse throughout; balanced and random
 * starts stay dense.
 *
 * The streams are unchanged: a round's draws depend only on its ball
 * count cnt, which both paths compute identically (n minus the previous
 * empty count is the number of occupied bins, which is the list's length),
 * and both place the destinations in draw order, so the loads and every
 * output are the same whichever path runs a round.  Nothing read from the
 * list depends on its order.
 *
 * A list is allocated the first time its row goes sparse, with room for
 * 2 * RBB_SPARSE_EXIT * max(1, n / RBB_SPARSE_ENTER) + 1 bins (a sparse
 * round starts with at most the exit bound listed and throws one ball per
 * listed bin), and freed when the row's work unit ends.  If the allocation
 * fails, the row stays dense for the call, with the same results.
 * rbb_start() counts the empty bins in one vectorized pass, as a dense
 * call needs; only a row found sparse is then listed, by a scan that stops
 * at its last occupied bin.  Listing inside the count pass would need the
 * list before the count shows the row is sparse, and a store per bin in a
 * pass that vectorizes today.
 *
 * Why these bounds, on the same VM and compiler as the group rules in
 * _kernel_common.h (single thread, thread CPU time, 11 interleaved runs, medians, in
 * bin-updates/s against the kernel without sparse rounds):
 *
 *   - a post-fault call (R = 512, n = 1024, 32 rounds from all-in-one,
 *     histogram every 8 rounds): 4.8 -> 2.4 ms per call (3.5e9 -> 6.9e9;
 *     9 runs).  Without observation it took 3.3 -> 1.9 ms, so about 40%
 *     of the saving is the histogram, which no longer scans 1024 bins to
 *     count a few dozen occupied ones.
 *   - at n = 1024 and 4 KB per row, dense passes are cheap, and a
 *     lockstep group draws for 4 rows at once, which sparse rows do not:
 *     from all-in-one (R = 256), entry at n / 16 ran 0.92x (100 rounds)
 *     and 0.93x (300 rounds); n / 32 ran 1.03x and 0.97x, and n / 64
 *     1.08x and 1.00x, both inside the runs' spread.  Over the 2048
 *     rounds of converge_fused all three read 0.95-1.02x.  n / 32 keeps
 *     every row of a fault period sparse at the same cost elsewhere.
 *   - RBB_SPARSE_EXIT = 4 kept rows sparse up to n / 8 occupied bins and
 *     ran the two all-in-one shapes at 0.83x and 0.92x of 2; 1 read
 *     0.97-1.07x of 2, inside the spread.  2 leaves a margin, so a row
 *     near the entry bound does not pay an entry scan every few rounds.
 *     At n = 4096 (R = 128, 64 rounds from all-in-one, histogram every 8
 *     rounds) the sparse rounds ran 2.86e9 -> 1.33e10.
 *
 * The xoshiro state lives in a local copy for the whole call, so the draw
 * loop keeps it in registers; it is written back once, at the end.
 *
 * Every round consumes exactly the words, and places exactly the balls, of
 * the lane-by-lane definition in _kernel_common.h (the blocks never draw
 * ahead, and a round drops only the one surplus lane that definition
 * discards).  baselines/greedy_kernel.c consumes the stream lane by lane
 * at d = 1 and reproduces this kernel's trajectories, which the tests
 * check.
 *
 * Faults: a call may carry n_faults pile faults, the Section 4.1 concentrate
 * adversary's.  Fault f strikes every active replica r before round
 * fault_rounds[f]: it zeroes the row (only the listed bins while the row is
 * sparse) and writes the row's ball count into bin fault_bins[f * R + r].
 * The pile is then the row's one occupied bin, so the row is listed as that
 * bin and the following rounds run sparse without an rbb_list() scan (a
 * row whose list cannot be allocated stays dense, with the same results).
 * The pile's load is folded into max_seen, as the segmented fault loop
 * (adversary/batched.py) folds the injected state, and
 * fault_legit[f * R + r] records the replica's first legitimate round
 * (global, 1-based) after the fault and before the next, or stays -1.  The
 * fault draws nothing: the pile bins come from the adversary's own numpy
 * stream, so every xoshiro stream, every round and every output is the one
 * the segmented loop gets by injecting each fault between calls.  That
 * loop restarts the observation stride at each fault, as each fault-free
 * stretch is a call of its own; here a fault restarts it too, and the
 * recorder is asked repro_obs_due(o, t - seg_start, seg_len) for the
 * stretch [seg_start, seg_start + seg_len) between faults (the whole call
 * when there are none).  A group's members fault together, then run alone
 * while sparse and rejoin lockstep by the group rule above.
 * Without faults a round pays one more compare (t against the next fault
 * round, -1), and a legitimate round one more (its fault_legit slot
 * against NULL).
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

#include <stdlib.h>

/* A row goes sparse after a round that leaves at most
 * max(1, n / RBB_SPARSE_ENTER) bins occupied, and dense again after one
 * that leaves more than RBB_SPARSE_EXIT times that many.  See the header
 * comment for the measurements that fixed them. */
#define RBB_SPARSE_ENTER 32
#define RBB_SPARSE_EXIT 2

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
    uint32_t lim;       /* Lemire rejection threshold for n */
    int shift;          /* repro_pow2_shift(n): 0 unless n is a power of 2 */
    int64_t groups;     /* lockstep groups, replicas [0, 4 * groups) */
    int32_t sparse_in;  /* rows with at most this many occupied go sparse */
    int32_t sparse_out; /* sparse rows with more than this many go dense */
    repro_obs_t obs;
    int64_t R;
    int64_t n_faults;
    const int64_t *fault_rounds; /* (n_faults,) increasing, in [0, rounds) */
    const int32_t *fault_bins;   /* (n_faults, R) pile bins, in [0, n) */
    int64_t *fault_legit;        /* (n_faults, R), or NULL */
} rbb_ctx;

/* One replica's state within a call. */
typedef struct {
    int64_t r;
    int32_t *row;
    rng_t g;       /* a local copy of its xoshiro state */
    int32_t empty; /* empty bins after the previous round */
    int64_t k;     /* next fused observation slot */
    int32_t *occ;  /* its occupied bins in any order, NULL until first used */
    int32_t len;   /* bins in occ while the row is sparse, -1 while dense */
    int32_t enter; /* sparse_in, or -1 once occ could not be allocated */
    int64_t faults;    /* faults it has taken */
    int64_t fault_at;  /* the round its next fault strikes before, or -1 */
    int64_t seg_start; /* the first round of its stretch between faults */
    int64_t seg_len;   /* that stretch's rounds */
    int64_t *legit;    /* fault_legit slot of its last fault, or NULL */
} rbb_rep;

/* Throw `got` balls into p's row, ball i into bin bin[i] >> shift (shift
 * is a literal 0 for mapped bins).  A sparse row lists every bin that goes
 * 0 -> 1. */
static inline __attribute__((always_inline)) void
rbb_scatter(rbb_rep *p, const uint32_t *bin, const int shift, int64_t got)
{
    int32_t *row = p->row;
    if (p->len < 0) {
        for (int64_t i = 0; i < got; i++)
            row[bin[i] >> shift]++;
        return;
    }
    int32_t *occ = p->occ;
    int32_t len = p->len;
    for (int64_t i = 0; i < got; i++) {
        const uint32_t d = bin[i] >> shift;
        occ[len] = (int32_t)d;
        len += row[d]++ == 0;
    }
    p->len = len;
}

/* Throw the balls of one block's m lanes into p's row: its accepted lanes
 * in order, at most `need` of them (the rest is the high lane of the
 * round's last word).  A power-of-two row reads its bins straight off the
 * lanes; any other maps them into dst first.  Returns the number placed. */
static inline int64_t rbb_place(const rbb_ctx *c, rbb_rep *p,
                                const uint32_t *lane, uint32_t *dst,
                                int64_t m, int64_t need)
{
    int64_t got = c->shift ? m
                           : repro_block_map(lane, dst, m, (uint32_t)c->n,
                                             c->lim);
    if (got > need)
        got = need;
    if (c->shift)
        rbb_scatter(p, lane, c->shift, got);
    else
        rbb_scatter(p, dst, 0, got);
    return got;
}

/* 1, sparse: every listed bin loses one ball, and the bins that empty
 * leave the list; returns how many balls left, the list's old length. */
static inline int64_t rbb_depart_listed(rbb_rep *p)
{
    int32_t *row = p->row;
    int32_t *occ = p->occ;
    const int32_t len = p->len;
    int32_t kept = 0;
    for (int32_t i = 0; i < len; i++) {
        const int32_t b = occ[i];
        occ[kept] = b;
        kept += --row[b] > 0;
    }
    p->len = kept;
    return len;
}

/* 2. arrivals: `need` uniform throws, one block at a time. */
static void rbb_arrivals(const rbb_ctx *c, rbb_rep *p, int64_t need)
{
    uint32_t lane[REPRO_BLOCK], dst[REPRO_BLOCK];
    rng_t g = p->g; /* kept in registers by the draw loop */
    while (need > 0) {
        const int64_t words = repro_block_words(need);
        repro_draw(&g, lane, words);
        need -= rbb_place(c, p, lane, dst, 2 * words, need);
    }
    p->g = g;
}

/* p's list, allocated on first use.  Without memory it is NULL and the
 * row stays dense for the whole call. */
static int32_t *rbb_occ(const rbb_ctx *c, rbb_rep *p)
{
    if (!p->occ) {
        /* A sparse round starts with at most sparse_out bins listed and
         * throws one ball per listed bin, so it lists at most twice as
         * many; the scatter writes one slot past the last. */
        p->occ = malloc(sizeof(int32_t) * (2 * (size_t)c->sparse_out + 1));
        if (!p->occ)
            p->enter = -1;
    }
    return p->occ;
}

/* Go sparse: list the row's n - empty occupied bins. */
static void rbb_list(const rbb_ctx *c, rbb_rep *p)
{
    int32_t *occ = rbb_occ(c, p);
    if (!occ)
        return;
    const int32_t *row = p->row;
    const int32_t want = (int32_t)c->n - p->empty;
    int32_t len = 0;
    for (int32_t i = 0; len < want; i++) {
        occ[len] = i;
        len += row[i] != 0;
    }
    p->len = len;
}

/* The end of round t, whose post-round max is mx: the window metrics, the
 * early stop and the fused recorder (from the list while it is sparse). */
static inline void rbb_record(rbb_ctx *c, rbb_rep *p, int64_t t, int32_t mx)
{
    const int64_t r = p->r;
    c->rounds_done[r]++;
    if (mx > c->max_seen[r])
        c->max_seen[r] = mx;
    if (p->empty < c->min_empty_seen[r])
        c->min_empty_seen[r] = p->empty;
    if (mx <= c->thr) {
        if (p->legit && *p->legit < 0)
            *p->legit = c->rounds_done[r];
        if (c->first_legit[r] < 0) {
            c->first_legit[r] = c->rounds_done[r];
            if (c->stop_when_legitimate)
                c->active[r] = 0;
        }
    }
    if (repro_obs_due(&c->obs, t - p->seg_start, p->seg_len))
        repro_obs_record(&c->obs, r, p->k++, p->row, c->n, mx, p->empty,
                         p->len < 0 ? (const int32_t *)0 : p->occ, p->len);
}

/* 3. the end of a dense round t: the post-round max and empty count in one
 * pass; a row left with few enough occupied bins goes sparse. */
static void rbb_end_round(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    const int32_t mx = repro_max_empty(p->row, c->n, &p->empty);
    if (c->n - p->empty <= p->enter)
        rbb_list(c, p);
    rbb_record(c, p, t, mx);
}

/* 3, sparse: the max over the listed bins; every other bin is empty.  A
 * row left with too many occupied bins goes dense. */
static void rbb_end_listed(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    const int32_t *row = p->row;
    const int32_t *occ = p->occ;
    const int32_t len = p->len;
    int32_t mx = 0;
    for (int32_t i = 0; i < len; i++) {
        const int32_t l = row[occ[i]];
        mx = l > mx ? l : mx;
    }
    p->empty = (int32_t)c->n - len;
    rbb_record(c, p, t, mx);
    if (len > c->sparse_out)
        p->len = -1;
}

/* Round t of one replica on its own, sparse or dense by its row.  Out of
 * line on purpose: inlined into both callers, it ran dense rows on the
 * plain -O3 rung at 0.76-0.94x for n >= 256 (11 interleaved runs). */
static void rbb_round(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    if (p->len < 0) {
        rbb_arrivals(c, p, repro_depart(p->row, c->n, p->empty));
        rbb_end_round(c, p, t);
    } else {
        rbb_arrivals(c, p, rbb_depart_listed(p));
        rbb_end_listed(c, p, t);
    }
}

/* Before round t, p's next fault: every ball of the row into its pile bin,
 * which becomes the row's one listed bin, and a new observation stretch
 * up to the following fault. */
static void rbb_fault(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    const int64_t n = c->n;
    const int64_t r = p->r;
    const int64_t f = p->faults++;
    int32_t *row = p->row;
    int64_t balls = 0;
    if (p->len < 0) {
        for (int64_t i = 0; i < n; i++) {
            balls += row[i];
            row[i] = 0;
        }
    } else {
        const int32_t *occ = p->occ;
        const int32_t len = p->len;
        for (int32_t i = 0; i < len; i++) {
            balls += row[occ[i]];
            row[occ[i]] = 0;
        }
    }
    const int32_t b = c->fault_bins[f * c->R + r];
    row[b] = (int32_t)balls;
    p->empty = (int32_t)(n - (balls > 0));
    if (balls > c->max_seen[r])
        c->max_seen[r] = (int32_t)balls;
    p->len = -1;
    if (p->enter >= 0 && rbb_occ(c, p)) {
        p->occ[0] = b;
        p->len = balls > 0;
    }
    p->fault_at = p->faults < c->n_faults ? c->fault_rounds[p->faults] : -1;
    p->seg_start = t;
    p->seg_len = (p->fault_at < 0 ? c->rounds : p->fault_at) - t;
    p->legit = c->fault_legit ? c->fault_legit + f * c->R + r : (int64_t *)0;
}

/* Load replica r's row, stream and empty count; a row that starts with few
 * enough occupied bins starts sparse. */
static void rbb_start(const rbb_ctx *c, rbb_rep *p, int64_t r)
{
    const int64_t n = c->n;
    const uint64_t *state = c->rng_state + 4 * r;
    p->r = r;
    p->row = c->loads + r * n;
    for (int w = 0; w < 4; w++)
        p->g.s[w] = state[w];
    p->empty = repro_count_empty(p->row, n);
    p->k = 0;
    p->occ = (int32_t *)0;
    p->len = -1;
    p->enter = c->sparse_in;
    p->faults = 0;
    p->fault_at = c->n_faults > 0 ? c->fault_rounds[0] : -1;
    p->seg_start = 0;
    p->seg_len = p->fault_at < 0 ? c->rounds : p->fault_at;
    p->legit = (int64_t *)0;
    if (n - p->empty <= p->enter)
        rbb_list(c, p);
}

/* Store replica p's stream, fill its remaining observation points and
 * free its list. */
static void rbb_finish(const rbb_ctx *c, rbb_rep *p)
{
    uint64_t *state = c->rng_state + 4 * p->r;
    for (int w = 0; w < 4; w++)
        state[w] = p->g.s[w];
    repro_obs_finish(&c->obs, p->r, p->k, p->row, c->n);
    free(p->occ);
}

#if REPRO_LOCKSTEP == 4
/* Round t of a group in lockstep: every member is active and dense.  Each
 * block draws every member's next repro_block_words() at once, until every
 * member's round is drawn. */
static void rbb_lockstep(rbb_ctx *c, rbb_rep *p, int64_t t)
{
    uint32_t lane[4][REPRO_BLOCK], dst[REPRO_BLOCK];
    rng_t *const g[4] = {&p[0].g, &p[1].g, &p[2].g, &p[3].g};
    int64_t need[4], words[4];
    for (int m = 0; m < 4; m++)
        need[m] = repro_depart(p[m].row, c->n, p[m].empty);
    for (;;) {
        int64_t drawn = 0;
        for (int m = 0; m < 4; m++)
            drawn += words[m] = repro_block_words(need[m]);
        if (!drawn)
            break;
        repro_draw4(g, lane, words);
        for (int m = 0; m < 4; m++)
            need[m] -= rbb_place(c, &p[m], lane[m], dst, 2 * words[m],
                                 need[m]);
    }
    for (int m = 0; m < 4; m++)
        rbb_end_round(c, &p[m], t);
}

/* Replicas [r0, r0 + 4): a round runs in lockstep while every member is
 * active and dense; otherwise each active member runs it alone.  Faults
 * strike the active members first. */
static void rbb_group(rbb_ctx *c, int64_t r0)
{
    rbb_rep p[4];
    for (int m = 0; m < 4; m++)
        rbb_start(c, &p[m], r0 + m);
    for (int64_t t = 0; t < c->rounds; t++) {
        int active = 0, dense = 0;
        for (int m = 0; m < 4; m++) {
            const int a = c->active[p[m].r] != 0;
            if (a && t == p[m].fault_at)
                rbb_fault(c, &p[m], t);
            active += a;
            dense += a && p[m].len < 0;
        }
        if (!active)
            break;
        if (dense == 4) {
            rbb_lockstep(c, p, t);
            continue;
        }
        for (int m = 0; m < 4; m++)
            if (c->active[p[m].r])
                rbb_round(c, &p[m], t);
    }
    for (int m = 0; m < 4; m++)
        rbb_finish(c, &p[m]);
}
#endif

/* Work unit u: group u while u < groups, then the tail replicas one by
 * one. */
static void rbb_unit(void *vctx, int64_t u, int tid)
{
    rbb_ctx *c = (rbb_ctx *)vctx;
    (void)tid;
#if REPRO_LOCKSTEP == 4
    if (u < c->groups) {
        rbb_group(c, 4 * u);
        return;
    }
#endif
    rbb_rep p;
    rbb_start(c, &p, 4 * c->groups + (u - c->groups));
    for (int64_t t = 0; t < c->rounds && c->active[p.r]; t++) {
        if (t == p.fault_at)
            rbb_fault(c, &p, t);
        rbb_round(c, &p, t);
    }
    rbb_finish(c, &p);
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
 * n_faults       number of pile faults; 0 for none (the buffers may be NULL)
 * fault_rounds   (n_faults,) int64 strictly increasing rounds in [0, rounds):
 *                fault f strikes before round fault_rounds[f] of this call
 * fault_bins     (n_faults, R) int32 pile bins in [0, n)
 * fault_legit    (n_faults, R) int64, -1 on entry; the (1-based, global)
 *                round at which the replica is first legitimate after fault
 *                f and before fault f + 1, or -1; may be NULL
 */
REPRO_ABI void rbb_run(int32_t *loads, int64_t R, int64_t n, int64_t rounds,
             uint64_t *rng_state, double threshold, int stop_when_legitimate,
             int32_t *max_seen, int32_t *min_empty_seen, int64_t *first_legit,
             int64_t *rounds_done, uint8_t *active, int32_t n_threads,
             int64_t observe_every, int64_t n_obs, int32_t *obs_max,
             int32_t *obs_empty, int64_t *obs_sum, int64_t *obs_sumsq,
             int64_t hist_k, int64_t *obs_hist, int64_t *obs_overflow,
             int64_t n_faults, const int64_t *fault_rounds,
             const int32_t *fault_bins, int64_t *fault_legit)
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
    c.shift = repro_pow2_shift(n);
    c.groups = REPRO_LOCKSTEP == 4 && n <= REPRO_GROUP_MAX_N ? R / 4 : 0;
    c.sparse_in = n >= RBB_SPARSE_ENTER ? (int32_t)(n / RBB_SPARSE_ENTER) : 1;
    c.sparse_out = RBB_SPARSE_EXIT * c.sparse_in;
    c.obs = repro_obs_make(R, observe_every, n_obs, obs_max, obs_empty,
                           obs_sum, obs_sumsq, hist_k, obs_hist,
                           obs_overflow);
    c.R = R;
    c.n_faults = n_faults > 0 ? n_faults : 0;
    c.fault_rounds = fault_rounds;
    c.fault_bins = fault_bins;
    c.fault_legit = fault_legit;
    repro_for_each_replica(&c, rbb_unit, R - 3 * c.groups, n_threads);
}
