/* Shared runtime for the compiled batched kernels (rbb_kernel.c,
 * graphs/walk_kernel.c, baselines/greedy_kernel.c): the xoshiro256++
 * generator, Lemire's unbiased bounded-integer reduction, the blocked and
 * lockstep draws of the rbb and Greedy[d] kernels, the passes that frame
 * their rounds, the random_uniform start thrown from numpy's own stream,
 * the fused observation recorder, and the replica-axis threading layer.
 *
 * Round passes
 * ------------
 * A dense round of the rbb and Greedy[d] kernels is departures
 * (row[i] -= row[i] > 0), the round's placements, and the post-round max
 * and empty count before the round is recorded.  The departures reduce
 * nothing: the balls that leave are the occupied bins, n minus the empty
 * count the previous round left, and repro_count_empty() seeds that count
 * when a call starts.  So the placements keep no books, and every pass
 * here is a plain loop the compiler vectorizes.
 *
 * The rbb kernel reads its row once per round boundary:
 * repro_max_empty_depart() takes round t's max and empty count and applies
 * round t + 1's departures in one pass.  It keeps the two passes apart only
 * where something reads round t's row as the round left it: a call's last
 * round, the round before a pile fault, an observation point that records
 * moments or a histogram, and, under the early stop, a round that may stop
 * the replica (see Round structure in rbb_kernel.c).  Greedy[d] runs every
 * round as repro_depart() and repro_max_empty() around its placements:
 * with rbb's fusion it read 0.97x and 0.98x of the two passes on the
 * greedy_d shape (n = 1024, d = 2, 16 rounds, one pinned thread; it won 29
 * and 28 of 40 interleaved pairs, inside the spread of the runs), since its
 * placements, not its passes, take the time.  repro_obs_finish() takes a
 * frozen row's max and empty count through repro_max_empty().
 *
 * Random starts
 * -------------
 * repro_uniform_start() throws the random_uniform start of an ensemble
 * (repro.core.batched.make_ensemble_initial) from a numpy Generator's own
 * bit generator, ball by ball as Generator.integers(0, n) draws them
 * (Lemire's rule on next_uint32, the rule of bounded() below), and counts
 * each ball straight into its int32 row.  The block and the generator's
 * state after it are those of the numpy reference, one_choice_arrivals().
 *
 * Threading model
 * ---------------
 * Replicas are embarrassingly parallel: each one owns its load row, its
 * RNG state, and its slots in every output vector, so the kernels simply
 * fan a per-replica function out over up to `n_threads` OS threads.  The
 * backend is chosen at compile time by repro.core.native, which tries the
 * flag variants in order:
 *
 *   -fopenmp            -> OpenMP parallel-for (REPRO_THREAD_MODEL 2)
 *   -DREPRO_PTHREADS    -> a raw pthread pool with an atomic work cursor
 *                          (REPRO_THREAD_MODEL 1)
 *   (neither)           -> serial execution (REPRO_THREAD_MODEL 0)
 *
 * Every kernel .so exports repro_threading_model() so the Python loader
 * can report which backend the cached binary actually has.  Work is
 * handed out dynamically, one unit at a time, in both threaded backends,
 * so early-stopped replicas do not leave threads idle.  A unit is one
 * replica in the walk kernel.  In the rbb and Greedy[d] kernels the first
 * units are lockstep groups of 4 replicas where groups run (see Lockstep
 * groups below), and the rest are single replicas.
 *
 * ThreadSanitizer builds never compile the OpenMP backend: stock libgomp
 * is not TSan-instrumented, so the race detector cannot see a parallel
 * region's fork/join edges.  The loader skips -fopenmp under
 * REPRO_SANITIZE=tsan, and TSan builds thread through the pthreads pool,
 * whose create/join edges TSan understands.
 *
 * Determinism: a replica's trajectory depends only on its own RNG state,
 * never on which thread ran it or how many threads exist, so results are
 * bit-identical for every n_threads value.
 */

#ifndef REPRO_KERNEL_COMMON_H
#define REPRO_KERNEL_COMMON_H

#include <stdint.h>
#include <string.h>

/* Marks a function as part of the exported C<->ctypes ABI.  The marker
 * expands to nothing; it exists so that `repro lint` (repro.lint.abi)
 * can find every exported definition and cross-check its parameter
 * list against the ctypes declaration in repro.core.native.  Every
 * non-static function in the kernels must carry it. */
#define REPRO_ABI

/* ------------------------------------------------------------------ */
/* RNG: xoshiro256++ (Blackman & Vigna, public domain reference)       */
/* ------------------------------------------------------------------ */

static inline uint64_t rotl64(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

typedef struct {
    uint64_t s[4];
} rng_t;

static inline uint64_t next64(rng_t *g)
{
    uint64_t *s = g->s;
    const uint64_t result = rotl64(s[0] + s[3], 23) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl64(s[3], 45);
    return result;
}

/* Two 32-bit lanes per 64-bit draw; callers reset the buffer wherever
 * their stream definition demands (the walk kernel resets per round). */
typedef struct {
    rng_t *g;
    uint64_t buf;
    int have;
} lanes_t;

static inline uint32_t lane32(lanes_t *L)
{
    if (L->have) {
        L->have = 0;
        return (uint32_t)(L->buf >> 32);
    }
    L->buf = next64(L->g);
    L->have = 1;
    return (uint32_t)L->buf;
}

/* Unbiased pick in [0, d) via Lemire's reduction; lim = (2^32 - d) % d
 * is precomputed by the caller. */
static inline uint32_t bounded(lanes_t *L, uint32_t d, uint32_t lim)
{
    for (;;) {
        const uint64_t m = (uint64_t)lane32(L) * d;
        if ((uint32_t)m >= lim)
            return (uint32_t)(m >> 32);
    }
}

/* ------------------------------------------------------------------ */
/* Blocked draws and lockstep groups                                   */
/* ------------------------------------------------------------------ */

/* The rbb and Greedy[d] kernels define a round's draws lane by lane, as
 * bounded() takes them: the round starts on a fresh word, takes lanes in
 * order, low lane of a word first, skips rejected ones, and ends at its
 * need-th accepted lane (need is the round's ball count in rbb, d times it
 * in Greedy[d]); if that is a low lane, the high lane of the same word is
 * discarded.  baselines/greedy_kernel.c runs exactly that loop for d = 1,
 * for single replicas and where groups do not run, and it is the oracle
 * the tests compare the blocked paths with.
 *
 * The blocked draw takes whole words instead: repro_draw() fills a block
 * of lanes, and repro_block_map() maps it to bins in a separate loop that
 * also flags any rejected lane, recompacting the accepted lanes in order
 * if one was flagged (a lane is rejected with probability below
 * n / 2^32).  Never over-drawing: a block that still needs `need` lanes
 * draws repro_block_words(need) words, at most ceil(need / 2), which the
 * lane-by-lane loop would have to draw anyway, since a word yields at most
 * two accepted lanes.  So a block yields at most need + 1 accepted lanes,
 * and need + 1 only when need is odd and none of its lanes was rejected;
 * the surplus is then the high lane of its last word, the very lane the
 * lane-by-lane loop discards, and the caller drops it.  Every round
 * therefore consumes exactly the words, and takes exactly the lanes, of
 * the lane-by-lane definition.
 *
 * Power-of-two rows: at n = 2^k with k >= 1, Lemire's (lane * n) >> 32 is
 * lane >> (32 - k), and the threshold (2^32 - n) mod n is 0, so no lane is
 * rejected (Lemire, "Fast Random Integer Generation in an Interval", ACM
 * TOMACS 2019).  The kernels then read a block's bins straight off its
 * lanes, lane >> repro_pow2_shift(n): no map pass into a buffer and no
 * rejection flag.  Any other n maps through repro_block_map(), n = 1
 * included (its shift would be 32, undefined on 32 bits).  Both give the
 * bins bounded() gives.  Every rbb and Greedy[d] size of the experiment
 * registry and the sweep catalog is a power of two.
 *
 * Lockstep groups: 4 consecutive replicas step through their rounds
 * together.  repro_draw4() holds the four xoshiro256++ states side by side
 * in a 4 x 64-bit vector, and one step of it draws one word per member.
 * It takes one word count per member: the states step together up to the
 * smallest count, and every later step is masked, so a member whose count
 * is reached keeps its state.  A group draws each member's whole round
 * this way, block by block: every block draws repro_block_words() of each
 * member's remaining need, the words that member's own blocked draw would
 * take, so no member draws past its own round, and each maps and places
 * its lanes as above.  Two rules keep groups where they pay; the figures
 * are single-thread bin-updates/s of the rbb kernel against its replica-by-
 * replica loop on a 2-vCPU Xeon VM with AVX-512, gcc 12.
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
 *   repro_lockstep_width() reports 4 where the path is compiled in, else 1.
 *
 *   Rule 2, run time: a group runs in lockstep only while its 4 rows fit
 *   in 1 MiB, n <= REPRO_GROUP_MAX_N = 65536; above it every replica runs
 *   alone.  Without the budget (R = 4, balanced), lockstep ran 1.22x as
 *   fast at n = 2^16 and 1.13x at 2^17, but 0.91x at 2^18, 0.78x at 2^19
 *   and 0.61x at 2^20, where the rows leave L2 and the TLB's reach.
 *
 * Each kernel adds its own rules on which rounds of a group run in
 * lockstep (all four members active, and more; see its header).
 */

/* Lanes per draw block.  A replica's lane and destination buffers take
 * 2 * 4 * REPRO_BLOCK bytes (4 KB) of stack per thread, and a group's
 * another 5 * 4 * REPRO_BLOCK bytes (10 KB). */
#define REPRO_BLOCK 512

/* Replicas per lockstep group: 4 where the target's vectors hold four
 * 64-bit lanes, else 1 (no group path).  See Rule 1 above. */
#if __BIGGEST_ALIGNMENT__ >= 32 && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define REPRO_LOCKSTEP 4
#else
#define REPRO_LOCKSTEP 1
#endif

/* Largest n at which a group runs in lockstep: its 4 rows fit in 1 MiB. */
#define REPRO_GROUP_MAX_N 65536

/* The replicas a group of this build holds: 4 when the lockstep path is
 * compiled in, else 1.  Exported, so the loader can report it. */
REPRO_ABI int repro_lockstep_width(void)
{
    return REPRO_LOCKSTEP;
}

/* The words of a block that still needs `need` lanes: ceil(need / 2), at
 * most REPRO_BLOCK / 2. */
static inline int64_t repro_block_words(int64_t need)
{
    return need < REPRO_BLOCK ? (need + 1) / 2 : REPRO_BLOCK / 2;
}

/* The shift that maps a lane to its bin when n is a power of two >= 2,
 * 32 - log2 n, else 0.  See Power-of-two rows above. */
static inline int repro_pow2_shift(int64_t n)
{
    if (n < 2 || (n & (n - 1)))
        return 0;
    return 32 - __builtin_ctzll((unsigned long long)n);
}

/* Draw `words` words into lane[0, 2 * words), low lane first. */
static inline void repro_draw(rng_t *g, uint32_t *lane, int64_t words)
{
    for (int64_t i = 0; i < words; i++) {
        const uint64_t w = next64(g);
        lane[2 * i] = (uint32_t)w;
        lane[2 * i + 1] = (uint32_t)(w >> 32);
    }
}

/* Map lanes [0, m) to bins by Lemire's reduction; nonzero iff any lane is
 * rejected (its destination would be biased, so the block recompacts). */
static inline uint32_t repro_map(const uint32_t *lane, uint32_t *dst,
                                 int64_t m, uint32_t un, uint32_t lim)
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
static int64_t repro_accepted(const uint32_t *lane, uint32_t *dst,
                              int64_t m, uint32_t un, uint32_t lim)
{
    int64_t a = 0;
    for (int64_t i = 0; i < m; i++) {
        const uint64_t p = (uint64_t)lane[i] * un;
        dst[a] = (uint32_t)(p >> 32);
        a += (uint32_t)p >= lim;
    }
    return a;
}

/* The bins of a block's m lanes: its accepted lanes' destinations, in
 * order, at the front of dst; returns their count. */
static inline int64_t repro_block_map(const uint32_t *lane, uint32_t *dst,
                                      int64_t m, uint32_t un, uint32_t lim)
{
    if (repro_map(lane, dst, m, un, lim))
        return repro_accepted(lane, dst, m, un, lim);
    return m;
}

#if REPRO_LOCKSTEP == 4
typedef uint64_t repro_u64x4 __attribute__((vector_size(32)));

/* One xoshiro256++ step of four states held side by side, s[0..3] the
 * state words: one word per stream into lane[m][2 * i] in repro_draw()'s
 * layout (a little-endian 64-bit store puts the low lane first). */
static inline __attribute__((always_inline)) void
repro_step4(repro_u64x4 s[4], uint32_t lane[4][REPRO_BLOCK], int64_t i)
{
    const repro_u64x4 sum = s[0] + s[3];
    const repro_u64x4 w = ((sum << 23) | (sum >> 41)) + s[0];
    const repro_u64x4 t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
    for (int m = 0; m < 4; m++) {
        const uint64_t wm = w[m];
        memcpy(&lane[m][2 * i], &wm, sizeof wm);
    }
}

/* Draw words[m] words from stream m into lane[m][0, 2 * words[m]), each
 * at most REPRO_BLOCK / 2.  The four states step together up to the
 * smallest count; after it each step is masked, so a stream whose count
 * is reached keeps its state (the lanes stored past its count are never
 * read).  Masking every step instead ran the rbb and Greedy[2] kernels
 * 1.02-1.16x slower at n = 256 and 1024. */
static inline void repro_draw4(rng_t *const g[4],
                               uint32_t lane[4][REPRO_BLOCK],
                               const int64_t words[4])
{
    const repro_u64x4 want = {(uint64_t)words[0], (uint64_t)words[1],
                              (uint64_t)words[2], (uint64_t)words[3]};
    repro_u64x4 s[4];
    for (int k = 0; k < 4; k++)
        s[k] = (repro_u64x4){g[0]->s[k], g[1]->s[k], g[2]->s[k], g[3]->s[k]};
    int64_t lo = words[0], hi = words[0];
    for (int m = 1; m < 4; m++) {
        lo = words[m] < lo ? words[m] : lo;
        hi = words[m] > hi ? words[m] : hi;
    }
    int64_t i = 0;
    for (; i < lo; i++)
        repro_step4(s, lane, i);
    for (; i < hi; i++) {
        const repro_u64x4 at = {(uint64_t)i, (uint64_t)i, (uint64_t)i,
                                (uint64_t)i};
        const repro_u64x4 live = (repro_u64x4)(at < want);
        repro_u64x4 next[4] = {s[0], s[1], s[2], s[3]};
        repro_step4(next, lane, i);
        for (int k = 0; k < 4; k++)
            s[k] ^= (next[k] ^ s[k]) & live;
    }
    for (int m = 0; m < 4; m++)
        for (int k = 0; k < 4; k++)
            g[m]->s[k] = s[k][m];
}
#endif

/* ------------------------------------------------------------------ */
/* Round passes                                                        */
/* ------------------------------------------------------------------ */

/* The empty bins of a row: the count pass that seeds a call's first round. */
static inline int32_t repro_count_empty(const int32_t *row, int64_t n)
{
    int32_t empty = 0;
    for (int64_t i = 0; i < n; i++)
        empty += row[i] == 0;
    return empty;
}

/* Departures: every non-empty bin loses one ball.  Returns how many left,
 * n minus the row's `empty` bins before the pass. */
static inline int64_t repro_depart(int32_t *row, int64_t n, int32_t empty)
{
    for (int64_t i = 0; i < n; i++)
        row[i] -= row[i] > 0;
    return n - empty;
}

/* The end of a round: the row's max load, and its empty count in *empty,
 * in one pass. */
static inline int32_t repro_max_empty(const int32_t *row, int64_t n,
                                      int32_t *empty)
{
    int32_t mx = 0;
    int32_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t l = row[i];
        mx = l > mx ? l : mx;
        e += l == 0;
    }
    *empty = e;
    return mx;
}

/* repro_max_empty() and the next round's repro_depart() in one pass: the
 * max and the empty count of the row as it is, then every non-empty bin
 * loses one ball. */
static inline int32_t repro_max_empty_depart(int32_t *row, int64_t n,
                                             int32_t *empty)
{
    int32_t mx = 0;
    int32_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t l = row[i];
        mx = l > mx ? l : mx;
        e += l == 0;
        row[i] = l - (l > 0);
    }
    *empty = e;
    return mx;
}

/* ------------------------------------------------------------------ */
/* Random starts                                                       */
/* ------------------------------------------------------------------ */

/* numpy's bitgen_t (numpy/random/bitgen.h): the C interface of a numpy
 * BitGenerator, which Python reaches as bit_generator.ctypes.bit_generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} repro_bitgen_t;

/* Throw m balls into each row of the C-contiguous (R, n) int32 block
 * `loads`, overwriting it, rows in order: each ball goes where
 * Generator.integers(0, n) would put it, by Lemire's rule on next_uint32
 * with threshold (2^32 - n) mod n, and at n = 1 nothing is drawn.  So the
 * block and the bit generator's state after it equal those of the numpy
 * reference, which draws the R * m destinations in one flat call.  The
 * caller keeps 1 <= n < 2^31 and m < 2^31 - 1, so no count wraps, and holds
 * the bit generator's lock.
 *
 * The function starts on a 64-byte line, so where its ball loop sits does
 * not depend on the size of the kernel code compiled before it.  With that
 * loop at byte 0, 16, 32 or 48 of a line, a start of 256 rows of 1024
 * balls in 1024 bins took 1.53, 0.58, 0.79 or 0.78 ms (one pinned thread,
 * minimum of 60 interleaved calls, gcc 12 -march=native); aligned, it sits
 * at byte 48. */
__attribute__((aligned(64)))
REPRO_ABI void repro_uniform_start(void *bitgen, int32_t *loads, int64_t R,
                                   int64_t n, int64_t m)
{
    repro_bitgen_t *bg = (repro_bitgen_t *)bitgen;
    const uint32_t un = (uint32_t)n;
    const uint32_t lim = (uint32_t)(-un) % un;
    memset(loads, 0, sizeof(int32_t) * (size_t)(R * n));
    for (int64_t r = 0; r < R; r++) {
        int32_t *row = loads + r * n;
        if (n == 1) {
            row[0] = (int32_t)m;
            continue;
        }
        for (int64_t j = 0; j < m; j++) {
            uint64_t p = (uint64_t)bg->next_uint32(bg->state) * un;
            while ((uint32_t)p < lim)
                p = (uint64_t)bg->next_uint32(bg->state) * un;
            row[p >> 32]++;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Fused observation                                                   */
/* ------------------------------------------------------------------ */

/* The fused-observation outputs of one kernel call.  A `rounds`-round
 * window has an observation point after every stride boundary
 * ((t+1) % observe_every == 0) and after its last round.  At point k,
 * repro_obs_record() writes replica r's post-round max load and empty-bin
 * count into slot k of the (n_obs, R) blocks, plus the load sum and sum of
 * squares when those blocks are non-NULL, and adds the configuration to
 * the replica's load histogram when `hist` is non-NULL.  The histogram
 * accumulates over the whole call: a load above hist_k lands in bucket
 * hist_k and is also counted in `overflow`.  A kernel that lists a row's
 * occupied bins (rbb_kernel.c's sparse rounds) passes the list, and the
 * moments and histogram are then taken over the listed bins, every other
 * bin being empty, instead of a scan of the row; the other kernels pass
 * NULL.  Every value is an integer the Python trackers would compute from
 * the load matrix themselves, so fused and segmented observation agree bit
 * for bit.  Each replica writes only its own slots and rows, so replicas
 * can run on any thread. */
typedef struct {
    int64_t R;
    int64_t observe_every;
    int64_t n_obs;     /* 0 disables observation */
    int32_t *max;      /* (n_obs, R) post-round max load */
    int32_t *empty;    /* (n_obs, R) post-round empty-bin count */
    int64_t *sum;      /* (n_obs, R) load sum, or NULL to skip moments */
    int64_t *sumsq;    /* (n_obs, R) load sum of squares, or NULL */
    int64_t hist_k;    /* histogram cap */
    int64_t *hist;     /* (R, hist_k + 1) bucket counts, or NULL */
    int64_t *overflow; /* (R,) loads above hist_k; set iff hist is */
} repro_obs_t;

/* The recorder for a kernel's observation parameters.  Observation is off
 * unless both scalar blocks are given, and the histogram is off unless
 * both of its outputs are. */
static repro_obs_t repro_obs_make(int64_t R, int64_t observe_every,
                                  int64_t n_obs, int32_t *obs_max,
                                  int32_t *obs_empty, int64_t *obs_sum,
                                  int64_t *obs_sumsq, int64_t hist_k,
                                  int64_t *obs_hist, int64_t *obs_overflow)
{
    const int hist = obs_hist && obs_overflow && hist_k >= 0;
    repro_obs_t o;
    o.R = R;
    o.observe_every = observe_every < 1 ? 1 : observe_every;
    o.n_obs = (obs_max && obs_empty) ? n_obs : 0;
    o.max = obs_max;
    o.empty = obs_empty;
    o.sum = obs_sum;
    o.sumsq = obs_sumsq;
    o.hist_k = hist_k;
    o.hist = hist ? obs_hist : (int64_t *)0;
    o.overflow = hist ? obs_overflow : (int64_t *)0;
    return o;
}

/* Whether round t (0-based) of a `rounds`-round window ends on an
 * observation point. */
static inline int repro_obs_due(const repro_obs_t *o, int64_t t,
                                int64_t rounds)
{
    return o->n_obs && ((t + 1) % o->observe_every == 0 || t + 1 == rounds);
}

/* Loads below this are counted in per-lane local counters. */
#define REPRO_HIST_SMALL 16
#define REPRO_HIST_LANES 4

/* Count one load: a small one in a lane's local counter, a large one
 * straight into its (clipped) bucket and, above the cap, the overflow. */
static inline void repro_hist_count(uint32_t *lane, int64_t *hist, int64_t K,
                                    int64_t *over, int32_t l)
{
    if (l < REPRO_HIST_SMALL) {
        lane[l]++;
    } else {
        hist[l < K ? l : K]++;
        *over += l > K;
    }
}

/* Add one configuration to replica r's histogram.  A listed configuration
 * (occ non-NULL) adds n - listed zeros to bucket 0 and then the loads of
 * its `listed` bins.  A scanned one counts every bin; runs of equal small
 * loads would serialize on one memory increment, so loads below
 * REPRO_HIST_SMALL go to REPRO_HIST_LANES interleaved local counters that
 * are merged into the buckets once per row (a lane counts at most n < 2^31
 * bins, so uint32 cannot wrap). */
static void repro_obs_histogram(const repro_obs_t *o, int64_t r,
                                const int32_t *row, int64_t n,
                                const int32_t *occ, int64_t listed)
{
    const int64_t K = o->hist_k;
    int64_t *hist = o->hist + r * (K + 1);
    int64_t over = 0;
    if (occ) {
        hist[0] += n - listed;
        for (int64_t i = 0; i < listed; i++) {
            const int32_t l = row[occ[i]];
            hist[l < K ? l : K]++;
            over += l > K;
        }
        o->overflow[r] += over;
        return;
    }
    uint32_t small[REPRO_HIST_LANES][REPRO_HIST_SMALL] = {{0}};
    int64_t i = 0;
    for (; i + REPRO_HIST_LANES <= n; i += REPRO_HIST_LANES)
        for (int u = 0; u < REPRO_HIST_LANES; u++)
            repro_hist_count(small[u], hist, K, &over, row[i + u]);
    for (; i < n; i++)
        repro_hist_count(small[0], hist, K, &over, row[i]);
    for (int64_t v = 0; v < REPRO_HIST_SMALL; v++) {
        int64_t count = 0;
        for (int u = 0; u < REPRO_HIST_LANES; u++)
            count += small[u][v];
        hist[v < K ? v : K] += count;
        if (v > K)
            over += count;
    }
    o->overflow[r] += over;
}

/* Record observation point k of replica r, whose configuration `row` has
 * maximum mx and `empty` empty bins.  occ, when non-NULL, lists the
 * `listed` bins that hold balls (in any order; every other bin is empty),
 * and the moments and histogram are taken over them instead of a scan of
 * the row. */
static void repro_obs_record(const repro_obs_t *o, int64_t r, int64_t k,
                             const int32_t *row, int64_t n, int32_t mx,
                             int64_t empty, const int32_t *occ,
                             int64_t listed)
{
    const int64_t slot = k * o->R + r;
    o->max[slot] = mx;
    o->empty[slot] = (int32_t)empty;
    if (o->sum) {
        int64_t s = 0, ss = 0;
        if (occ) {
            for (int64_t i = 0; i < listed; i++) {
                const int64_t l = row[occ[i]];
                s += l;
                ss += l * l;
            }
        } else {
            for (int64_t i = 0; i < n; i++) {
                const int64_t l = row[i];
                s += l;
                ss += l * l;
            }
        }
        o->sum[slot] = s;
        o->sumsq[slot] = ss;
    }
    if (o->hist)
        repro_obs_histogram(o, r, row, n, occ, listed);
}

/* Fill replica r's observation points from k on with its current
 * configuration.  A replica that stopped early (or was frozen on entry)
 * keeps reporting its final state, as the Python segmented loop sees it. */
static void repro_obs_finish(const repro_obs_t *o, int64_t r, int64_t k,
                             const int32_t *row, int64_t n)
{
    if (k >= o->n_obs)
        return;
    int32_t empty;
    const int32_t mx = repro_max_empty(row, n, &empty);
    for (; k < o->n_obs; k++)
        repro_obs_record(o, r, k, row, n, mx, empty, (const int32_t *)0, 0);
}

/* ------------------------------------------------------------------ */
/* Replica-axis threading                                              */
/* ------------------------------------------------------------------ */

#if defined(_OPENMP)
#include <omp.h>
#define REPRO_THREAD_MODEL 2
#elif defined(REPRO_PTHREADS)
#include <pthread.h>
#define REPRO_THREAD_MODEL 1
#else
#define REPRO_THREAD_MODEL 0
#endif

/* Hard cap on worker threads (bounds the fixed-size thread tables). */
#define REPRO_MAX_THREADS 256

/* Exported (non-static) so the ctypes loader can probe the backend the
 * cached .so was compiled with: 0 = serial, 1 = pthreads, 2 = OpenMP. */
REPRO_ABI int repro_threading_model(void)
{
    return REPRO_THREAD_MODEL;
}

/* fn(ctx, r, tid): advance work unit r (a replica or a lockstep group,
 * see above); tid < n_threads identifies the executing thread so
 * per-thread scratch can be sliced. */
typedef void (*repro_replica_fn)(void *ctx, int64_t r, int tid);

#if REPRO_THREAD_MODEL == 1
typedef struct {
    void *ctx;
    repro_replica_fn fn;
    int64_t R;
    int tid;
    int64_t *cursor; /* shared atomic work cursor (dynamic scheduling) */
} repro_worker_arg;

static void *repro_worker_main(void *varg)
{
    repro_worker_arg *arg = (repro_worker_arg *)varg;
    for (;;) {
        const int64_t r =
            __atomic_fetch_add(arg->cursor, 1, __ATOMIC_RELAXED);
        if (r >= arg->R)
            return (void *)0;
        arg->fn(arg->ctx, r, arg->tid);
    }
}
#endif

/* Run fn over the R work units on up to n_threads threads (>= 1
 * effective; values above R or REPRO_MAX_THREADS are clamped). */
static void repro_for_each_replica(void *ctx, repro_replica_fn fn, int64_t R,
                                   int n_threads)
{
    if ((int64_t)n_threads > R)
        n_threads = (int)R;
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads < 1)
        n_threads = 1;
#if REPRO_THREAD_MODEL == 2
    if (n_threads > 1) {
        int64_t r;
#pragma omp parallel for schedule(dynamic) num_threads(n_threads)
        for (r = 0; r < R; r++)
            fn(ctx, r, omp_get_thread_num());
        return;
    }
#elif REPRO_THREAD_MODEL == 1
    if (n_threads > 1) {
        pthread_t threads[REPRO_MAX_THREADS];
        repro_worker_arg args[REPRO_MAX_THREADS];
        int64_t cursor = 0;
        int started = 0;
        for (int t = 0; t < n_threads; t++) {
            args[t].ctx = ctx;
            args[t].fn = fn;
            args[t].R = R;
            args[t].tid = t;
            args[t].cursor = &cursor;
        }
        for (int t = 1; t < n_threads; t++) {
            if (pthread_create(&threads[t], (void *)0, repro_worker_main,
                               &args[t]) != 0)
                break; /* fewer workers; remaining work runs on the caller */
            started = t;
        }
        repro_worker_main(&args[0]); /* the caller is worker 0 */
        for (int t = 1; t <= started; t++)
            pthread_join(threads[t], (void *)0);
        return;
    }
#endif
    for (int64_t r = 0; r < R; r++)
        fn(ctx, r, 0);
}

#endif /* REPRO_KERNEL_COMMON_H */
