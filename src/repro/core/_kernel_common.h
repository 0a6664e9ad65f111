/* Shared runtime for the compiled batched kernels (rbb_kernel.c,
 * graphs/walk_kernel.c): the xoshiro256++ generator, Lemire's unbiased
 * bounded-integer reduction, and the replica-axis threading layer.
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
 * handed out dynamically (one replica at a time) in both threaded
 * backends, so early-stopped replicas do not leave threads idle.
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

/* fn(ctx, r, tid): advance replica r; tid < n_threads identifies the
 * executing thread so per-thread scratch can be sliced. */
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

/* Run fn over every replica on up to n_threads threads (>= 1 effective;
 * values above R or REPRO_MAX_THREADS are clamped). */
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
