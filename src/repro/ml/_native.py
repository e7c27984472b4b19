"""Optional compiled fast paths: boosting fit, packed-ensemble traversal,
a fit's row draws, and the draws of a pool's sampling and noise.

The fit and the traversal are loops over small arrays — the worst
possible shape for numpy (thousands of tiny per-node calls, or
vectorized levels that re-gather whole frontier matrices) and the best
possible shape for plain C; the draws are thousands of ``rng.choice``
calls, hundreds of thousands of broadcast ``rng.integers`` elements, or
one fresh ``Generator`` per configuration, each a few microseconds.
This module compiles one C source once per machine with the system C
compiler via cffi's ABI mode (no Python headers needed) and caches the
shared object under the temp directory, keyed by a hash of the source,
the compiler flags and numpy's version.

Each kernel is numerically *identical* to its numpy counterpart:

* :func:`packed_predict` makes the same float64 ``x <= threshold``
  comparisons as :meth:`repro.ml.packed.PackedEnsemble.predict` (NaN
  goes right in both) and the same left-associated per-row
  accumulation ``((base + v_0) + v_1) + ...`` in tree order.  The
  comparison selects the child through an integer mask, not a branch,
  and four rows walk each tree together.
* :func:`boosting_fit` replays ``GradientBoostedTrees._fit_rounds``
  split for split: numpy's pairwise ``sum`` for node gradient totals,
  sequential prefix sums over each feature's stable sort (ties in the
  node's own row order; NaN ranks sort last and equal nothing, not even
  each other), the same gain expression evaluated in the same
  order, numpy's ``argmax`` (first maximum, NaN wins) per feature, a
  strict ``>`` across features starting from ``gamma``, and the same
  depth-first node numbering.  ``-ffp-contract=off`` keeps the compiler
  from fusing a multiply and an add into one differently rounded FMA.
* :func:`choice_rows` returns the rows that successive
  ``rng.choice(n, k, replace=False)`` calls draw and leaves ``rng`` in
  the same state: numpy's own algorithm (Floyd's algorithm, then a
  Fisher–Yates shuffle, every bound by Lemire's rule on 32-bit draws)
  on the generator's own ``next_uint32``.
* :func:`bounded_rows` returns ``rng.integers(np.tile(highs, rows))``
  as a ``(rows, len(highs))`` matrix and leaves ``rng`` in the same
  state: the same Lemire bound, which is what ``Generator.integers``
  runs per element of an int64 ``high`` array below ``2**32 - 1``.
* :func:`normal_draws` returns, per row of ``SeedSequence`` state
  words, the first ``normal(0.0, scale)`` of a fresh ``PCG64`` seeded
  from them: PCG64 seeded and stepped as numpy's ``pcg64_set_seed``
  and XSL-RR output, and numpy's own ``random_normal`` (its ziggurat),
  linked from the ``libnpyrandom.a`` that ships with numpy.  Without
  that library, or where linking it fails, the source is built without
  this kernel and the others stay.

The three draw kernels run numpy's algorithms, which NEP 19 does not
fix across versions (only the bit generators' streams are fixed), so
each checks a fixed case against numpy at its first use in a process
and draws nothing if they differ; :func:`draws_checked` reports the
outcome.

Everything is gated: no cffi, no compiler, a failed compile, or
``REPRO_NO_NATIVE=1`` all mean the wrappers return ``None`` and the
caller uses the pure-numpy path.  The kernels keep no state between
calls (all scratch memory is per call), so concurrent threads may fit
and predict at once.  Tests exercise both paths against each other.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "SeedState",
    "available",
    "boosting_fit",
    "bounded_rows",
    "choice_rows",
    "draws_checked",
    "normal_draws",
    "packed_predict",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* One level of descent for the row at x_row; leaves self-loop
   (threshold = +inf, left = self), so walking a fixed max_depth levels
   parks every row on its leaf.  NaN features compare false and go
   right, as in numpy.  The comparison becomes an all-ones or all-zero
   mask that selects the child, so the walk has no data-dependent
   branch to mispredict. */
#define STEP(x_row, nd) \
    (right[nd] ^ ((left[nd] ^ right[nd]) \
                  & -(int32_t)((x_row)[feature[nd]] <= threshold[nd])))

void repro_packed_predict(
    const double *x, long long n, long long d,
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    const double *value,
    const int32_t *roots, long long n_trees, long long max_depth,
    double base, double *out)
{
    long long i = 0;
    /* Four rows walk each tree together: four independent descents in
       flight over the same nodes.  Each row still adds its leaf values
       one at a time in tree order, in its own accumulator. */
    for (; i + 4 <= n; i += 4) {
        const double *x0 = x + i * d, *x1 = x0 + d, *x2 = x1 + d, *x3 = x2 + d;
        double a0 = base, a1 = base, a2 = base, a3 = base;
        for (long long t = 0; t < n_trees; ++t) {
            int32_t n0 = roots[t], n1 = n0, n2 = n0, n3 = n0;
            for (long long l = 0; l < max_depth; ++l) {
                n0 = STEP(x0, n0);
                n1 = STEP(x1, n1);
                n2 = STEP(x2, n2);
                n3 = STEP(x3, n3);
            }
            a0 += value[n0];
            a1 += value[n1];
            a2 += value[n2];
            a3 += value[n3];
        }
        out[i] = a0;
        out[i + 1] = a1;
        out[i + 2] = a2;
        out[i + 3] = a3;
    }
    for (; i < n; ++i) {
        const double *x_row = x + i * d;
        double acc = base;
        for (long long t = 0; t < n_trees; ++t) {
            int32_t nd = roots[t];
            for (long long l = 0; l < max_depth; ++l)
                nd = STEP(x_row, nd);
            acc += value[nd];
        }
        out[i] = acc;
    }
}

/* numpy's pairwise summation of a contiguous float64 block: eight
   accumulators over blocks of at most 128 values, halves split at a
   multiple of eight. */
static double pairwise_sum(const double *a, long long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long long i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        long long i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    long long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Stable argsort of key[0..m) into perm: insertion sort for small
   nodes, one counting pass when the key range is narrow, else LSD
   radix passes of 8 bits over key - kmin.  Any stable sort yields the
   same permutation. */
static void stable_argsort(const int32_t *key, long long m, int32_t kmin,
                           int32_t kmax, int32_t *perm, int32_t *tmp,
                           long long *count)
{
    if (m <= 16) {
        for (long long i = 0; i < m; ++i) {
            int32_t k = key[i];
            long long j = i;
            while (j > 0 && key[perm[j - 1]] > k) {
                perm[j] = perm[j - 1];
                --j;
            }
            perm[j] = (int32_t)i;
        }
        return;
    }
    long long range = (long long)kmax - kmin + 1;
    if (range <= m + 512) {
        for (long long b = 0; b < range; ++b)
            count[b] = 0;
        for (long long i = 0; i < m; ++i)
            ++count[key[i] - kmin];
        long long total = 0;
        for (long long b = 0; b < range; ++b) {
            long long c = count[b];
            count[b] = total;
            total += c;
        }
        for (long long i = 0; i < m; ++i)
            perm[count[key[i] - kmin]++] = (int32_t)i;
        return;
    }
    int passes = 0;
    for (long long r = range - 1; r > 0; r >>= 8)
        ++passes;
    /* Pick the first destination so that the last pass writes perm. */
    int32_t *dst = passes % 2 ? perm : tmp;
    int32_t *src = passes % 2 ? tmp : perm;
    int first = 1;
    for (int p = 0; p < passes; ++p) {
        int shift = 8 * p;
        for (int b = 0; b < 256; ++b)
            count[b] = 0;
        for (long long i = 0; i < m; ++i) {
            int32_t row = first ? (int32_t)i : src[i];
            ++count[((key[row] - kmin) >> shift) & 255];
        }
        long long total = 0;
        for (int b = 0; b < 256; ++b) {
            long long c = count[b];
            count[b] = total;
            total += c;
        }
        for (long long i = 0; i < m; ++i) {
            int32_t row = first ? (int32_t)i : src[i];
            dst[count[((key[row] - kmin) >> shift) & 255]++] = row;
        }
        first = 0;
        int32_t *swap = src;
        src = dst;
        dst = swap;
    }
}

typedef struct {
    long long start, count, depth;
    int32_t node;
} pending_t;

/* All rounds of squared-error Newton boosting with unit hessians,
   written straight into the packed node table.  rows (n_rounds x
   n_rows) and cols (n_rounds x n_cols) are the pre-drawn subsamples,
   NULL when a round uses every row / column.  Returns the number of
   nodes written, or -1 when scratch memory cannot be allocated. */
long long repro_boosting_fit(
    const double *x, long long n, long long d,
    const int32_t *gid, int32_t nan_key,
    const double *target, double base,
    const int64_t *rows, long long n_rows,
    const int64_t *cols, long long n_cols,
    long long n_rounds, double learning_rate,
    long long max_depth, long long min_samples_leaf,
    double min_child_weight, double lam, double gamma,
    int32_t *feature, double *threshold, int32_t *left, int32_t *right,
    double *value, int32_t *roots, long long *depth_out)
{
    long long wide = n_rows > 256 ? n_rows : 256;
    double *pred = malloc(n * sizeof(double));
    double *grad = malloc(n * sizeof(double));
    double *gnode = malloc(n_rows * sizeof(double));
    int32_t *idx = malloc(n_rows * sizeof(int32_t));
    int32_t *key = malloc(n_rows * sizeof(int32_t));
    int32_t *perm = malloc(n_rows * sizeof(int32_t));
    int32_t *best_perm = malloc(n_rows * sizeof(int32_t));
    int32_t *tmp = malloc(n_rows * sizeof(int32_t));
    long long *count = malloc((wide + 513) * sizeof(long long));
    pending_t *stack = malloc((n_rows + 1) * sizeof(pending_t));
    long long n_nodes = -1;
    if (!pred || !grad || !gnode || !idx || !key || !perm || !best_perm
        || !tmp || !count || !stack)
        goto done;

    n_nodes = 0;
    long long deepest = 0;
    const long long lo = min_samples_leaf - 1;
    for (long long i = 0; i < n; ++i)
        pred[i] = base;
    for (long long t = 0; t < n_rounds; ++t) {
        const int64_t *rrow = rows ? rows + t * n_rows : NULL;
        const int64_t *rcol = cols ? cols + t * n_cols : NULL;
        for (long long i = 0; i < n; ++i)
            grad[i] = pred[i] - target[i];
        for (long long i = 0; i < n_rows; ++i)
            idx[i] = rrow ? (int32_t)rrow[i] : (int32_t)i;
        int32_t root = (int32_t)n_nodes++;
        roots[t] = root;
        long long top = 0;
        stack[top++] = (pending_t){0, n_rows, 0, root};
        while (top > 0) {
            pending_t e = stack[--top];
            int32_t *seg = idx + e.start;
            long long m = e.count;
            int32_t node = e.node;
            for (long long i = 0; i < m; ++i)
                gnode[i] = grad[seg[i]];
            double G = 0.0 + pairwise_sum(gnode, m);
            double H = (double)m;
            double w = (H + lam) > 0 ? -G / (H + lam) : 0.0;
            value[node] = learning_rate * w;
            feature[node] = 0;
            threshold[node] = INFINITY;
            left[node] = node;
            right[node] = node;
            if (e.depth > deepest)
                deepest = e.depth;
            if (e.depth >= max_depth || m < 2 * min_samples_leaf)
                continue;

            const double parent_score = G * G / (H + lam);
            const long long hi = m - min_samples_leaf;
            double best_gain = gamma;
            long long best_c = -1, best_at = 0;
            for (long long c = 0; c < n_cols; ++c) {
                long long j = rcol ? rcol[c] : c;
                int32_t kmin = INT32_MAX, kmax = INT32_MIN;
                for (long long i = 0; i < m; ++i) {
                    int32_t k = gid[(long long)seg[i] * d + j];
                    key[i] = k;
                    if (k < kmin)
                        kmin = k;
                    if (k > kmax)
                        kmax = k;
                }
                if (kmin == kmax && kmin != nan_key)
                    continue; /* no boundary: every gain is -inf */
                stable_argsort(key, m, kmin, kmax, perm, tmp, count);
                /* Gains over boundaries [lo, hi), masked ones -inf;
                   numpy argmax semantics: first maximum, NaN wins. */
                double GL = gnode[perm[0]];
                double col_best = 0.0;
                long long col_at = 0;
                int stop = 0;
                for (long long i = 0; i < hi && !stop; ++i) {
                    if (i > 0)
                        GL = GL + gnode[perm[i]];
                    if (i < lo)
                        continue;
                    double HL = (double)(i + 1);
                    double gain = -INFINITY;
                    /* NaN (nan_key, sorted last) equals nothing. */
                    if ((key[perm[i + 1]] != key[perm[i]]
                         || key[perm[i]] == nan_key)
                        && HL >= min_child_weight
                        && H - HL >= min_child_weight) {
                        double GR = G - GL;
                        double HR = H - HL;
                        gain = 0.5 * (GL * GL / (HL + lam)
                                      + GR * GR / (HR + lam)
                                      - parent_score);
                    }
                    if (i == lo) {
                        col_best = gain;
                        col_at = 0;
                        stop = isnan(gain);
                    } else if (!(gain <= col_best)) {
                        col_best = gain;
                        col_at = i - lo;
                        stop = isnan(gain);
                    }
                }
                if (col_best > best_gain) {
                    best_gain = col_best;
                    best_c = c;
                    best_at = col_at;
                    int32_t *swap = best_perm;
                    best_perm = perm;
                    perm = swap;
                }
            }
            if (best_c < 0)
                continue;

            /* The children inherit the winning feature's sorted order. */
            for (long long i = 0; i < m; ++i)
                tmp[i] = seg[best_perm[i]];
            for (long long i = 0; i < m; ++i)
                seg[i] = tmp[i];
            long long boundary = lo + best_at;
            long long j = rcol ? rcol[best_c] : best_c;
            feature[node] = (int32_t)j;
            threshold[node] = 0.5 * (x[(long long)seg[boundary] * d + j]
                                     + x[(long long)seg[boundary + 1] * d + j]);
            int32_t left_id = (int32_t)n_nodes++;
            int32_t right_id = (int32_t)n_nodes++;
            left[node] = left_id;
            right[node] = right_id;
            /* LIFO: the left subtree is numbered before the right. */
            stack[top++] = (pending_t){e.start + boundary + 1,
                                       m - boundary - 1, e.depth + 1,
                                       right_id};
            stack[top++] = (pending_t){e.start, boundary + 1, e.depth + 1,
                                       left_id};
        }

        /* pred += learning_rate * tree(x), walking every row. */
        for (long long i = 0; i < n; ++i) {
            const double *x_row = x + i * d;
            int32_t nd = root;
            while (left[nd] != nd)
                nd = STEP(x_row, nd);
            pred[i] = pred[i] + value[nd];
        }
    }
    *depth_out = deepest;

done:
    free(pred);
    free(grad);
    free(gnode);
    free(idx);
    free(key);
    free(perm);
    free(best_perm);
    free(tmp);
    free(count);
    free(stack);
    return n_nodes;
}

typedef uint32_t (*next_uint32_t)(void *);

/* numpy's random_bounded_uint64(state, 0, rng, 0, 0) for rng below
   2**32 - 1: a value in [0, rng] by Lemire's multiply-and-reject on
   32-bit draws. */
static inline uint32_t bounded(void *state, next_uint32_t next, uint32_t rng)
{
    if (rng == 0)
        return 0;
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)next(state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next(state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* rounds successive Generator.choice(n, k, replace=False) draws into
   out (rounds x k), for the n <= 10000 branch of numpy's algorithm:
   Floyd's algorithm, then a Fisher-Yates shuffle of the k values.
   seen holds n zero bytes and is left zeroed. */
void repro_choice_rows(void *state, next_uint32_t next,
                       long long n, long long k, long long rounds,
                       int64_t *out, unsigned char *seen)
{
    for (long long t = 0; t < rounds; ++t) {
        int64_t *row = out + t * k;
        for (long long j = n - k; j < n; ++j) {
            int64_t v = bounded(state, next, (uint32_t)j);
            /* v taken: keep j instead (j is new), masked like STEP */
            v ^= (v ^ j) & -(int64_t)seen[v];
            seen[v] = 1;
            row[j - (n - k)] = v;
        }
        for (long long i = k - 1; i > 0; --i) {
            uint32_t j = bounded(state, next, (uint32_t)i);
            int64_t swap = row[j];
            row[j] = row[i];
            row[i] = swap;
        }
        for (long long i = 0; i < k; ++i)
            seen[row[i]] = 0;
    }
}

/* rows x d draws into out, column j in [0, highs[j]): the per-element
   draw of Generator.integers over an int64 high array (every high
   below 2**32 - 1; a high of 1 draws nothing). */
void repro_bounded_rows(void *state, next_uint32_t next,
                        const int64_t *highs, long long d, long long rows,
                        int64_t *out)
{
    for (long long r = 0; r < rows; ++r, out += d)
        for (long long j = 0; j < d; ++j)
            out[j] = bounded(state, next, (uint32_t)(highs[j] - 1));
}

#if defined(__SIZEOF_INT128__) && defined(REPRO_NPYRANDOM)
/* numpy/random/bitgen.h, and random_normal from libnpyrandom.a. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;
double random_normal(bitgen_t *bitgen_state, double loc, double scale);

typedef unsigned __int128 u128;
typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

/* PCG64: one 128-bit LCG step, then the XSL-RR output. */
static uint64_t pcg64_next64(void *st)
{
    pcg64_t *g = st;
    const u128 mult = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    g->state = g->state * mult + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t pcg64_next32(void *st)
{
    pcg64_t *g = st;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t next = pcg64_next64(st);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Row i of out is the first normal(0, scale) of a PCG64 seeded from
   words[4i .. 4i+4) as numpy's pcg64_set_seed does: state from words
   (0, 1), increment from (2, 3), high word first.  Returns 1; the
   build without numpy's library returns 0 and draws nothing. */
int repro_normal_draws(const uint64_t *words, long long n, double scale,
                       double *out)
{
    for (long long i = 0; i < n; ++i, words += 4) {
        pcg64_t g = {0, ((((u128)words[2] << 64) | words[3]) << 1) | 1, 0, 0};
        pcg64_next64(&g);
        g.state += ((u128)words[0] << 64) | words[1];
        pcg64_next64(&g);
        bitgen_t bitgen = {&g, pcg64_next64, pcg64_next32, pcg64_next_double,
                           pcg64_next64};
        out[i] = random_normal(&bitgen, 0.0, scale);
    }
    return 1;
}
#else
int repro_normal_draws(const uint64_t *words, long long n, double scale,
                       double *out)
{
    return 0;
}
#endif
"""

_CDEF = """
void repro_packed_predict(
    const double *x, long long n, long long d,
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    const double *value,
    const int32_t *roots, long long n_trees, long long max_depth,
    double base, double *out);
long long repro_boosting_fit(
    const double *x, long long n, long long d,
    const int32_t *gid, int32_t nan_key,
    const double *target, double base,
    const int64_t *rows, long long n_rows,
    const int64_t *cols, long long n_cols,
    long long n_rounds, double learning_rate,
    long long max_depth, long long min_samples_leaf,
    double min_child_weight, double lam, double gamma,
    int32_t *feature, double *threshold, int32_t *left, int32_t *right,
    double *value, int32_t *roots, long long *depth_out);
void repro_choice_rows(void *state, uint32_t (*next)(void *),
                       long long n, long long k, long long rounds,
                       int64_t *out, unsigned char *seen);
void repro_bounded_rows(void *state, uint32_t (*next)(void *),
                        const int64_t *highs, long long d, long long rows,
                        int64_t *out);
int repro_normal_draws(const uint64_t *words, long long n, double scale,
                       double *out);
"""

#: ``-ffp-contract=off``: no fused multiply-adds, so every float
#: operation rounds exactly as numpy's does.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: numpy's distributions library, whose ``random_normal``
#: :func:`normal_draws` runs; the build tag names it and numpy's version.
_NPYRANDOM = os.path.join(
    os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a"
)

#: Extra arguments of the build that links it: every symbol must resolve
#: at link time (so a failed link fails the build, not the load), and the
#: library's own symbols stay private to the shared object.
_NPYRANDOM_LINK = (
    "-DREPRO_NPYRANDOM",
    "-Wl,--no-undefined",
    "-Wl,--exclude-libs,ALL",
    _NPYRANDOM,
    "-lm",
)

#: ``None`` = not attempted yet; ``False`` = unavailable; else (ffi, lib).
_state: object = None

#: ``Generator.choice(n, k, replace=False)`` runs Floyd's algorithm for
#: populations up to this size; larger ones may take numpy's tail
#: shuffle, which :func:`choice_rows` leaves to the per-round loop.
_FLOYD_MAX_N = 10000

#: ``Generator.integers`` draws a ``high`` of ``2**32`` and above another
#: way than the kernel's bound; :func:`bounded_rows` stops one short.
_BOUNDED_MAX_HIGH = 2**32 - 1

#: ``None`` = not checked yet; else whether the compiled draws matched
#: ``Generator.choice`` in :func:`_draws_match_numpy`.
_choice_ok: bool | None = None

#: The same for :func:`bounded_rows` (:func:`_bounded_match_numpy`) and
#: :func:`normal_draws` (:func:`_normals_match_numpy`).
_bounded_ok: bool | None = None
_normal_ok: bool | None = None


def _compile(so_path: str, extra: tuple) -> None:
    build_dir = tempfile.mkdtemp(prefix="repro-ml-build-")
    src = os.path.join(build_dir, "kernels.c")
    tmp_so = os.path.join(build_dir, "kernels.so")
    with open(src, "w") as fh:
        fh.write(_SOURCE)
    try:
        subprocess.run(
            ["cc", *_CFLAGS, "-o", tmp_so, src, *extra],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_so, so_path)  # atomic: racers converge on one file
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def _build() -> object:
    if os.environ.get("REPRO_NO_NATIVE"):
        return False
    try:
        import cffi
    except ImportError:
        return False
    tag = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS + _NPYRANDOM_LINK) + np.__version__).encode()
    ).hexdigest()[:16]
    so_path = os.path.join(
        tempfile.gettempdir(), f"repro-ml-{tag}-{os.getuid()}.so"
    )
    try:
        if not os.path.exists(so_path):
            try:
                if not os.path.exists(_NPYRANDOM):
                    raise FileNotFoundError(_NPYRANDOM)
                _compile(so_path, _NPYRANDOM_LINK)
            except (OSError, subprocess.SubprocessError):
                # Every kernel but normal_draws, which then draws nothing.
                _compile(so_path, ())
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(so_path)
    except (OSError, subprocess.SubprocessError, cffi.FFIError):
        return False
    return (ffi, lib)


def _get() -> object:
    global _state
    if _state is None:
        _state = _build()
    return _state


def available() -> bool:
    """Whether the compiled kernels can be used in this process."""
    return _get() is not False


def packed_predict(packed, X: np.ndarray, base_score: float):
    """Compiled ensemble prediction, or ``None`` if unavailable.

    ``X`` must already be validated, float64 and 2-D; node arrays are
    normalised to the contiguous int32/float64 layout the kernel expects
    (a no-op for ensembles packed by current code).
    """
    state = _get()
    if state is False:
        return None
    ffi, lib = state
    X = np.ascontiguousarray(X)
    feature = np.ascontiguousarray(packed.feature, dtype=np.int32)
    left = np.ascontiguousarray(packed.left, dtype=np.int32)
    right = np.ascontiguousarray(packed.right, dtype=np.int32)
    roots = np.ascontiguousarray(packed.roots, dtype=np.int32)
    threshold = np.ascontiguousarray(packed.threshold, dtype=np.float64)
    value = np.ascontiguousarray(packed.value, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    lib.repro_packed_predict(
        ffi.from_buffer("double[]", X),
        X.shape[0],
        X.shape[1],
        ffi.from_buffer("int32_t[]", feature),
        ffi.from_buffer("double[]", threshold),
        ffi.from_buffer("int32_t[]", left),
        ffi.from_buffer("int32_t[]", right),
        ffi.from_buffer("double[]", value),
        ffi.from_buffer("int32_t[]", roots),
        roots.size,
        packed.max_depth,
        float(base_score),
        ffi.from_buffer("double[]", out),
    )
    return out


def boosting_fit(model, X, target, base_score, group_ids, rows, cols):
    """Compiled boosting rounds as a packed ensemble, or ``None``.

    ``model`` supplies the hyper-parameters; ``group_ids`` is the
    per-fit rank matrix of ``X`` (:func:`~repro.ml.tree._feature_group_ids`,
    NaN as its dtype's largest value); ``rows``/``cols`` are the pre-drawn
    per-round subsamples (``None`` = every row / column each round).
    """
    state = _get()
    if state is False:
        return None
    from repro.ml.packed import PackedEnsemble  # packed imports this module

    ffi, lib = state
    n, d = X.shape
    rounds = model.n_estimators
    n_rows = n if rows is None else rows.shape[1]
    n_cols = d if cols is None else cols.shape[1]
    # A binary tree over n_rows rows has at most 2*n_rows - 1 nodes
    # (every leaf holds a row), and at most 2**(depth+1) - 1.
    per_tree = min(2 * n_rows - 1, 2 ** (min(model.max_depth, 62) + 1) - 1)
    total = rounds * per_tree
    if total >= np.iinfo(np.int32).max:
        raise ValueError(f"ensemble too large to pack: {total} nodes")
    feature = np.empty(total, dtype=np.int32)
    threshold = np.empty(total)
    left = np.empty(total, dtype=np.int32)
    right = np.empty(total, dtype=np.int32)
    value = np.empty(total)
    roots = np.empty(rounds, dtype=np.int32)
    depth = ffi.new("long long *")
    X = np.ascontiguousarray(X, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    gid = np.ascontiguousarray(group_ids, dtype=np.int32)

    def ints(a):
        if a is None:
            return ffi.NULL
        return ffi.from_buffer("int64_t[]", np.ascontiguousarray(a, np.int64))

    used = lib.repro_boosting_fit(
        ffi.from_buffer("double[]", X),
        n,
        d,
        ffi.from_buffer("int32_t[]", gid),
        int(np.iinfo(group_ids.dtype).max),
        ffi.from_buffer("double[]", target),
        float(base_score),
        ints(rows),
        n_rows,
        ints(cols),
        n_cols,
        rounds,
        float(model.learning_rate),
        model.max_depth,
        model.min_samples_leaf,
        float(model.min_child_weight),
        float(model.reg_lambda),
        float(model.gamma),
        ffi.from_buffer("int32_t[]", feature),
        ffi.from_buffer("double[]", threshold),
        ffi.from_buffer("int32_t[]", left),
        ffi.from_buffer("int32_t[]", right),
        ffi.from_buffer("double[]", value),
        ffi.from_buffer("int32_t[]", roots),
        depth,
    )
    if used < 0:
        raise MemoryError("boosting fit could not allocate scratch memory")
    return PackedEnsemble(
        feature=feature[:used].copy(),
        threshold=threshold[:used].copy(),
        left=left[:used].copy(),
        right=right[:used].copy(),
        value=value[:used].copy(),
        roots=roots,
        max_depth=int(depth[0]),
        n_features=d,
    )


def choice_rows(rng: np.random.Generator, n: int, k: int, rounds: int):
    """``rounds`` successive ``rng.choice(n, k, replace=False)`` draws, or ``None``.

    One compiled call returns the ``(rounds, k)`` int64 rows the
    per-round loop would and leaves ``rng`` in the same state.  It runs
    numpy's own algorithm on the generator's own ``next_uint32``
    (reached through ``rng.bit_generator.ctypes``), so no bit generator
    is re-implemented.  ``None``, with ``rng`` untouched, when the
    kernels are unavailable, when ``n`` exceeds :data:`_FLOYD_MAX_N`,
    when ``k`` is not in ``1..n`` (the loop raises numpy's own error),
    or when the one-time check against ``Generator.choice`` failed:
    NEP 19 gives ``Generator`` methods no stream guarantee across numpy
    versions.
    """
    global _choice_ok
    if n > _FLOYD_MAX_N or not 0 < k <= n or _get() is False:
        return None
    if _choice_ok is None:
        _choice_ok = _draws_match_numpy()
    if not _choice_ok:
        return None
    return _draw_rows(rng, n, k, rounds)


def _next_uint32(rng: np.random.Generator) -> tuple:
    """``rng``'s state pointer and ``next_uint32`` as kernel arguments."""
    ffi, _ = _get()
    iface = rng.bit_generator.ctypes
    next_uint32 = ctypes.cast(iface.next_uint32, ctypes.c_void_p).value
    return (
        ffi.cast("void *", iface.state_address),
        ffi.cast("uint32_t (*)(void *)", next_uint32),
    )


def _draw_rows(rng: np.random.Generator, n: int, k: int, rounds: int) -> np.ndarray:
    ffi, lib = _get()
    out = np.empty((rounds, k), dtype=np.int64)
    seen = np.zeros(n, dtype=np.uint8)
    with rng.bit_generator.lock:
        lib.repro_choice_rows(
            *_next_uint32(rng),
            n,
            k,
            rounds,
            ffi.from_buffer("int64_t[]", out),
            ffi.from_buffer("unsigned char[]", seen),
        )
    return out


def _draws_match_numpy() -> bool:
    """Whether the compiled draws repeat ``Generator.choice`` on a fixed
    case: equal rows and an equal generator state afterwards (an odd
    number of 32-bit draws, so the state holds a buffered half)."""
    ours, theirs = np.random.default_rng(2021), np.random.default_rng(2021)
    n, k, rounds = 600, 541, 3
    rows = _draw_rows(ours, n, k, rounds)
    want = [theirs.choice(n, size=k, replace=False) for _ in range(rounds)]
    return (
        np.array_equal(rows, want)
        and ours.bit_generator.state == theirs.bit_generator.state
    )


def bounded_rows(rng: np.random.Generator, highs: np.ndarray, rows: int):
    """``rng.integers(np.tile(highs, rows))`` as ``(rows, d)`` rows, or ``None``.

    One compiled call draws what ``Generator.integers`` draws for the
    tiled int64 ``high`` array, element by element, and leaves ``rng`` in
    the same state.  ``None``, with ``rng`` untouched, when the kernels
    are unavailable, when a ``high`` is below 1 or at least
    ``2**32 - 1`` (or ``highs`` is empty), or when the one-time check
    against ``Generator.integers`` failed.
    """
    global _bounded_ok
    highs = np.ascontiguousarray(highs, dtype=np.int64)
    if (
        not highs.size
        or highs.min() < 1
        or highs.max() >= _BOUNDED_MAX_HIGH
        or _get() is False
    ):
        return None
    if _bounded_ok is None:
        _bounded_ok = _bounded_match_numpy()
    if not _bounded_ok:
        return None
    return _draw_bounded(rng, highs, rows)


def _draw_bounded(rng: np.random.Generator, highs: np.ndarray, rows: int) -> np.ndarray:
    ffi, lib = _get()
    out = np.empty((rows, highs.size), dtype=np.int64)
    with rng.bit_generator.lock:
        lib.repro_bounded_rows(
            *_next_uint32(rng),
            ffi.from_buffer("int64_t[]", highs),
            highs.size,
            rows,
            ffi.from_buffer("int64_t[]", out),
        )
    return out


def _bounded_match_numpy() -> bool:
    """Whether the compiled rows repeat ``Generator.integers`` on a fixed
    case: equal values and an equal generator state afterwards.  Nine
    32-bit draws (an odd number, so the state holds a buffered half);
    the ``high`` of 1 draws nothing."""
    ours, theirs = np.random.default_rng(2021), np.random.default_rng(2021)
    highs = np.array([1, 1085, 35, 4], dtype=np.int64)
    rows = _draw_bounded(ours, highs, 3)
    want = theirs.integers(np.tile(highs, 3)).reshape(3, -1)
    return (
        np.array_equal(rows, want)
        and ours.bit_generator.state == theirs.bit_generator.state
    )


class SeedState(ISeedSequence):
    """A seed sequence that hands ``PCG64`` precomputed state words.

    ``PCG64`` asks its seed sequence for ``generate_state(4, np.uint64)``
    once, at construction; this returns the given row of four words
    (``SeedSequence(s).generate_state(4, np.uint64)`` for a seed ``s``).
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def normal_draws(words: np.ndarray, scale: float):
    """Per row of ``words``, the first ``normal(0.0, scale)`` of
    ``Generator(PCG64(SeedState(row)))``, or ``None``.

    ``words`` is an ``(n, 4)`` uint64 array.  One compiled call seeds a
    PCG64 per row and draws with numpy's own ``random_normal``.
    ``None`` when the kernels are unavailable, when they were built
    without numpy's library, or when the one-time check against
    ``Generator.normal`` failed.
    """
    global _normal_ok
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2 or words.shape[1] != 4:
        raise ValueError(f"words must have shape (n, 4), not {words.shape}")
    if _get() is False:
        return None
    if _normal_ok is None:
        _normal_ok = _normals_match_numpy()
    if not _normal_ok:
        return None
    return _draw_normals(words, scale)


def _draw_normals(words: np.ndarray, scale: float):
    ffi, lib = _get()
    out = np.empty(len(words))
    linked = lib.repro_normal_draws(
        ffi.from_buffer("uint64_t[]", words),
        len(words),
        float(scale),
        ffi.from_buffer("double[]", out),
    )
    return out if linked else None


#: Rows of :func:`_normals_match_numpy`'s fixed batch: enough that some
#: draws leave the ziggurat's fast path (about 1% do; 4 of these).
_NORMAL_CHECK_ROWS = 512


def _normals_match_numpy() -> bool:
    """Whether the compiled draws repeat the per-row ``Generator.normal``
    on a fixed batch of random state words."""
    words = np.random.default_rng(2021).integers(
        0, 2**64, size=(_NORMAL_CHECK_ROWS, 4), dtype=np.uint64
    )
    ours = _draw_normals(words, 0.3)
    if ours is None:
        return False
    want = [
        np.random.Generator(np.random.PCG64(SeedState(row))).normal(0.0, 0.3)
        for row in words
    ]
    return ours.tobytes() == np.array(want).tobytes()


def draws_checked() -> bool:
    """Whether every compiled draw kernel passed its first-use check:
    :func:`choice_rows`, :func:`bounded_rows` and :func:`normal_draws`."""
    global _choice_ok, _bounded_ok, _normal_ok
    if _get() is False:
        return False
    if _choice_ok is None:
        _choice_ok = _draws_match_numpy()
    if _bounded_ok is None:
        _bounded_ok = _bounded_match_numpy()
    if _normal_ok is None:
        _normal_ok = _normals_match_numpy()
    return _choice_ok and _bounded_ok and _normal_ok
