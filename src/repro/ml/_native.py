"""Optional compiled fast paths: boosting fit and packed-ensemble traversal.

Both kernels are branchy loops over small arrays — the worst possible
shape for numpy (thousands of tiny per-node calls, or vectorized levels
that re-gather whole frontier matrices) and the best possible shape for
plain C.  This module compiles one C source once per machine with the
system C compiler via cffi's ABI mode (no Python headers needed) and
caches the shared object under the temp directory, keyed by a hash of
the source and the compiler flags.

Each kernel is numerically *identical* to its numpy counterpart:

* :func:`packed_predict` makes the same float64 ``x <= threshold``
  comparisons as :meth:`repro.ml.packed.PackedEnsemble.predict` (NaN
  goes right in both) and the same left-associated per-row
  accumulation ``((base + v_0) + v_1) + ...`` in tree order.
* :func:`boosting_fit` replays ``GradientBoostedTrees._fit_rounds``
  split for split: numpy's pairwise ``sum`` for node gradient totals,
  sequential prefix sums over each feature's stable sort (ties in the
  node's own row order; NaN ranks sort last and equal nothing, not even
  each other), the same gain expression evaluated in the same
  order, numpy's ``argmax`` (first maximum, NaN wins) per feature, a
  strict ``>`` across features starting from ``gamma``, and the same
  depth-first node numbering.  ``-ffp-contract=off`` keeps the compiler
  from fusing a multiply and an add into one differently rounded FMA.

Everything is gated: no cffi, no compiler, a failed compile, or
``REPRO_NO_NATIVE=1`` all mean the wrappers return ``None`` and the
caller uses the pure-numpy path.  The kernels keep no state between
calls (all scratch memory is per call), so concurrent threads may fit
and predict at once.  Tests exercise both paths against each other.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

__all__ = ["available", "boosting_fit", "packed_predict"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* One level of descent; leaves self-loop (threshold = +inf, left =
   self), so walking a fixed max_depth levels parks every row on its
   leaf.  NaN features compare false and go right, as in numpy. */
#define STEP(nd) \
    (x_row[feature[nd]] <= threshold[nd] ? left[nd] : right[nd])

void repro_packed_predict(
    const double *x, long long n, long long d,
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    const double *value,
    const int32_t *roots, long long n_trees, long long max_depth,
    double base, double *out)
{
    for (long long i = 0; i < n; ++i) {
        const double *x_row = x + i * d;
        double acc = base;
        long long t = 0;
        /* Four independent walks in flight per row to overlap the
           dependent-load latency of single-tree descent.  The leaf
           values are still accumulated one at a time in tree order —
           separate statements, so the compiler cannot reassociate the
           float additions. */
        for (; t + 4 <= n_trees; t += 4) {
            int32_t n0 = roots[t];
            int32_t n1 = roots[t + 1];
            int32_t n2 = roots[t + 2];
            int32_t n3 = roots[t + 3];
            for (long long l = 0; l < max_depth; ++l) {
                n0 = STEP(n0);
                n1 = STEP(n1);
                n2 = STEP(n2);
                n3 = STEP(n3);
            }
            acc += value[n0];
            acc += value[n1];
            acc += value[n2];
            acc += value[n3];
        }
        for (; t < n_trees; ++t) {
            int32_t nd = roots[t];
            for (long long l = 0; l < max_depth; ++l)
                nd = STEP(nd);
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
                nd = STEP(nd);
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
"""

#: ``-ffp-contract=off``: no fused multiply-adds, so every float
#: operation rounds exactly as numpy's does.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: ``None`` = not attempted yet; ``False`` = unavailable; else (ffi, lib).
_state: object = None


def _build() -> object:
    if os.environ.get("REPRO_NO_NATIVE"):
        return False
    try:
        import cffi
    except ImportError:
        return False
    tag = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    so_path = os.path.join(
        tempfile.gettempdir(), f"repro-ml-{tag}-{os.getuid()}.so"
    )
    try:
        if not os.path.exists(so_path):
            build_dir = tempfile.mkdtemp(prefix="repro-ml-build-")
            src = os.path.join(build_dir, "kernels.c")
            tmp_so = os.path.join(build_dir, "kernels.so")
            with open(src, "w") as fh:
                fh.write(_SOURCE)
            try:
                subprocess.run(
                    ["cc", *_CFLAGS, "-o", tmp_so, src],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp_so, so_path)  # atomic: racers converge on one file
            finally:
                shutil.rmtree(build_dir, ignore_errors=True)
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
