/* Compiled backend: the trajectory kernel, the one-step Volterra maps, the
 * seeded generator and the CSV row formatter, as the CPython extension
 * module volqso._kernel.
 *
 * vq_run and its log-space step log_step are ports of volqso/_kernel_py.run
 * and log_step that match them statement for statement: same loops, same
 * branches, same arithmetic in the same order, same libm calls, so both
 * backends produce bit-identical results.  Keep the two in sync;
 * tests/test_kernel_parity.py enforces it.
 *
 * The one-step maps are ports of the Python ones in volqso/qso.py:
 * volterra_image of _image_py (the linear image x_k (1 + (Ax)_k), each
 * (Ax)_k a port of CPython's math.fsum), volterra_step of _step_py (that
 * image, then simplex._renormalized) and volterra_log_map of _log_map_py
 * (log_step, the shift by its drift, then that of
 * simplex._normalized_logs).  Where the Python map would raise or meet a
 * non-finite value, or an argument is not an exact tuple of exact floats of
 * the sizes it needs, a map returns None and qso.py takes the Python path,
 * so errors keep their types and messages.
 *
 * pcg64_seed and pcg64_random are the seeded generator of
 * volqso/sampling.py, ports of its _PCG64 (NumPy's SeedSequence and
 * PCG64); tests/test_sampling.py holds both to NumPy's doubles.
 *
 * vq_format writes CSV body rows from strided columns, taking exp of the
 * trace values where a column asks for it.  Its reference is
 * volqso/_kernel_py.format_rows: math.exp, then repr(float) (and str(int))
 * through csv.writer; tests/test_kernel_parity.py holds it to the same
 * bytes.
 *
 * volqso/kernel.py compiles this file on first use, with Python's include
 * directory and -ffp-contract=off (fused multiply-adds would change
 * results), and loads it through importlib.  The module functions at the
 * end check the buffers kernel.py hands them, and run vq_run and vq_format
 * with the GIL released, so trajectories on several threads overlap.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNDERFLOW_GUARD 1e-280          /* direct factor below -> log domain */
#define DRIFT_TOL 1e-6                  /* |logsumexp| allowed per step */
#define EXP_OVERFLOW 709.782712893384   /* log of the largest double */
#define FACTOR_CLAMP 1e-12              /* qso.FACTOR_CLAMP */
#define NO_DIVIDE_TOL (4 * 2.220446049250313e-16) /* simplex._NO_DIVIDE_TOL */
#define MAX_M 4

typedef struct {
    long long vertex;          /* 0-based */
    long long entry;
    long long exit;            /* -1 while open at the end of the run */
    double lphi_entry;
    long long started_inside;
} vq_event;

typedef struct {
    long long n_checkpoints;   /* checkpoints reached = cesaro rows written */
    long long n_trace;         /* trace rows written */
    long long n_events;
    vq_event *events;          /* release with free */
    long long error_kind;      /* 0 none, 1 degenerate, 2 breakdown */
    long long error_step;
    double error_drift;
    double min_logphi;
    double max_abs_drift;
} vq_result;

static int push_event(vq_result *r, long long *cap, long long vertex,
                      long long entry, long long exit, double lphi,
                      long long started)
{
    vq_event *e;
    if (r->n_events == *cap) {
        long long grown_cap = *cap ? 2 * *cap : 1024;
        vq_event *grown = realloc(r->events, sizeof(vq_event) * grown_cap);
        if (grown == NULL)
            return -1;
        r->events = grown;
        *cap = grown_cap;
    }
    e = &r->events[r->n_events++];
    e->vertex = vertex;
    e->entry = entry;
    e->exit = exit;
    e->lphi_entry = lphi;
    e->started_inside = started;
    return 0;
}

/* One step of the Volterra map in log coordinates, as log_step in
 * volqso/_kernel_py: writes the new logs, before normalization, of the point
 * with logs logx and coordinates xs = exp(logx) to newlog, and returns their
 * logsumexp, the drift, or NaN when the step is degenerate (every new log
 * -inf, or one NaN).  logw holds the logs of all the weights, -inf for a
 * weight of 0; vq_run takes them before its first step, where the Python
 * step takes a row's logs when it first needs them.  Inline: with two
 * callers the compiler would otherwise keep it a call in vq_run's loop. */
static inline double log_step(int m, double weights[MAX_M][MAX_M],
                              double logw[MAX_M][MAX_M], const double *logx,
                              const double *xs, double *newlog)
{
    double s, c, t, tmp, g, lg, mx, acc;
    int i, kk;

    for (kk = 0; kk < m; kk++) {
        s = 0.0;
        c = 0.0;
        for (i = 0; i < m; i++) {
            t = weights[kk][i] * xs[i];
            tmp = s + t;
            if (fabs(s) >= fabs(t))
                c += (s - tmp) + t;
            else
                c += (t - tmp) + s;
            s = tmp;
        }
        g = s + c;
        if (g < UNDERFLOW_GUARD) {
            mx = -INFINITY;
            for (i = 0; i < m; i++) {
                t = logw[kk][i] + logx[i];
                if (t > mx)
                    mx = t;
            }
            if (mx == -INFINITY) {
                lg = -INFINITY;
            } else {
                acc = 0.0;
                for (i = 0; i < m; i++) {
                    t = logw[kk][i] + logx[i];
                    if (t > -INFINITY)
                        acc += exp(t - mx);
                }
                lg = mx + log(acc);
            }
        } else {
            lg = log(g);
        }
        newlog[kk] = logx[kk] + lg;
    }

    mx = newlog[0];
    for (i = 0; i < m; i++)
        if (newlog[i] > mx)
            mx = newlog[i];
    if (mx == -INFINITY || isnan(mx))
        return NAN;
    acc = 0.0;
    for (i = 0; i < m; i++)
        acc += newlog[i] == mx ? 1.0 : exp(newlog[i] - mx);
    return mx + log(acc);
}

/* The weights 1 + a[k][i] of log_step for the m x m matrix a (row-major),
 * and their logs, -inf for a weight of 0: step_weights and the logs that
 * log_step takes in volqso/_kernel_py. */
static void step_weights(int m, const double *a,
                         double weights[MAX_M][MAX_M],
                         double logw[MAX_M][MAX_M])
{
    int i, k;

    for (k = 0; k < m; k++)
        for (i = 0; i < m; i++) {
            double w = 1.0 + a[k * m + i];
            weights[k][i] = w;
            logw[k][i] = w > 0.0 ? log(w) : -INFINITY;
        }
}

/* Iterate the Volterra map for `steps` steps from log point `logx0`.
 *
 * Inputs: a (m x m, row-major), logx0 (m), coord_obs (n_coord indices in
 * [0, m)), mono_obs (n_mono x m exponents), checkpoints (n_cp, ascending).
 * Outputs, sized by the caller: trace_steps, trace_logx (x m),
 * trace_logphi and trace_mono (x n_mono), each with room for
 * floor((steps - 1) / stride) + 2 rows, the number written (steps 0,
 * stride, 2 stride, ... and steps); cesaro (n_cp x n_obs); final_logx (m);
 * scratch (2 n_obs + n_mono).
 * Requires 1 <= m <= 4, stride >= 1, and m == 4 when want_phi.
 * Returns 0, or -1 when the event array cannot grow (nothing left to free).
 */
static int vq_run(int m, const double *a, const double *logx0,
                  long long steps, double log_eps, int n_coord,
                  const long long *coord_obs, int n_mono,
                  const double *mono_obs, long long n_cp,
                  const long long *checkpoints, long long stride,
                  int want_phi, long long *trace_steps, double *cesaro,
                  double *trace_logx, double *trace_logphi,
                  double *trace_mono, double *final_logx, double *scratch,
                  vq_result *r)
{
    double weights[MAX_M][MAX_M], logw[MAX_M][MAX_M];
    double logx[MAX_M], xs[MAX_M], newlog[MAX_M];
    int n_obs = n_coord + n_mono;
    double *sums = scratch, *comps = scratch + n_obs;
    double *mono_vals = scratch + 2 * n_obs;
    long long cp_ptr = 0, tr = 0, ev_cap = 0, open_entry = -1, k;
    long long to_trace = 0;    /* steps left to the next multiple of stride */
    long long open_started = 0;
    int cur_vertex = -1;
    double open_lphi = NAN, prev_lphi = NAN, lphi;
    int i, j;

    step_weights(m, a, weights, logw);
    for (i = 0; i < m; i++)
        logx[i] = logx0[i];
    for (j = 0; j < n_obs; j++) {
        sums[j] = 0.0;
        comps[j] = 0.0;
    }

    r->n_events = 0;
    r->events = NULL;
    r->error_kind = 0;
    r->error_step = -1;
    r->error_drift = 0.0;
    r->min_logphi = want_phi ? INFINITY : NAN;
    r->max_abs_drift = 0.0;

    for (k = 0; k <= steps; k++) {
        int cnt, v, inside;
        double t, drift, adrift, f, lf;

        /* --- observe the current point z_k --- */
        for (i = 0; i < m; i++)
            xs[i] = exp(logx[i]);

        for (j = 0; j < n_mono; j++) {
            lf = 0.0;
            for (i = 0; i < m; i++) {
                double li = mono_obs[j * m + i];
                if (li != 0.0)
                    lf += li * logx[i];
            }
            mono_vals[j] = lf;
        }

        if (want_phi) {
            double p124 = logx[0] + logx[1] + logx[3];
            double p134 = logx[0] + logx[2] + logx[3];
            lphi = p124 >= p134 ? p124 : p134;
            if (lphi < r->min_logphi)
                r->min_logphi = lphi;
        } else {
            lphi = NAN;
        }

        if (to_trace == 0 || k == steps) {
            trace_steps[tr] = k;
            for (i = 0; i < m; i++)
                trace_logx[tr * m + i] = logx[i];
            trace_logphi[tr] = lphi;
            for (j = 0; j < n_mono; j++)
                trace_mono[tr * n_mono + j] = mono_vals[j];
            tr++;
        }
        to_trace = to_trace ? to_trace - 1 : stride - 1;

        cnt = 0;
        v = -1;
        for (i = 0; i < m; i++)
            if (logx[i] > log_eps) {
                cnt++;
                v = i;
            }
        inside = cnt == 1;
        if (cur_vertex < 0) {
            if (inside) {
                cur_vertex = v;
                open_entry = k;
                open_lphi = k == 0 ? lphi : prev_lphi;
                open_started = k == 0;
            }
        } else if (!inside || v != cur_vertex) {
            if (push_event(r, &ev_cap, cur_vertex, open_entry, k, open_lphi,
                           open_started))
                goto oom;
            cur_vertex = inside ? v : -1;
            open_entry = k;
            open_lphi = prev_lphi;
            open_started = 0;
        }
        prev_lphi = lphi;

        if (k == steps)
            break;

        /* --- running means include z_k --- */
        for (j = 0; j < n_obs; j++) {
            if (j < n_coord)
                f = xs[coord_obs[j]];
            else if (mono_vals[j - n_coord] > EXP_OVERFLOW)
                f = INFINITY;
            else
                f = exp(mono_vals[j - n_coord]);
            t = sums[j] + f;
            if (fabs(sums[j]) >= fabs(f))
                comps[j] += (sums[j] - t) + f;
            else
                comps[j] += (f - t) + sums[j];
            sums[j] = t;
        }

        if (cp_ptr < n_cp && checkpoints[cp_ptr] == k + 1) {
            for (j = 0; j < n_obs; j++)
                cesaro[cp_ptr * n_obs + j] =
                    (sums[j] + comps[j]) / (double)(k + 1);
            cp_ptr++;
        }

        /* --- one step --- */
        drift = log_step(m, weights, logw, logx, xs, newlog);
        if (isnan(drift)) {
            r->error_kind = 1;
            r->error_step = k;
            break;
        }
        adrift = fabs(drift);
        if (adrift > r->max_abs_drift)
            r->max_abs_drift = adrift;
        if (adrift > DRIFT_TOL) {
            r->error_kind = 2;
            r->error_step = k;
            r->error_drift = drift;
            break;
        }
        for (i = 0; i < m; i++)
            logx[i] = newlog[i] - drift;
    }

    if (cur_vertex >= 0 &&
        push_event(r, &ev_cap, cur_vertex, open_entry, -1, open_lphi,
                   open_started))
        goto oom;

    for (i = 0; i < m; i++)
        final_logx[i] = logx[i];
    r->n_checkpoints = cp_ptr;
    r->n_trace = tr;
    return 0;

oom:
    free(r->events);
    r->events = NULL;
    r->n_events = 0;
    return -1;
}

/* ------------------------------------------------------------------------
 * CSV body rows.
 *
 * The reference is Python's csv.writer on ints and floats, that is str(int)
 * and repr(float).  A double prints as the shortest decimal that reads back
 * as the same double, the one closest to it when several are that short
 * (ties to an even last digit).  The digits come from Schubfach
 * (R. Giulietti, "The Schubfach way to render doubles", 2020), in the shape
 * of its Java implementation, jdk.internal.math.DoubleToDecimal, with one
 * change: Java never goes below two digits, repr does (5e-324).  Products
 * of 64-bit words use unsigned __int128.  The layout is repr's: fixed
 * notation for 1e-4 <= |x| < 1e16, with ".0" on integral values, otherwise
 * d.ddde+XX with at least two exponent digits; -0.0, inf, -inf, and nan
 * for either sign bit.
 */

#define K_MIN (-324)            /* first decimal exponent of the g table */
#define Q_MIN (-1074)           /* binary exponent of the subnormals */
#define C_MIN (1ULL << 52)      /* smallest normal significand */
#define MASK_63 ((1ULL << 63) - 1)

/* floor(e log10(2)), floor(e log10(3/4 2)), floor(e log2(10)), exact for
 * every exponent a double can produce */
static int flog10pow2(int e)
{
    return (int)((long long)e * 661971961083LL >> 41);
}

static int flog10threequarterspow2(int e)
{
    return (int)(((long long)e * 661971961083LL - 274743187321LL) >> 41);
}

static int flog2pow10(int e)
{
    return (int)((long long)e * 913124641741LL >> 38);
}

static unsigned long long mulhi(unsigned long long a, unsigned long long b)
{
    return (unsigned long long)((unsigned __int128)a * b >> 64);
}

/* g cp / 2^127 rounded to odd, where g = g1 2^63 + g0 */
static unsigned long long rop(unsigned long long g1, unsigned long long g0,
                              unsigned long long cp)
{
    unsigned long long x1 = mulhi(g0, cp);
    unsigned long long y0 = g1 * cp;
    unsigned long long y1 = mulhi(g1, cp);
    unsigned long long z = (y0 >> 1) + x1;
    unsigned long long vbp = y1 + (z >> 63);
    return vbp | (((z & MASK_63) + MASK_63) >> 63);
}

/* The decimal f 10^*e printed for the double c 2^q (c > 0).
 * g holds g(k) = floor(10^-k 2^-r) + 1, with r such that
 * 2^125 <= 10^-k 2^-r < 2^126, as (g >> 63, g mod 2^63) for each k. */
static unsigned long long shortest(unsigned long long c, int q,
                                  const unsigned long long *g, int *e)
{
    unsigned long long out = c & 1, cb = c << 2, cbr = cb + 2, cbl;
    unsigned long long vb, vbl, vbr, s, t;
    const unsigned long long *gk;
    long long cmp;
    int k, h, uin, win;

    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else {                    /* the double below is closer */
        cbl = cb - 1;
        k = flog10threequarterspow2(q);
    }
    /* vb, vbl, vbr: 4 v / 10^k and the same for the two ends of the
     * rounding interval of v, rounded to odd; the ends belong to the
     * interval when c is even (out == 0) */
    h = q + flog2pow10(-k) + 2;
    gk = g + 2 * (k - K_MIN);
    vb = rop(gk[0], gk[1], cb << h);
    vbl = rop(gk[0], gk[1], cbl << h);
    vbr = rop(gk[0], gk[1], cbr << h);
    *e = k;

    /* At most one multiple of 10^(k+1) lies in the rounding interval; when
     * one does, it is the shortest (below s = 10 all candidates have one
     * digit). */
    s = vb >> 2;
    if (s >= 10) {
        unsigned long long sp10 = 10 * mulhi(s, 115292150460684698ULL << 4);
        unsigned long long tp10 = sp10 + 10;
        int upin = vbl + out <= sp10 << 2;
        int wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    /* Otherwise the closer of s 10^k and t 10^k that lies in it. */
    t = s + 1;
    uin = vbl + out <= s << 2;
    win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    cmp = (long long)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
}

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

static const unsigned long long POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL};

/* The number of decimal digits of u > 0 */
static int n_digits(unsigned long long u)
{
    int t = (64 - __builtin_clzll(u)) * 1233 >> 12;  /* ~ bits * log10(2) */
    return t + (u >= POW10[t]);
}

/* Write the decimal digits of u so that they end just before `end`. */
static void put_digits(char *end, unsigned long long u)
{
    for (; u >= 100; u /= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (u % 100), 2);
    }
    if (u >= 10)
        memcpy(end - 2, DIGIT_PAIRS + 2 * u, 2);
    else
        end[-1] = (char)('0' + u);
}

static char *put_int(char *p, long long v)
{
    unsigned long long u = (unsigned long long)v;
    int n;

    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    n = u ? n_digits(u) : 1;
    put_digits(p + n, u);
    return p + n;
}

/* f 10^e (f > 0) in repr's layout */
static char *put_decimal(char *p, unsigned long long f, int e)
{
    int n, x, i;

    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    n = n_digits(f);
    x = e + n - 1;              /* decimal exponent of the leading digit */
    if (x < -4 || x >= 16) {
        /* d.ddde+XX: write the digits one place to the right, then move
         * the first one back in front of the point */
        put_digits(p + 1 + n, f);
        p[0] = p[1];
        if (n > 1) {
            p[1] = '.';
            p += n + 1;
        } else {
            p += 1;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        if (x < 0)
            x = -x;
        if (x >= 100) {
            *p++ = (char)('0' + x / 100);
            x %= 100;
        }
        memcpy(p, DIGIT_PAIRS + 2 * x, 2);
        p += 2;
    } else if (x < 0) {         /* 0.000ddd */
        *p++ = '0';
        *p++ = '.';
        for (i = -1; i > x; i--)
            *p++ = '0';
        put_digits(p + n, f);
        p += n;
    } else if (n <= x + 1) {    /* ddd000.0 */
        put_digits(p + n, f);
        p += n;
        for (i = n; i <= x; i++)
            *p++ = '0';
        *p++ = '.';
        *p++ = '0';
    } else {                    /* ddd.ddd: the same move, x + 1 digits */
        put_digits(p + 1 + n, f);
        for (i = 0; i <= x; i++)
            p[i] = p[i + 1];
        p[x + 1] = '.';
        p += n + 1;
    }
    return p;
}

static char *put_double(char *p, double v, const unsigned long long *g)
{
    unsigned long long bits, c;
    int bq, e;

    memcpy(&bits, &v, sizeof bits);
    bq = (int)(bits >> 52) & 0x7FF;
    c = bits & (C_MIN - 1);
    if (bq == 0x7FF && c) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7FF || (bq == 0 && c == 0)) {
        memcpy(p, bq ? "inf" : "0.0", 3);
        return p + 3;
    }
    if (bq)
        c |= C_MIN;
    else
        bq = 1;                 /* subnormal: same exponent as bq 1 */
    c = shortest(c, bq - 1075, g, &e);
    return put_decimal(p, c, e);
}

/* One CSV column of vq_format: row r holds data[r * stride], an int64
 * written as it is (VQ_INT) or a double written as it is (VQ_DOUBLE), as
 * exp(v) (VQ_EXP) or as phi(v) = exp(v) if v <= 0, else nan (VQ_PHI).  exp
 * is the libm exp that Python's math.exp calls. */
enum { VQ_INT, VQ_DOUBLE, VQ_EXP, VQ_PHI };

typedef struct {
    const void *data;
    long long stride;           /* in values */
    long long op;
} vq_column;

/* Write n_rows CSV rows to `out`: one value from each of the n_cols
 * columns, comma-separated and ended by "\r\n".  Requires n_cols >= 1, the
 * g table described at `shortest`, and room in `out` for n_rows (21 per
 * VQ_INT column + 25 per other column + 1) bytes.  Returns the number of
 * bytes written. */
static long long vq_format(long long n_rows, int n_cols,
                           const vq_column *cols, const unsigned long long *g,
                           char *out)
{
    char *p = out;
    long long r;
    int j;

    for (r = 0; r < n_rows; r++) {
        for (j = 0; j < n_cols; j++) {
            const vq_column *c = &cols[j];
            if (c->op == VQ_INT) {
                p = put_int(p, ((const long long *)c->data)[r * c->stride]);
            } else {
                double v = ((const double *)c->data)[r * c->stride];
                if (c->op == VQ_EXP)
                    v = exp(v);
                else if (c->op == VQ_PHI)
                    v = v <= 0.0 ? exp(v) : NAN;
                p = put_double(p, v, g);
            }
            *p++ = ',';
        }
        p[-1] = '\r';
        *p++ = '\n';
    }
    return p - out;
}

/* ------------------------------------------------------------------------
 * The one-step maps.
 */

/* math.fsum of the n values v, as CPython computes it: Shewchuk's partials,
 * then the half-even fix-up across them.  Returns -1 where fsum would meet
 * a non-finite value (a NaN, an infinity or an intermediate overflow, where
 * it raises or returns one), else 0 with the sum in *sum.  n <= MAX_M. */
static int fsum(const double *v, int n, double *sum)
{
    double p[MAX_M], x, y, t, hi, yr, lo = 0.0;
    int i, j, k, np = 0;

    for (k = 0; k < n; k++) {
        x = v[k];
        for (i = j = 0; j < np; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        np = i;
        if (x != 0.0) {
            if (!isfinite(x))
                return -1;
            p[np++] = x;
        }
    }
    hi = 0.0;
    if (np > 0) {
        hi = p[--np];
        /* sum the partials from the top, stopping when the sum is inexact */
        while (np > 0) {
            x = hi;
            y = p[--np];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* half-even rounding across the partials: the partials below lo
         * decide a tie in the rounding of hi + 2 lo */
        if (np > 0 && ((lo < 0.0 && p[np - 1] < 0.0) ||
                       (lo > 0.0 && p[np - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *sum = hi;
    return 0;
}

/* 1 with the n values of t in out when t is an exact tuple of n exact
 * floats, else 0. */
static int read_floats(PyObject *t, Py_ssize_t n, double *out)
{
    Py_ssize_t i;

    if (!PyTuple_CheckExact(t) || PyTuple_GET_SIZE(t) != n)
        return 0;
    for (i = 0; i < n; i++) {
        PyObject *v = PyTuple_GET_ITEM(t, i);
        if (!PyFloat_CheckExact(v))
            return 0;
        out[i] = PyFloat_AS_DOUBLE(v);
    }
    return 1;
}

/* The arguments (rows, vector) of a one-step map: reads the matrix into a
 * (row-major) and the vector into v and returns m when the vector is an
 * exact tuple of m exact floats, 1 <= m <= MAX_M, and rows an exact tuple
 * of m such tuples; returns 0 for other arguments, and -1, with an
 * exception set, for a wrong number of them. */
static int read_step_args(PyObject *const *args, Py_ssize_t nargs,
                          double *a, double *v)
{
    Py_ssize_t m, k;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "expected 2 arguments, got %zd",
                     nargs);
        return -1;
    }
    if (!PyTuple_CheckExact(args[0]) || !PyTuple_CheckExact(args[1]))
        return 0;
    m = PyTuple_GET_SIZE(args[1]);
    if (m < 1 || m > MAX_M || PyTuple_GET_SIZE(args[0]) != m ||
        !read_floats(args[1], m, v))
        return 0;
    for (k = 0; k < m; k++)
        if (!read_floats(PyTuple_GET_ITEM(args[0], k), m, a + k * m))
            return 0;
    return (int)m;
}

/* The n values v as a list of floats, or a tuple when as_tuple. */
static PyObject *floats(const double *v, int n, int as_tuple)
{
    PyObject *out = as_tuple ? PyTuple_New(n) : PyList_New(n), *f;
    int i;

    if (out == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        if ((f = PyFloat_FromDouble(v[i])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        if (as_tuple)
            PyTuple_SET_ITEM(out, i, f);
        else
            PyList_SET_ITEM(out, i, f);
    }
    return out;
}

/* qso._image_py on the m x m matrix a and the vector x: x_k f_k with
 * f_k = 1 + fsum(a[k][i] x_i) and dust f_k in [-FACTOR_CLAMP, 0) set to 0,
 * into img.  Returns 0, or -1 where _image_py raises or meets a non-finite
 * sum. */
static int image(int m, const double *a, const double *x, double *img)
{
    double t[MAX_M], f;
    int i, k;

    for (k = 0; k < m; k++) {
        for (i = 0; i < m; i++)
            t[i] = a[k * m + i] * x[i];
        if (fsum(t, m, &f))
            return -1;
        f = 1.0 + f;
        if (f < 0.0) {
            if (f < -FACTOR_CLAMP)      /* DegenerateFactor */
                return -1;
            f = 0.0;
        }
        img[k] = x[k] * f;
    }
    return 0;
}

/* simplex._renormalized on the n values c, in place: divide by the fsum
 * unless it is within NO_DIVIDE_TOL of 1, then at most two shaves of the
 * residual off the first largest value.  Returns 0, or -1 where
 * _renormalized raises (a sum that is not positive) or meets a non-finite
 * sum. */
static int renormalize(int n, double *c)
{
    double s, r, adjusted;
    int i, k, pass;

    if (fsum(c, n, &s))
        return -1;
    if (s == 1.0)
        return 0;
    if (s <= 0.0)                       /* SumNotOne */
        return -1;
    if (fabs(s - 1.0) > NO_DIVIDE_TOL)
        for (i = 0; i < n; i++)
            c[i] /= s;
    for (pass = 0; pass < 2; pass++) {
        if (fsum(c, n, &r))
            return -1;
        r -= 1.0;
        if (r == 0.0)
            break;
        for (k = 0, i = 1; i < n; i++)  /* max keeps the first largest */
            if (c[i] > c[k])
                k = i;
        adjusted = c[k] - r;
        if (adjusted == c[k])
            break;
        c[k] = adjusted;
    }
    return 0;
}

/* volterra_image(rows, coords): qso._image_py, as a list.  None where
 * _image_py raises or meets a non-finite product or sum, and for arguments
 * this reads no matrix and vector from (see read_step_args). */
static PyObject *volterra_image(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs)
{
    double a[MAX_M * MAX_M], x[MAX_M], img[MAX_M];
    int m = read_step_args(args, nargs, a, x);

    (void)self;
    if (m < 0)
        return NULL;
    if (m == 0 || image(m, a, x, img))
        Py_RETURN_NONE;
    return floats(img, m, 0);
}

/* volterra_step(rows, coords): qso._step_py, the renormalized image of
 * apply_volterra, as a tuple.  None where _step_py raises or meets a
 * non-finite value, and for arguments this reads no matrix and vector from
 * (see read_step_args). */
static PyObject *volterra_step(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    double a[MAX_M * MAX_M], x[MAX_M], img[MAX_M];
    int m = read_step_args(args, nargs, a, x);

    (void)self;
    if (m < 0)
        return NULL;
    if (m == 0 || image(m, a, x, img) || renormalize(m, img))
        Py_RETURN_NONE;
    return floats(img, m, 1);
}

/* volterra_log_map(rows, log_coords): qso._log_map_py, log_step on the
 * log point, then the shift by the drift and by the logsumexp of the
 * shifted logs, as simplex._normalized_logs shifts them; a tuple.  None
 * where _log_map_py raises or exp of a log coordinate is infinite, and for
 * arguments this reads no matrix and vector from (see read_step_args). */
static PyObject *volterra_log_map(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    double a[MAX_M * MAX_M], weights[MAX_M][MAX_M], logw[MAX_M][MAX_M];
    double logx[MAX_M], xs[MAX_M], newlog[MAX_M], drift, mx, acc, lse;
    int m = read_step_args(args, nargs, a, logx), i;

    (void)self;
    if (m < 0)
        return NULL;
    if (m == 0)
        Py_RETURN_NONE;
    step_weights(m, a, weights, logw);
    for (i = 0; i < m; i++) {
        xs[i] = exp(logx[i]);
        if (isinf(xs[i]))               /* math.exp raises on overflow */
            Py_RETURN_NONE;
    }
    drift = log_step(m, weights, logw, logx, xs, newlog);
    if (!(fabs(drift) <= DRIFT_TOL))    /* degenerate or breakdown */
        Py_RETURN_NONE;
    for (i = 0; i < m; i++)
        newlog[i] -= drift;
    /* simplex.log_sum_exp; the largest log is finite, as the drift is */
    mx = newlog[0];
    for (i = 1; i < m; i++)
        if (newlog[i] > mx)
            mx = newlog[i];
    acc = 0.0;
    for (i = 0; i < m; i++)
        acc += exp(newlog[i] - mx);
    lse = mx + log(acc);
    if (lse != 0.0)
        for (i = 0; i < m; i++)
            newlog[i] -= lse;
    return floats(newlog, m, 1);
}

/* ------------------------------------------------------------------------
 * The seeded generator: NumPy's SeedSequence and PCG64 (128-bit LCG with
 * XSL-RR output; O'Neill, HMC-CS-2014-0905), ports of
 * volqso/sampling.py's _PCG64, so a seed gives the doubles of
 * numpy.random.default_rng(seed).random(n) under either backend.
 *
 * Python holds a generator's state as a bytearray of PCG_STATE_BYTES: the
 * 128-bit state, then the increment, each as its low and high 64-bit
 * words in native byte order.
 */

#define PCG_STATE_BYTES 32

typedef struct {
    uint64_t lo, hi;
} u128;

static const u128 PCG_MULT = {0x4385DF649FCCF645ULL, 0x2360ED051FC65DA4ULL};

/* a * b + c modulo 2^128, from 64-bit words: the low 128 bits of
 * a.lo * b.lo come from 32-bit halves, so no 128-bit integer type is
 * needed. */
static u128 mul_add(u128 a, u128 b, u128 c)
{
    uint64_t a0 = a.lo & 0xFFFFFFFFu, a1 = a.lo >> 32;
    uint64_t b0 = b.lo & 0xFFFFFFFFu, b1 = b.lo >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    u128 r;

    r.lo = mid << 32 | (p00 & 0xFFFFFFFFu);
    r.hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) +
           a.hi * b.lo + a.lo * b.hi;
    r.lo += c.lo;
    r.hi += c.hi + (r.lo < c.lo);
    return r;
}

/* SeedSequence's hashmix: the hash constant *hc moves on by mult. */
static uint32_t hashmix(uint32_t v, uint32_t *hc, uint32_t mult)
{
    v ^= *hc;
    *hc *= mult;
    v *= *hc;
    return v ^ v >> 16;
}

/* SeedSequence's mix of the hashed value y into the pool word x. */
static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t v = 0xCA01F9DDu * x - 0x4973F715u * y;

    return v ^ v >> 16;
}

/* The 32-bit little-endian word i of the n bytes b, 0 past their end. */
static uint32_t seed_word(const unsigned char *b, Py_ssize_t n, Py_ssize_t i)
{
    uint32_t w = 0;
    int j;

    for (j = 3; j >= 0; j--)
        w = w << 8 | (4 * i + j < n ? b[4 * i + j] : 0);
    return w;
}

/* The state and increment of PCG64 seeded by SeedSequence with the
 * non-negative integer whose little-endian bytes are b[0..n): its entropy
 * is the integer's 32-bit words, at least one, the pool four words. */
static void pcg_seed(const unsigned char *b, Py_ssize_t n, u128 *state,
                     u128 *inc)
{
    static const u128 one = {1, 0};
    uint32_t pool[4], w[8], hc = 0x43B0D7E5u;
    Py_ssize_t words, src;
    int i, dst;
    u128 start;

    while (n > 0 && b[n - 1] == 0)
        n--;
    words = (n + 3) / 4;
    for (i = 0; i < 4; i++)
        pool[i] = hashmix(seed_word(b, n, i), &hc, 0x931E8875u);
    for (src = 0; src < 4; src++)
        for (dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst],
                                hashmix(pool[src], &hc, 0x931E8875u));
    for (src = 4; src < words; src++)
        for (dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(seed_word(b, n, src), &hc,
                                               0x931E8875u));
    hc = 0x8B51F9DDu;
    for (i = 0; i < 8; i++)
        w[i] = hashmix(pool[i % 4], &hc, 0x58F38DEDu);
    /* state words (w0 w1 | w2 w3), sequence words (w4 w5 | w6 w7), high
     * half first; the increment is the sequence shifted left, with bit 0
     * set, and the state starts at the step from 0 plus the seed state */
    start.hi = w[0] | (uint64_t)w[1] << 32;
    start.lo = w[2] | (uint64_t)w[3] << 32;
    inc->hi = (w[4] | (uint64_t)w[5] << 32) << 1 | (uint64_t)w[7] >> 31;
    inc->lo = (w[6] | (uint64_t)w[7] << 32) << 1 | 1;
    *state = mul_add(mul_add(*inc, one, start), PCG_MULT, *inc);
}

/* The next double of the stream: a step of the LCG, then its XSL-RR
 * output's top 53 bits over 2^53. */
static double pcg_next(u128 *state, u128 inc)
{
    uint64_t x;
    unsigned rot;

    *state = mul_add(*state, PCG_MULT, inc);
    x = state->hi ^ state->lo;
    rot = (unsigned)(state->hi >> 58);
    x = x >> rot | x << (-rot & 63);
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* The state buffer of a generator; NULL, with ValueError set, unless buf
 * is a bytearray of PCG_STATE_BYTES. */
static char *state_buffer(PyObject *buf)
{
    if (!PyByteArray_CheckExact(buf) ||
        PyByteArray_GET_SIZE(buf) != PCG_STATE_BYTES) {
        PyErr_Format(PyExc_ValueError,
                     "generator state must be a bytearray of %d bytes",
                     PCG_STATE_BYTES);
        return NULL;
    }
    return PyByteArray_AS_STRING(buf);
}

/* pcg64_seed(seed_bytes): a new state buffer, that of the generator
 * seeded with the non-negative integer whose little-endian bytes are
 * seed_bytes. */
static PyObject *pcg64_seed(PyObject *self, PyObject *seed)
{
    u128 s[2];

    (void)self;
    if (!PyBytes_Check(seed)) {
        PyErr_Format(PyExc_TypeError, "seed bytes must be bytes, not %s",
                     Py_TYPE(seed)->tp_name);
        return NULL;
    }
    pcg_seed((const unsigned char *)PyBytes_AS_STRING(seed),
             PyBytes_GET_SIZE(seed), &s[0], &s[1]);
    return PyByteArray_FromStringAndSize((const char *)s, sizeof s);
}

/* pcg64_random(state, n): the next n doubles of the generator whose state
 * buffer is state, as a list (empty for n <= 0), advancing the buffer. */
static PyObject *pcg64_random(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    PyObject *out, *f;
    Py_ssize_t n, i;
    char *buf;
    u128 s[2];

    (void)self;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "expected 2 arguments, got %zd",
                     nargs);
        return NULL;
    }
    n = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    /* the list first: its allocation may run a collection, and so Python
     * code, before the buffer is read */
    if ((out = PyList_New(n > 0 ? n : 0)) == NULL)
        return NULL;
    if ((buf = state_buffer(args[0])) == NULL) {
        Py_DECREF(out);
        return NULL;
    }
    memcpy(s, buf, sizeof s);
    for (i = 0; i < n; i++) {
        if ((f = PyFloat_FromDouble(pcg_next(&s[0], s[1]))) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, f);
    }
    memcpy(buf, s, sizeof s);
    return out;
}

/* ------------------------------------------------------------------------
 * The trajectory kernel and the formatter as module functions.
 */

/* Takes count * size values from *room; 0 when they do not fit. */
static int take(long long *room, long long count, long long size)
{
    if (count < 0 || size < 0 || (size > 0 && count > *room / size))
        return 0;
    *room -= count * size;
    return 1;
}

/* run(m, f_in, i_in, f_out, trace_steps, steps, log_eps, n_coord, n_mono,
 *     n_cp, stride, want_phi)
 * vq_run on the buffers kernel.py lays out, all of 8-byte values: f_in
 * holds a, mono_obs and logx0; i_in coord_obs and checkpoints; f_out
 * cesaro, trace_logx, trace_logphi, trace_mono, final_logx and scratch,
 * sized as vq_run requires; trace_steps the trace steps.  Returns
 * (n_checkpoints, n_trace, the sojourn events as the bytes of vq_event
 * structs, error_kind, error_step, error_drift, min_logphi,
 * max_abs_drift). */
static PyObject *run(PyObject *self, PyObject *args)
{
    int m, n_coord, n_mono, want_phi, rc, ok;
    long long steps, n_cp, stride, n_obs, n_trace, j;
    long long f_room, i_room, o_room, t_room;
    double log_eps, *fo;
    const double *fi;
    const long long *ii;
    Py_buffer f_in, i_in, f_out, tr;
    PyObject *events, *result = NULL;
    vq_result r;

    (void)self;
    if (!PyArg_ParseTuple(args, "iy*y*w*w*LdiiLLp:run", &m, &f_in, &i_in,
                          &f_out, &tr, &steps, &log_eps, &n_coord, &n_mono,
                          &n_cp, &stride, &want_phi))
        return NULL;
    n_obs = (long long)n_coord + n_mono;
    n_trace = steps > 0 && stride > 0 ? (steps - 1) / stride + 2 : 1;
    f_room = f_in.len / 8;
    i_room = i_in.len / 8;
    o_room = f_out.len / 8;
    t_room = tr.len / 8;
    ok = 1 <= m && m <= MAX_M && steps >= 0 && stride >= 1 &&
         n_coord >= 0 && n_mono >= 0 && (!want_phi || m == 4) &&
         take(&f_room, m + n_mono + 1, m) && take(&i_room, n_coord, 1) &&
         take(&i_room, n_cp, 1) && take(&o_room, n_cp, n_obs) &&
         take(&o_room, n_trace, m + 1 + n_mono) &&
         take(&o_room, 1, m + 2 * n_obs + n_mono) &&
         take(&t_room, n_trace, 1);
    fi = f_in.buf;
    ii = i_in.buf;
    fo = f_out.buf;
    for (j = 0; ok && j < n_coord; j++)
        ok = 0 <= ii[j] && ii[j] < m;
    if (!ok) {
        PyErr_SetString(PyExc_ValueError,
                        "trajectory kernel arguments do not fit its buffers");
        goto done;
    }

    Py_BEGIN_ALLOW_THREADS
    rc = vq_run(m, fi, fi + m * (m + n_mono), steps, log_eps, n_coord, ii,
                n_mono, fi + m * m, n_cp, ii + n_coord, stride, want_phi,
                tr.buf, fo, fo + n_cp * n_obs,
                fo + n_cp * n_obs + n_trace * m,
                fo + n_cp * n_obs + n_trace * (m + 1),
                fo + n_cp * n_obs + n_trace * (m + 1 + n_mono),
                fo + n_cp * n_obs + n_trace * (m + 1 + n_mono) + m, &r);
    Py_END_ALLOW_THREADS

    if (rc) {
        PyErr_SetString(PyExc_MemoryError,
                        "trajectory kernel allocation failed");
        goto done;
    }
    events = PyBytes_FromStringAndSize(
        (const char *)r.events, (Py_ssize_t)(r.n_events * sizeof(vq_event)));
    free(r.events);
    if (events != NULL)
        result = Py_BuildValue("LLNLLddd", r.n_checkpoints, r.n_trace,
                               events, r.error_kind, r.error_step,
                               r.error_drift, r.min_logphi, r.max_abs_drift);
done:
    PyBuffer_Release(&f_in);
    PyBuffer_Release(&i_in);
    PyBuffer_Release(&f_out);
    PyBuffer_Release(&tr);
    return result;
}

#define G_VALUES (2 * (292 - K_MIN + 1))    /* the g table of `shortest` */

/* format_rows(n_rows, columns, g)
 * vq_format on columns, a sequence of (values, start, stride, op) tuples:
 * row r of a column holds values[start + r * stride] of an int64 buffer
 * (format "q", op "") or a double one (format "d", op "", "exp" or "phi");
 * g is the table of `shortest`.  Returns the rows as bytes. */
static PyObject *format_rows(PyObject *self, PyObject *args)
{
    long long n_rows, size;
    Py_ssize_t n_cols = 0, n_views = 0, j;
    PyObject *columns, *cols_seq = NULL, *out = NULL;
    Py_buffer g, *views = NULL;
    vq_column *cols = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "LOy*:format_rows", &n_rows, &columns, &g))
        return NULL;
    if ((cols_seq = PySequence_Tuple(columns)) == NULL)
        goto done;
    n_cols = PyTuple_GET_SIZE(cols_seq);
    if (n_rows < 1 || n_cols < 1 || n_cols > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "%lld rows of %zd columns", n_rows,
                     n_cols);
        goto done;
    }
    if (g.len < G_VALUES * 8) {
        PyErr_SetString(PyExc_ValueError, "the g table is too short");
        goto done;
    }
    views = PyMem_Calloc(n_cols, sizeof(Py_buffer));
    cols = PyMem_Calloc(n_cols, sizeof(vq_column));
    if (views == NULL || cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    size = n_rows;
    for (j = 0; j < n_cols; j++) {
        PyObject *values;
        long long start, stride, n;
        const char *op, *fmt;
        int code;

        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(cols_seq, j), "OLLs", &values,
                              &start, &stride, &op) ||
            PyObject_GetBuffer(values, &views[j], PyBUF_FORMAT) < 0)
            goto done;
        n_views = j + 1;
        fmt = views[j].format != NULL ? views[j].format : "B";
        if (strcmp(fmt, "q") == 0 && strcmp(op, "") == 0)
            code = VQ_INT;
        else if (strcmp(fmt, "d") != 0)
            code = -1;
        else if (strcmp(op, "") == 0)
            code = VQ_DOUBLE;
        else if (strcmp(op, "exp") == 0)
            code = VQ_EXP;
        else
            code = strcmp(op, "phi") == 0 ? VQ_PHI : -1;
        if (code < 0) {
            PyErr_Format(PyExc_TypeError,
                         "format_rows cannot write '%s' of format '%s'", op,
                         fmt);
            goto done;
        }
        n = views[j].len / 8;
        if (start < 0 || stride < 1 || start >= n ||
            n_rows - 1 > (n - 1 - start) / stride) {
            PyErr_Format(PyExc_ValueError,
                         "%lld values do not fill %lld rows from %lld by %lld",
                         n, n_rows, start, stride);
            goto done;
        }
        cols[j].data = (const char *)views[j].buf + 8 * start;
        cols[j].stride = stride;
        cols[j].op = code;
        size += n_rows * (code == VQ_INT ? 21 : 25);
    }
    if ((out = PyBytes_FromStringAndSize(NULL, size)) == NULL)
        goto done;
    /* out is not shared yet: filling it needs no GIL */
    Py_BEGIN_ALLOW_THREADS
    size = vq_format(n_rows, (int)n_cols, cols, g.buf, PyBytes_AS_STRING(out));
    Py_END_ALLOW_THREADS
    _PyBytes_Resize(&out, size);
done:
    for (j = 0; j < n_views; j++)
        PyBuffer_Release(&views[j]);
    PyMem_Free(views);
    PyMem_Free(cols);
    Py_XDECREF(cols_seq);
    PyBuffer_Release(&g);
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"run", run, METH_VARARGS, "The trajectory kernel on kernel.py's buffers."},
    {"format_rows", format_rows, METH_VARARGS, "CSV body rows as bytes."},
    {"volterra_image", (PyCFunction)(void (*)(void))volterra_image,
     METH_FASTCALL, "qso._image_py, or None for the Python path."},
    {"volterra_log_map", (PyCFunction)(void (*)(void))volterra_log_map,
     METH_FASTCALL, "qso._log_map_py, or None for the Python path."},
    {"volterra_step", (PyCFunction)(void (*)(void))volterra_step,
     METH_FASTCALL, "qso._step_py, or None for the Python path."},
    {"pcg64_seed", pcg64_seed, METH_O, "A new PCG64 state from seed bytes."},
    {"pcg64_random", (PyCFunction)(void (*)(void))pcg64_random,
     METH_FASTCALL, "The next n doubles of a PCG64 state."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled backend of volqso.kernel and volqso.qso.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
