/* Compiled trajectory kernel and CSV row formatter.
 *
 * vq_run and its log-space step log_step are ports of volqso/_kernel_py.run
 * and log_step that match them statement for statement: same loops, same
 * branches, same arithmetic in the same order, same libm calls, so both
 * backends produce bit-identical results.  Keep the two in sync;
 * tests/test_kernel_parity.py enforces it.  The Python log_step is also
 * qso.apply_volterra_log, so a one-step map never comes here.
 *
 * vq_format writes CSV body rows from strided columns, taking exp of the
 * trace values where a column asks for it.  Its reference is
 * volqso/_kernel_py.format_rows: math.exp, then repr(float) (and str(int))
 * through csv.writer; tests/test_kernel_parity.py holds it to the same
 * bytes.
 *
 * Plain C with no Python API.  volqso/kernel.py compiles this file at first
 * import with -ffp-contract=off (fused multiply-adds would change results),
 * allocates every input and output array, validates their sizes and calls
 * vq_run and vq_format through ctypes, which releases the GIL for the call.
 * The only memory the kernel owns is the realloc-grown sojourn-event array,
 * handed back in vq_result.events and released with vq_free.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#define UNDERFLOW_GUARD 1e-280          /* direct factor below -> log domain */
#define DRIFT_TOL 1e-6                  /* |logsumexp| allowed per step */
#define EXP_OVERFLOW 709.782712893384   /* log of the largest double */
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
    vq_event *events;          /* release with vq_free */
    long long error_kind;      /* 0 none, 1 degenerate, 2 breakdown */
    long long error_step;
    double error_drift;
    double min_logphi;
    double max_abs_drift;
} vq_result;

void vq_free(void *p)
{
    free(p);
}

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
 * step takes a row's logs when it first needs them. */
static double log_step(int m, double weights[MAX_M][MAX_M],
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
        acc += exp(newlog[i] - mx);
    return mx + log(acc);
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
int vq_run(int m, const double *a, const double *logx0, long long steps,
           double log_eps, int n_coord, const long long *coord_obs,
           int n_mono, const double *mono_obs, long long n_cp,
           const long long *checkpoints, long long stride, int want_phi,
           long long *trace_steps, double *cesaro, double *trace_logx,
           double *trace_logphi, double *trace_mono, double *final_logx,
           double *scratch, vq_result *r)
{
    double weights[MAX_M][MAX_M], logw[MAX_M][MAX_M];
    double logx[MAX_M], xs[MAX_M], newlog[MAX_M];
    int n_obs = n_coord + n_mono;
    double *sums = scratch, *comps = scratch + n_obs;
    double *mono_vals = scratch + 2 * n_obs;
    long long cp_ptr = 0, tr = 0, ev_cap = 0, open_entry = -1, k;
    long long open_started = 0;
    int cur_vertex = -1;
    double open_lphi = NAN, prev_lphi = NAN, lphi;
    int i, j, kk;

    for (kk = 0; kk < m; kk++)
        for (i = 0; i < m; i++) {
            double w = 1.0 + a[kk * m + i];
            weights[kk][i] = w;
            logw[kk][i] = w > 0.0 ? log(w) : -INFINITY;
        }
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

        if (k % stride == 0 || k == steps) {
            trace_steps[tr] = k;
            for (i = 0; i < m; i++)
                trace_logx[tr * m + i] = logx[i];
            trace_logphi[tr] = lphi;
            for (j = 0; j < n_mono; j++)
                trace_mono[tr * n_mono + j] = mono_vals[j];
            tr++;
        }

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
long long vq_format(long long n_rows, int n_cols, const vq_column *cols,
                    const unsigned long long *g, char *out)
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
