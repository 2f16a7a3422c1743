/* Compiled trajectory kernel.
 *
 * Port of volqso/_kernel_py.run that matches it statement for statement:
 * same loops, same branches, same arithmetic in the same order, same libm
 * calls, so both backends produce bit-identical results.  Keep the two in
 * sync; tests/test_kernel_parity.py enforces it.
 *
 * Plain C with no Python API.  volqso/kernel.py compiles this file at first
 * import with -ffp-contract=off (fused multiply-adds would change results),
 * allocates every input and output array, validates their sizes and calls
 * vq_run through ctypes, which releases the GIL for the whole run.  The only
 * memory the kernel owns is the realloc-grown sojourn-event array, handed
 * back in vq_result.events and released with vq_free.
 */

#include <math.h>
#include <stdlib.h>

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

/* Iterate the Volterra map for `steps` steps from log point `logx0`.
 *
 * Inputs: a (m x m, row-major), logx0 (m), coord_obs (n_coord indices in
 * [0, m)), mono_obs (n_mono x m exponents), checkpoints (n_cp, ascending).
 * Outputs, sized by the caller: trace_steps, trace_logx (x m),
 * trace_logphi and trace_mono (x n_mono), each with room for
 * steps / stride + 2 rows; cesaro (n_cp x n_obs); final_logx (m); scratch
 * (2 n_obs + n_mono).
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
        double s, c, t, tmp, g, lg, mx, acc, drift, adrift, f, lf;

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
        for (i = 1; i < m; i++)
            if (newlog[i] > mx)
                mx = newlog[i];
        if (mx == -INFINITY || isnan(mx)) {
            r->error_kind = 1;
            r->error_step = k;
            break;
        }
        acc = 0.0;
        for (i = 0; i < m; i++)
            acc += exp(newlog[i] - mx);
        drift = mx + log(acc);
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
