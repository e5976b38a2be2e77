/* One batch of Glauber heat-bath sweeps for sampler.glauber_sample.
 *
 * The caller draws the visiting orders and uniforms with numpy; this loop
 * only consumes them, with the arithmetic of the reference Python loop
 * (build with -ffp-contract=off, never -ffast-math).  J is symmetric, so
 * row i stands in for column i in the local-field update.  Rows are
 * recorded into out after every sweep past burn_in that is a multiple of
 * thin; the return value is the number of rows written.
 */
#include <math.h>
#include <stdint.h>

int64_t glauber_sweeps(int64_t n, int64_t batch, const double *J, const double *h,
                       double *f, double *s, const int64_t *orders, const double *u,
                       int64_t sweep, int64_t burn_in, int64_t thin, int8_t *out)
{
    int64_t recorded = 0;
    for (int64_t k = 0; k < batch; k++, orders += n, u += n) {
        for (int64_t slot = 0; slot < n; slot++) {
            int64_t i = orders[slot];
            double z = 2.0 * (h[i] + f[i]);
            double v;
            if (z > 40.0)
                v = 1.0;
            else if (z < -40.0)
                v = -1.0;
            else
                v = u[slot] < 1.0 / (1.0 + exp(-z)) ? 1.0 : -1.0;
            if (v != s[i]) {
                const double *row = J + i * n;
                double step = 2.0 * v;
                s[i] = v;
                for (int64_t j = 0; j < n; j++)
                    f[j] += row[j] * step;
            }
        }
        sweep++;
        if (sweep > burn_in && (sweep - burn_in) % thin == 0) {
            for (int64_t j = 0; j < n; j++)
                out[j] = (int8_t)s[j];
            out += n;
            recorded++;
        }
    }
    return recorded;
}
