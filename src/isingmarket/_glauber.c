/* Glauber heat-bath sweeps for sampler.glauber_sample, in two stages.
 *
 * glauber_draw fills one batch's random stream from the caller's numpy
 * Generator through its bit generator (rng.bit_generator.ctypes.bit_generator),
 * in the order in which rng.permuted(rows, axis=1) and then
 * rng.random((batch, n)) would draw: first every sweep's visiting order into
 * orders, each a Fisher-Yates shuffle of 0..n-1 with numpy's random_interval
 * (mask rejection on next_uint32), then batch*n next_doubles into u, one per
 * visited slot.  The caller then writes each slot's logit threshold
 * t = ln(u / (1 - u)) (-inf at u = 0) beside u, still on the drawing thread.
 * glauber_sweeps runs the batch, reading orders, u and t where a single-stage
 * loop would call the bit generator, so the chain is the one the numpy calls
 * give, which tests/conftest.reference_glauber checks bit for bit, whichever
 * thread draws the stream.
 *
 * The reference sets a spin to +1 iff z > 40, or |z| <= 40 and
 * u < fl(1 / (1 + exp(-z))).  The sweeps decide by z > t instead, which takes
 * no exp on the chain that each flip's field update feeds, and run that exact
 * test only where the two could disagree: when |z - t| <= 1e-6 + 2^-48/(1 - u),
 * when |z| > 40, or when 1 - u < 2^-40.  fl(1 / (1 + exp(-z))) lies within
 * a few 2^-53 (relative) of the true sigmoid, so u < fl(...) and z > logit(u)
 * can differ only within a few 2^-53 / (1 - u) of logit(u), a linear bound
 * that holds while 1 - u is far above 2^-53; numpy's divide and log keep t
 * within 1e-14 of logit(u); the band covers both with room to spare, and the
 * tail u -> 1, where the linear bound is least sharp, always takes the exact
 * test.  The arithmetic is that of the reference loop: build with
 * -ffp-contract=off, never -ffast-math, so the vectorized field update rounds
 * each element as the scalar one does.  J is symmetric, so row i stands in for
 * column i in that update.  Rows are recorded into out after every sweep past
 * burn_in that is a multiple of thin; the return value is the number of rows
 * written.  Orders are int32: n < 2^31, since J's n*n doubles must fit in
 * memory.
 */
#include <math.h>
#include <stdint.h>

/* numpy/random/bitgen.h, declared here so the build needs no numpy headers */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

/* numpy's random_interval for 0 < max < 2^32: uniform on 0..max */
static uint32_t interval(bitgen_t *rng, uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = rng->next_uint32(rng->state) & mask) > max)
        ;
    return value;
}

void glauber_draw(int64_t n, int64_t batch, bitgen_t *rng, int32_t *orders, double *u)
{
    for (int64_t k = 0; k < batch; k++) {
        int32_t *order = orders + k * n;
        for (int64_t slot = 0; slot < n; slot++)
            order[slot] = (int32_t)slot;
        for (int64_t i = n - 1; i > 0; i--) {
            int32_t j = (int32_t)interval(rng, (uint32_t)i), swap = order[j];
            order[j] = order[i];
            order[i] = swap;
        }
    }
    for (int64_t m = 0; m < batch * n; m++)
        u[m] = rng->next_double(rng->state);  /* drawn whatever z will be */
}

CLONES
int64_t glauber_sweeps(int64_t n, int64_t batch, const double *restrict J, const double *h,
                       double *restrict f, double *s, const int32_t *orders, const double *u,
                       const double *t, int64_t sweep, int64_t burn_in, int64_t thin,
                       int8_t *out)
{
    int64_t recorded = 0;
    for (int64_t k = 0; k < batch; k++, orders += n, u += n, t += n) {
        for (int64_t slot = 0; slot < n; slot++) {
            int64_t i = orders[slot];
            double z = 2.0 * (h[i] + f[i]);
            double w = 1.0 - u[slot];  /* exact for the generator's multiples of 2^-53 */
            double v;
            /* |z - t| > 1e-6 + 2^-48 / w, times w > 0; false if z is NaN */
            if (fabs(z - t[slot]) * w > 1e-6 * w + 0x1p-48 && fabs(z) <= 40.0 && w >= 0x1p-40)
                v = z > t[slot] ? 1.0 : -1.0;
            else if (z > 40.0)
                v = 1.0;
            else if (z < -40.0)
                v = -1.0;
            else
                v = u[slot] < 1.0 / (1.0 + exp(-z)) ? 1.0 : -1.0;
            if (v != s[i]) {
                const double *restrict row = J + i * n;
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
