/* Naive periodic stencil baseline, built with gcc -O3 -march=native.
 *
 * One correlation step of a dense (kz, ky, kx) kernel over an (nz, ny, nx)
 * grid with periodic wrap: out[z,y,x] = sum w[a,b,c] * in[z+a-rz, y+b-ry, x+c-rx].
 * 1-D and 2-D grids are passed with leading extents of 1.  Taps are
 * accumulated in (a, b, c) order, one contiguous row at a time, so the
 * innermost loop is a plain axpy that the compiler vectorizes.
 */

static long wrap(long i, long n)
{
    i %= n;
    return i < 0 ? i + n : i;
}

void stencil_step(const double *in, double *out, long nz, long ny, long nx,
                  const double *w, long kz, long ky, long kx)
{
    long rz = kz / 2, ry = ky / 2, rx = kx / 2;
    for (long z = 0; z < nz; z++) {
        for (long y = 0; y < ny; y++) {
            double *o = out + (z * ny + y) * nx;
            for (long x = 0; x < nx; x++)
                o[x] = 0.0;
            for (long a = 0; a < kz; a++) {
                for (long b = 0; b < ky; b++) {
                    const double *row = in + (wrap(z + a - rz, nz) * ny + wrap(y + b - ry, ny)) * nx;
                    for (long c = 0; c < kx; c++) {
                        double wt = w[(a * ky + b) * kx + c];
                        long d = c - rx;
                        long lo = d < 0 ? -d : 0;
                        long hi = d > 0 ? nx - d : nx;
                        if (wt == 0.0)
                            continue;
                        for (long x = 0; x < lo; x++)
                            o[x] += wt * row[x + d + nx];
                        for (long x = lo; x < hi; x++)
                            o[x] += wt * row[x + d];
                        for (long x = hi; x < nx; x++)
                            o[x] += wt * row[x + d - nx];
                    }
                }
            }
        }
    }
}

/* `steps` updates ping-ponging between a and b; returns 0 if the result is in a, 1 if in b. */
int stencil_run(double *a, double *b, long nz, long ny, long nx,
                const double *w, long kz, long ky, long kx, long steps)
{
    for (long s = 0; s < steps; s++) {
        if (s % 2 == 0)
            stencil_step(a, b, nz, ny, nx, w, kz, ky, kx);
        else
            stencil_step(b, a, nz, ny, nx, w, kz, ky, kx);
    }
    return (int)(steps % 2);
}
