"""Shared numeric helpers for tests: high-order stencil residuals of the
integer heat equation for analytic solution callables, and the image of a
point under a finite transformation."""


def heat_residual_stencil(f, t, xs, h=1e-2):
    """u_t - Laplacian(u) at (t, xs) for a callable f(t, xs) using fourth-order
    central stencils; error O(h^4) for analytic f."""
    def at(tt, yy):
        return f(tt, tuple(yy))

    xs = list(xs)
    ut = (-at(t + 2 * h, xs) + 8 * at(t + h, xs)
          - 8 * at(t - h, xs) + at(t - 2 * h, xs)) / (12 * h)
    lap = 0.0
    for i in range(len(xs)):
        def shift(d):
            ys = list(xs)
            ys[i] += d
            return at(t, ys)

        lap += (-shift(2 * h) + 16 * shift(h) - 30 * at(t, xs)
                + 16 * shift(-h) - shift(-2 * h)) / (12 * h * h)
    return ut - lap


def map_point(tr, t, xs, u):
    """(t~, xs~, u~): the image of the point (t, xs, u) under the
    PointTransformation tr, its flow at tr.eps."""
    tt, yy, m = tr.flow(tr.eps, t, tuple(xs))
    return tt, yy, u * m
