"""Grid-based fractional calculus: Grunwald-Letnikov Riemann-Liouville
derivatives (left and right), fractional integrals, Mittag-Leffler evaluation,
equation residuals on tensor grids, finite-transformation invariance checks,
and product quadrature for the nonlocal double-integral functional J(f, g).

Grids are uniform in every axis; the time axis always starts at 0 (the lower
terminal of the left derivative).  Solutions proportional to t^(alpha-1) are
singular at t = 0: grids store a zero placeholder there, and all accuracy
statements are made on interior windows t >= tcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import HeatEquation
    from .prolong import PointTransformation

__all__ = [
    "GridFunction",
    "GridError",
    "gl_weights",
    "rl_derivative_grid",
    "right_rl_derivative_grid",
    "rl_integral_values",
    "right_rl_integral_values",
    "mittag_leffler",
    "ResidualReport",
    "residual_on_grid",
    "InvarianceReport",
    "invariance_check",
    "j_quadrature",
]


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridFunction:
    """Samples of a scalar field on a uniform tensor grid.

    values axis 0 is time (t_k = k*dt, k = 0..K); the optional trailing axes
    are spatial with starts/steps given per axis.  All values are finite.
    """

    dt: float
    values: np.ndarray
    spatial_starts: tuple[float, ...] = ()
    spatial_steps: tuple[float, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.dt <= 0.0:
            raise GridError("dt must be positive")
        if v.shape[0] < 3:
            raise GridError("need at least 3 time samples")
        if v.ndim - 1 != len(self.spatial_starts) or v.ndim - 1 != len(self.spatial_steps):
            raise GridError("spatial axis metadata does not match value shape")
        if any(s <= 0.0 for s in self.spatial_steps):
            raise GridError("spatial steps must be positive")
        if not np.all(np.isfinite(v)):
            raise GridError("grid values must be finite")

    @property
    def K(self) -> int:
        return self.values.shape[0] - 1

    @property
    def T(self) -> float:
        return self.K * self.dt

    def t_axis(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.dt

    def spatial_axis(self, i: int) -> np.ndarray:
        return self.spatial_starts[i] + np.arange(self.values.shape[i + 1]) * self.spatial_steps[i]

    @staticmethod
    def sample(
        func: Callable,
        T: float,
        K: int,
        spatial: Sequence[tuple[float, float, int]] = (),
        alpha: float | None = None,
        zero_at_origin: bool = False,
    ) -> "GridFunction":
        """Sample func(t, xs[, alpha]) on [0,T] x spatial boxes in one call:
        t is the time axis shaped (K+1, 1, ...) and xs[i] is spatial axis i
        shaped to broadcast against it; a scalar return fills the grid.
        zero_at_origin stores 0.0 on the t=0 slice (for data singular there)
        and leaves t = 0 out of the axis func receives.
        """
        if K < 2:
            raise GridError("K must be >= 2")
        if any(count < 2 for _s, _e, count in spatial):
            raise GridError("each spatial axis needs at least 2 points")
        dt = T / K
        k0 = 1 if zero_at_origin else 0
        n = len(spatial)
        t = (np.arange(k0, K + 1) * dt).reshape((-1,) + (1,) * n)
        xs = tuple((start + np.arange(count) * ((stop - start) / (count - 1)))
                   .reshape((1,) * (i + 1) + (-1,) + (1,) * (n - i - 1))
                   for i, (start, stop, count) in enumerate(spatial))
        shape = (K + 1,) + tuple(count for _s, _e, count in spatial)
        vals = np.zeros(shape)
        got = func(t, xs, alpha) if alpha is not None else func(t, xs)
        vals[k0:] = np.broadcast_to(np.asarray(got, dtype=float), vals[k0:].shape)
        starts = tuple(s[0] for s in spatial)
        steps = tuple((s[1] - s[0]) / (s[2] - 1) for s in spatial)
        return GridFunction(dt, vals, starts, steps)


# ---------------------------------------------------------------------------
# Grunwald-Letnikov one-sided operators
# ---------------------------------------------------------------------------

def gl_weights(alpha: float, count: int) -> np.ndarray:
    """Binomial weights w_0..w_count of (1-z)^alpha:
    w_0 = 1, w_j = w_{j-1} * (1 - (alpha+1)/j)."""
    if not (0.0 < alpha < 1.0):
        raise GridError(f"alpha must lie in (0, 1): {alpha}")
    if count < 0:
        raise GridError("count must be >= 0")
    return np.concatenate(([1.0], np.cumprod(1.0 - (alpha + 1.0) / np.arange(1, count + 1))))


def _gl_integral_weights(beta: float, count: int) -> np.ndarray:
    # coefficients of (1-z)^(-beta): all positive; implements I^beta
    # w_0 = 1, w_j = w_{j-1} * (1 + (beta-1)/j)
    return np.concatenate(([1.0], np.cumprod(1.0 + (beta - 1.0) / np.arange(1, count + 1))))


# Output rows per Toeplitz slab: bounds the slab at 64*K floats (2 MB at K = 4000).
_BLOCK_ROWS = 64


def _toeplitz_blocks(w: np.ndarray, v: np.ndarray, starts: Iterable[int]):
    """Row blocks of (w * v)[k] = sum_{j<=k} w_j v_{k-j} along axis 0: yields
    (k0, rows k0..k1-1 of the product, flattened to (k1-k0, -1)) for the
    block starting at each k0 in starts (multiples of _BLOCK_ROWS).

    T[k, i] = w_{k-i} for i <= k and 0 above the diagonal; each block of at
    most _BLOCK_ROWS output rows is one BLAS matmul of the slab T[k0:k1, :k1]
    with v[:k1].  Every output sums the same products w_j v_{k-j} as the
    direct sum (plus exact zeros), only in another order, so the per-entry
    error bound of a dot product holds for each entry; a block is the same
    matmul, so the same bits, whichever other blocks are computed."""
    K = v.shape[0]
    flat = v.reshape(K, -1)
    # row k of T is the window starting at K-1-k of (w_{K-1}, ..., w_0, 0, ..., 0)
    padded = np.concatenate((w[K - 1::-1], np.zeros(K - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, K)
    for k0 in starts:
        k1 = min(k0 + _BLOCK_ROWS, K)
        # the slab, a copy, lives for this matmul only
        yield k0, np.ascontiguousarray(windows[K - k1:K - k0][::-1, :k1]) @ flat[:k1]


def _causal_convolve(w: np.ndarray, v: np.ndarray, rows: Sequence[int] | None = None) -> np.ndarray:
    """(w * v)[k] = sum_{j<=k} w_j v_{k-j} along axis 0 (_toeplitz_blocks).
    A list of rows computes only their blocks and allocates only those rows,
    in that order, bit-identical to the same rows of the full product."""
    rows = np.arange(v.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    out = np.empty((len(rows),) + v.shape[1:])
    # the block starts without np.unique, which would import numpy.ma
    for k0, block in _toeplitz_blocks(w, v, sorted(set((rows - rows % _BLOCK_ROWS).tolist()))):
        mine = (rows >= k0) & (rows < k0 + _BLOCK_ROWS)
        out.reshape(len(rows), -1)[mine] = block[rows[mine] - k0]
    return out


def rl_derivative_grid(u: GridFunction, alpha: float) -> GridFunction:
    """Left Riemann-Liouville derivative of order alpha in (0, 1) on the grid
    (GL convolution).  First-order accurate away from t = 0 for data that is
    smooth plus a t^(alpha-1) kernel part; values near t = 0 are unreliable
    when the data is singular there."""
    vals = _causal_convolve(gl_weights(alpha, u.K), u.values)
    vals /= u.dt ** alpha
    return replace(u, values=vals)


def _time_reversed(u: GridFunction) -> GridFunction:
    # a contiguous copy, so that the Toeplitz products stay BLAS matmuls
    return replace(u, values=u.values[::-1].copy())


def right_rl_derivative_grid(u: GridFunction, alpha: float) -> GridFunction:
    """Right Riemann-Liouville derivative (terminal T): the left derivative
    of the time-reversed grid, reversed back."""
    return replace(u, values=rl_derivative_grid(_time_reversed(u), alpha).values[::-1])


def rl_integral_values(u: GridFunction, beta: float, rows: Sequence[int] | None = None) -> np.ndarray:
    """Left fractional integral I^beta along the time axis (GL quadrature);
    only the time rows listed in rows, in that order, when given."""
    if beta <= 0.0:
        raise GridError("integral order must be positive")
    w = _gl_integral_weights(beta, u.K)
    return _causal_convolve(w, u.values, rows) * u.dt ** beta


def right_rl_integral_values(u: GridFunction, beta: float) -> np.ndarray:
    """Right fractional integral (from t to T) along the time axis: the left
    integral of the time-reversed grid, reversed back."""
    return rl_integral_values(_time_reversed(u), beta)[::-1]


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------

def mittag_leffler(alpha: float, beta: float, z: float | np.ndarray) -> float | np.ndarray:
    """Two-parameter Mittag-Leffler E_{alpha,beta}(z) by direct series with
    log-gamma terms and compensated summation; |z| <= 50 (series window).
    An array z gives an array of its shape: each entry stops on its own
    terms, is the fsum of its own terms and raises what its scalar call would."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    flat = np.asarray(z, dtype=float).ravel()
    if np.abs(flat).max(initial=0.0) > 50.0:
        raise ValueError(f"|z| = {np.abs(flat).max()} outside the series-safe window (50)")
    total = np.empty_like(flat)
    todo, count = np.arange(flat.size), 64
    while todo.size:
        # terms k < count, one row per entry still to do; an entry that has
        # not stopped starts over with four times as many terms
        zs, k = flat[todo], np.arange(min(count, 10001))
        g = alpha * k + beta
        # 1/Gamma is 0 at a pole (lg = inf), and at z = 0 only the k=0 term survives
        lg, sign = np.array([(math.inf, 1.0) if x <= 0.0 and x == math.floor(x)
                             else _lgamma_signed(x) for x in g.tolist()]).T
        l = np.log(np.abs(zs), out=np.zeros_like(zs), where=zs != 0.0)[:, None] * k - lg
        l[zs == 0.0, 1:] = -math.inf
        terms = sign * np.exp(np.minimum(l, 700.0))  # l > 700 raises below or lies past the stop
        terms[:, 1::2] *= np.where(zs < 0.0, -1.0, 1.0)[:, None]
        running = np.cumsum(terms, axis=1)  # sequential, as the series adds its terms
        small = np.abs(terms) < 1e-16 * np.maximum(np.abs(running), 1e-300)
        third = small[:, 2:] & small[:, 1:-1] & small[:, :-2]  # the third negligible term in a row
        stopped = third.any(axis=1)
        stop = np.where(stopped, third.argmax(axis=1) + 2, k.size)
        past = k > stop[:, None]
        over = ((l > 700.0) & ~past).any(axis=1)
        if over.any():
            raise OverflowError("Mittag-Leffler series term exceeds double range; "
                                f"alpha={alpha}, beta={beta}, z={zs[over][0]}")
        terms[past] = 0.0  # exact zeros, which leave each fsum unchanged
        sums = [math.fsum(row) for row in terms[:, :stop[stopped].max(initial=0) + 1].tolist()]
        lost = stopped & (np.abs(terms).max(axis=1) > 1e12 * np.maximum(np.abs(sums), 1e-250))
        if lost.any():
            raise ArithmeticError("Mittag-Leffler series loses all double precision to "
                                  f"cancellation at alpha={alpha}, beta={beta}, z={zs[lost][0]}")
        total[todo] = sums
        todo = todo[~stopped]
        if todo.size and k.size > 10000:
            raise ArithmeticError("Mittag-Leffler series did not converge in 10000 terms")
        count *= 4
    return float(total[0]) if np.ndim(z) == 0 else total.reshape(np.shape(z))


def _lgamma_signed(x: float) -> tuple[float, float]:
    if x > 0.0:
        return math.lgamma(x), 1.0
    # Gamma alternates sign between negative integers: positive on (-2,-1),
    # negative on (-1,0), i.e. sign = +1 iff floor(x) is even
    lg = math.lgamma(x)
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return lg, sign


# ---------------------------------------------------------------------------
# residuals and invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    interior_max: float
    tcut: float
    K: int


def _interior_laplacian(vals: np.ndarray, steps: Sequence[float]) -> np.ndarray:
    """The central Laplacian of each row on the spatial interior only:
    (hi - 2*mid + lo) / h^2, summed in axis order."""
    mid = [slice(None)] + [slice(1, -1)] * len(steps)
    lap = np.zeros_like(vals[tuple(mid)])
    for ax, h in enumerate(steps, start=1):
        lo, hi = list(mid), list(mid)
        lo[ax], hi[ax] = slice(0, -2), slice(2, None)
        # one temporary, freed before the next axis allocates its own
        tmp = 2.0 * vals[tuple(mid)]
        np.subtract(vals[tuple(hi)], tmp, out=tmp)
        tmp += vals[tuple(lo)]
        tmp /= h ** 2
        lap += tmp
        del tmp
    return lap


def residual_on_grid(
    eq: "HeatEquation",
    u: GridFunction,
    alpha: float,
    tcut: float | None = None,
) -> ResidualReport:
    """Pointwise D_t^alpha u - Laplacian(u) with a GL time derivative
    and second-order central Laplacian, reported over interior points
    (t >= tcut, default 0.1*T, and spatial interior)."""
    if u.values.ndim - 1 != eq.n:
        raise GridError(f"grid has {u.values.ndim - 1} spatial axes, equation has n={eq.n}")
    if min(u.values.shape) < 16:
        raise GridError("grid too coarse: need at least 16 points per axis")
    cut = 0.1 * u.T if tcut is None else tcut
    kmin = max(int(math.ceil(cut / u.dt)), 1)
    if kmin > u.K:
        raise GridError(f"no time row at or after tcut = {cut} (T = {u.T})")
    # one block of GL rows at a time, from the block that holds kmin: the
    # Laplacian is row-local, so no grid-sized temporary is alive at once
    interior = (slice(None),) + (slice(1, -1),) * eq.n
    scale = u.dt ** alpha
    peak = -math.inf
    blocks = range(kmin - kmin % _BLOCK_ROWS, u.K + 1, _BLOCK_ROWS)
    for k0, block in _toeplitz_blocks(gl_weights(alpha, u.K), u.values, blocks):
        res = block.reshape((-1,) + u.values.shape[1:])
        res /= scale
        res[interior] -= _interior_laplacian(u.values[k0:k0 + len(res)], u.spatial_steps)
        np.abs(res, out=res)
        peak = max(peak, float(np.max(res[interior][max(kmin - k0, 0):])))
    return ResidualReport(interior_max=peak, tcut=kmin * u.dt, K=u.K)


# the largest transformed/base residual ratio an invariance check passes
_TOLERANCE_FACTOR = 3.0


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    base_interior_max: float
    transformed_interior_max: float
    ratio: float
    refined_transformed_max: float | None = None
    transformed_decreases: bool | None = None


def invariance_check(
    eq: "HeatEquation",
    solution: Callable,
    transform: "PointTransformation",
    alpha: float,
    T: float = 1.0,
    K: int = 512,
    spatial: Sequence[tuple[float, float, int]] = ((-1.0, 1.0, 33),),
    tcut: float | None = None,
    refine: bool = False,
) -> InvarianceReport:
    """Residual of the transformed solution versus the untransformed one.

    Passes when the transformed interior residual stays within
    _TOLERANCE_FACTOR of the base residual; with refine=True the residual of
    the transformed function must also decrease when the time grid doubles
    (for a non-symmetry the true residual survives refinement, so the value
    stalls or grows even when coarse-grid cancellation makes the ratio look
    small).

    The solution callable (t, xs, alpha) must be defined on the preimage of
    the sampled window; preimages with t <= 0 are rejected (the transformed
    domain leaves the left terminal of the fractional derivative).
    """
    if transform.n != eq.n:
        raise GridError("transformation and equation dimensions differ")
    # window check at every vertex of the sampled (t, x) box, exact for time
    # maps affine in (t, x) and for those of t alone
    t, *xs = np.meshgrid((T / K, T), *((lo, hi) for lo, hi, _c in spatial), indexing="ij")
    t0 = np.min(transform.coord_inverse(t, tuple(xs))[0])
    if t0 <= 0.0:
        raise GridError(f"transformed domain leaves the sampled window: preimage t = {t0:.3g} <= 0")
    pushed = transform.push_solution(solution)
    spatial = tuple(map(tuple, spatial))
    base = _base_interior_max(eq, solution, alpha, T, K, spatial, tcut)
    moved = _interior_max(eq, pushed, alpha, T, K, spatial, tcut)
    denom = base if base > 0 else 1e-300
    ratio = moved / denom
    passed = ratio <= _TOLERANCE_FACTOR
    refined = None
    decreases = None
    if refine:
        refined = _interior_max(eq, pushed, alpha, T, 2 * K, spatial, tcut)
        decreases = refined < moved
        passed = passed and decreases
    return InvarianceReport(
        passed=bool(passed),
        base_interior_max=base,
        transformed_interior_max=moved,
        ratio=float(ratio),
        refined_transformed_max=refined,
        transformed_decreases=decreases,
    )


def _interior_max(eq, solution, alpha, T, K, spatial, tcut) -> float:
    grid = GridFunction.sample(solution, T, K, spatial, alpha=alpha, zero_at_origin=True)
    return residual_on_grid(eq, grid, alpha, tcut=tcut).interior_max


# The untransformed residual is the same for every generator checked against
# one solution; solutions are pure functions of (t, xs, alpha).
_base_interior_max = lru_cache(maxsize=8)(_interior_max)


# ---------------------------------------------------------------------------
# the nonlocal double integral J(f, g)
# ---------------------------------------------------------------------------

def _legendre_pair(k: int, c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_k(x) and P_{k-1}(x) at x = c + d, c = 0 or 1 per entry, by the
    three-term recurrence j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}.

    It carries e_j = P_j - c P_{j-1} instead of P_j itself (Reinsch's
    modification where c = 1): near x = 1 the P_j are close to each other,
    and the small d = x - 1 would be rounded off in x itself."""
    p0, p1, e = np.ones_like(d), c + d, d
    cm1 = c - 1.0
    for j in range(2, k + 1):
        e = ((j - 1) * (c * e + cm1 * p0) + (2 * j - 1) * d * p1) / j
        p0, p1 = p1, c * p1 + e
    return p1, p0


@lru_cache(maxsize=16)
def _gauss01(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-point Gauss-Legendre nodes (ascending) and weights on [0, 1].

    One pass of the Legendre recurrence (_legendre_pair) at the cosine
    guesses x_i = cos(pi (i - 1/4) / (k + 1/2)), for the ceil(k/2) roots
    x >= 0 only (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)); the other
    half mirrors them.  Each guess is corrected by Newton's method on the
    Taylor series of P_k about it, whose terms follow from Legendre's
    equation differentiated m times (Glaser, Liu & Rokhlin, SIAM J. Sci.
    Comput. 29 (2007)); the weights 2 / ((1 - x^2) P_k'(x)^2) on [-1, 1] read
    P_k' off the same series.  A root x > 1/2 is held as 1 + d, so that the
    nodes near 0 and 1 keep their relative accuracy: within 4 ulp of 40-digit
    mpmath, weights within 1.3e-14, at each k tested up to 1025.  O(k) memory
    and one O(k^2) pass; cached, so a process builds each rule once."""
    theta = np.pi * (np.arange((k + 1) // 2) + 0.75) / (k + 0.5)
    near1 = theta < np.pi / 3  # x > 1/2
    c = near1.astype(float)
    d = np.where(near1, -2.0 * np.sin(theta / 2) ** 2, np.cos(theta))
    if k % 2:
        d[-1] = 0.0  # the middle root of an odd k
    p, q = _legendre_pair(k, c, d)
    one_minus_x2 = ((1.0 - c) - d) * ((1.0 + c) + d)
    a = [p, k * (q - (c * p + d * p)) / one_minus_x2]  # a[m] = P_k^(m)(x) / m!
    for j in range(1, 11):  # j(j-1) - k(k+1) = (j-1-k)(j+k)
        a.append((2 * j * j * (c + d) * a[j] + (j - 1 - k) * (j + k) * a[j - 1])
                 / (j * (j + 1) * one_minus_x2))
    h = 0.0
    for step in range(5):  # four Newton steps; the fifth Horner pass gives P_k'(x + h)
        val = dp = 0.0
        for coef in a[::-1]:
            dp, val = dp * h + val, val * h + coef
        if step < 4:
            h -= val / dp
    d += h
    ws = 1.0 / (((1.0 - c) - d) * ((1.0 + c) + d) * dp ** 2)  # half the weight on [-1, 1]
    lower = np.where(near1, -0.5 * d, 0.5 * (1.0 - d))  # (1 - x) / 2, descending x
    upper = np.where(near1, 1.0 + 0.5 * d, 0.5 * (1.0 + d))  # (1 + x) / 2
    s = np.concatenate((lower, upper[:k // 2][::-1]))
    ws = np.concatenate((ws, ws[:k // 2][::-1]))
    s.flags.writeable = ws.flags.writeable = False  # shared by every caller
    return s, ws


def j_quadrature(
    f: Callable,
    g: Callable,
    alpha: float,
    t: float,
    T: float,
    nodes: int = 64,
) -> float | np.ndarray:
    """J(f, g)(t) = 1/Gamma(1-alpha) * int_0^t int_t^T f(tau) g(mu)
    (mu - tau)^(-alpha) dmu dtau, for 0 < alpha < 1.

    The corner singularity at tau = mu = t is absorbed by the graded
    substitutions tau = t(1 - s^(1/(1-alpha))), mu = t + (T-t) r^(1/(1-alpha))
    on tensor Gauss-Legendre nodes (nodes x nodes).

    f and g are called once, on the 1-D array of nodes.  A scalar or
    (nodes,) return gives one J value; when either returns (nodes, C), the
    columns are C functions sharing the nodes and one J per column is
    returned."""
    if not (0.0 < alpha < 1.0):
        raise GridError(f"alpha must lie in (0, 1): {alpha}")
    if not (0.0 < t < T):
        raise GridError(f"need 0 < t < T: t={t}, T={T}")
    if nodes < 1:
        raise GridError(f"need at least one node: {nodes}")
    s, ws = _gauss01(nodes)
    p = 1.0 / (1.0 - alpha)
    sp, sq = s ** p, s ** (p - 1.0)
    tau = t * (1.0 - sp)
    dtau = t * p * sq
    mu = t + (T - t) * sp
    dmu = (T - t) * p * sq
    # node values as rows: (nodes,) for one function, (C, nodes) for C columns
    fvals = np.asarray(f(tau), dtype=float).T * (dtau * ws)
    gvals = np.asarray(g(mu), dtype=float).T * (dmu * ws)
    # fvals @ kern with kern[i, j] = (mu_j - tau_i)^(-alpha), built one block
    # of _BLOCK_ROWS columns at a time
    fk = np.empty(fvals.shape)
    for j0 in range(0, nodes, _BLOCK_ROWS):
        kern = np.subtract(mu[None, j0:j0 + _BLOCK_ROWS], tau[:, None])
        fk[..., j0:j0 + _BLOCK_ROWS] = fvals @ np.power(kern, -alpha, out=kern)
    total = np.einsum("...i,...i->...", fk, gvals) / math.gamma(1.0 - alpha)
    return float(total) if total.ndim == 0 else total
