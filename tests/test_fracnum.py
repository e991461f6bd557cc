"""Grid fractional calculus: GL operators, Mittag-Leffler, the J
functional, residual reports, invariance checks, and grid I/O."""

import math
from functools import lru_cache

import numpy as np
import pytest

from liesym.catalog import FRACTIONAL, HeatEquation
from liesym.fracnum import (
    GridFunction,
    GridError,
    _causal_convolve,
    _gauss01,
    _gl_integral_weights,
    _legendre_pair,
    _lgamma_signed,
    gl_weights,
    invariance_check,
    j_quadrature,
    mittag_leffler,
    residual_on_grid,
    right_rl_derivative_grid,
    right_rl_integral_values,
    rl_derivative_grid,
    rl_integral_values,
)

from .helpers import map_point


def gamma_reciprocal(x: float) -> float:
    """1/Gamma(x); exactly 0 at the poles (nonpositive integers)."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    lg, sign = _lgamma_signed(x)
    return sign * math.exp(-lg)


def brute_mittag_leffler(alpha, beta, z, terms=10000):
    vals = []
    for k in range(terms):
        r = gamma_reciprocal(alpha * k + beta)
        if r == 0.0:
            continue
        try:
            vals.append(z ** k * r)
        except OverflowError:
            break
    return math.fsum(vals)


class TestGLWeights:
    def test_first_values_frozen(self):
        w = gl_weights(0.5, 2)
        assert w[0] == 1.0
        assert w[1] == -0.5
        assert w[2] == -0.125

    def test_alpha_to_one_limit(self):
        w = gl_weights(1.0 - 1e-12, 4)
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(-1.0)
        assert abs(w[2]) < 1e-9 and abs(w[3]) < 1e-9

    def test_partial_sum_asymptotics(self):
        # sum_{j<=K} w_j = K^{-alpha}/Gamma(1-alpha) asymptotically
        K, alpha = 1000, 0.5
        s = float(gl_weights(alpha, K).sum())
        predicted = K ** (-alpha) / math.gamma(1.0 - alpha)
        assert abs(s - predicted) / predicted < 0.02

    def test_window(self):
        with pytest.raises(GridError):
            gl_weights(1.5, 4)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0 - 1e-12])
    @pytest.mark.parametrize("count", [0, 1, 2, 256, 4000])
    def test_equal_to_recurrence(self, alpha, count):
        # bit for bit the left-to-right products of the documented recurrence
        w, wi = [1.0], [1.0]
        for j in range(1, count + 1):
            w.append(w[-1] * (1.0 - (alpha + 1.0) / j))
            wi.append(wi[-1] * (1.0 + (alpha - 1.0) / j))
        assert gl_weights(alpha, count).tolist() == w
        assert _gl_integral_weights(alpha, count).tolist() == wi


def _direct_rows(w, v, rows):
    """Reference (w * v)[k] = sum_{j<=k} w_j v_{k-j} by math.fsum, with the
    per-entry scale sum_j |w_j| |v_{k-j}|, for the listed rows."""
    flat = v.reshape(v.shape[0], -1)
    ref = np.empty((len(rows), flat.shape[1]))
    scale = np.empty_like(ref)
    for r, k in enumerate(rows):
        for c in range(flat.shape[1]):
            terms = [w[j] * flat[k - j, c] for j in range(k + 1)]
            ref[r, c] = math.fsum(terms)
            scale[r, c] = math.fsum(abs(x) for x in terms)
    return ref, scale


def _checked_rows(K):
    # every row of a short axis; the rows around each block edge of a long one
    if K <= 129:
        return list(range(K))
    return sorted({0, 1, 63, 64, 65, 127, 128, 129, K // 2, K - 2, K - 1})


class TestCausalConvolve:
    """The blocked Toeplitz kernel against a direct compensated sum: every
    entry within 1e-13 of sum_j |w_j| |v_{k-j}| (a per-entry bound, which an
    FFT would not meet on cancelling sums)."""

    SHAPES = [(), (7,), (5, 3)]

    @pytest.mark.parametrize("K", [1, 2, 63, 64, 65, 129, 2001])
    @pytest.mark.parametrize("trailing", SHAPES)
    @pytest.mark.parametrize("weights", ["derivative", "integral"])
    def test_matches_direct_sum(self, K, trailing, weights):
        rng = np.random.default_rng(K)
        v = rng.standard_normal((K,) + trailing)
        if weights == "derivative":
            w = gl_weights(0.4, K - 1)
        else:
            w = _gl_integral_weights(0.6, K - 1)
        out = _causal_convolve(w, v)
        assert out.shape == v.shape
        rows = _checked_rows(K)
        ref, scale = _direct_rows(w, v, rows)
        got = out.reshape(K, -1)[rows]
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("K", [63, 64, 65, 129, 2001])
    @pytest.mark.parametrize("trailing", SHAPES)
    def test_left_and_right_operators(self, K, trailing):
        # dt = 1 leaves the scale factors dt^(+-alpha) exactly 1
        rng = np.random.default_rng(K + 1)
        v = rng.standard_normal((K,) + trailing)
        u = GridFunction(1.0, v, (0.0,) * len(trailing), (1.0,) * len(trailing))
        rows = _checked_rows(K)
        mirrored = [K - 1 - k for k in rows]
        a = 0.3
        for w, left, right in [
            (gl_weights(a, K - 1),
             rl_derivative_grid(u, a).values,
             right_rl_derivative_grid(u, a).values),
            (_gl_integral_weights(a, K - 1),
             rl_integral_values(u, a), right_rl_integral_values(u, a)),
        ]:
            ref, scale = _direct_rows(w, v, rows)
            assert np.all(np.abs(left.reshape(K, -1)[rows] - ref) <= 1e-13 * scale)
            ref, scale = _direct_rows(w, v[::-1], rows)
            got = right.reshape(K, -1)[mirrored]
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("K", [200, 4001])
    @pytest.mark.parametrize("trailing", [(), (5,), (3, 2)])
    def test_selected_rows_equal_full_product(self, K, trailing):
        # the same block matmuls, so the same bits; rows unsorted, one repeated
        rng = np.random.default_rng(K)
        v = rng.standard_normal((K,) + trailing)
        w = _gl_integral_weights(0.5, K - 1)
        rows = [K - 1, 64, 0, 63, 64]
        got = _causal_convolve(w, v, rows)
        assert got.shape == (len(rows),) + trailing
        assert np.array_equal(got, _causal_convolve(w, v)[rows])


class TestLeftDerivative:
    def test_power_rule(self):
        # D^0.5 t = Gamma(2)/Gamma(1.5) * t^0.5 via log-gamma
        alpha, K = 0.5, 1000
        g = GridFunction.sample(lambda t, xs: t, 1.0, K)
        d = rl_derivative_grid(g, alpha)
        t = g.t_axis()
        exact = math.gamma(2.0) / math.gamma(1.5) * np.sqrt(t)
        mask = t >= 0.1
        rel = np.max(np.abs(d.values[mask] - exact[mask]) / exact[mask])
        assert rel < 0.01

    def test_kernel_function_refines_to_zero(self):
        alpha = 0.6
        prev = None
        for K in (500, 1000, 2000):
            g = GridFunction.sample(lambda t, xs: t ** (alpha - 1.0), 1.0, K,
                                    zero_at_origin=True)
            d = rl_derivative_grid(g, alpha)
            t = g.t_axis()
            m = float(np.max(np.abs(d.values[t >= 0.1])))
            if prev is not None:
                assert m < prev * 1.1
            prev = m

    def test_zero_input(self):
        g = GridFunction(0.01, np.zeros(101))
        d = rl_derivative_grid(g, 0.5)
        assert np.all(d.values == 0.0)


class TestRightDerivative:
    def test_right_kernel_refines_to_zero(self):
        alpha, T = 0.6, 1.0
        prev = None
        for K in (500, 1000, 2000):
            g = GridFunction.sample(
                lambda t, xs: np.where(t < T, T - t, np.inf) ** (alpha - 1.0), T, K)
            d = right_rl_derivative_grid(g, alpha)
            t = g.t_axis()
            m = float(np.max(np.abs(d.values[t <= 0.9])))
            if prev is not None:
                assert m < prev * 1.1
            prev = m

    def test_reflection_symmetry(self):
        # right derivative of u(T-t) mirrors the left derivative of u(t)
        alpha, T, K = 0.5, 1.0, 256
        g = GridFunction.sample(lambda t, xs: t * (1 + t), T, K)
        left = rl_derivative_grid(g, alpha).values
        refl = GridFunction(g.dt, g.values[::-1].copy())
        right = right_rl_derivative_grid(refl, alpha).values
        assert np.max(np.abs(right[::-1] - left)) < 1e-10

    def test_power_rule_by_reflection(self):
        alpha, T, K = 0.5, 1.0, 1000
        g = GridFunction.sample(lambda t, xs: T - t, T, K)
        d = right_rl_derivative_grid(g, alpha)
        t = g.t_axis()
        exact = math.gamma(2.0) / math.gamma(1.5) * np.sqrt(np.maximum(T - t, 0.0))
        mask = t <= 0.9
        rel = np.max(np.abs(d.values[mask] - exact[mask]) / exact[mask])
        assert rel < 0.01


class TestFractionalIntegrals:
    def test_integral_power_rule(self):
        # I^beta t = t^(1+beta)/Gamma(2+beta) * Gamma(2)
        beta, K = 0.5, 1000
        g = GridFunction.sample(lambda t, xs: t, 1.0, K)
        vals = rl_integral_values(g, beta)
        t = g.t_axis()
        exact = math.gamma(2.0) / math.gamma(2.0 + beta) * t ** (1.0 + beta)
        mask = t >= 0.1
        assert np.max(np.abs(vals[mask] - exact[mask])) < 5e-3

    def test_integral_of_kernel_is_constant(self):
        # I^(1-alpha) t^(alpha-1) = Gamma(alpha) exactly; the GL quadrature
        # approaches it at rate h^alpha (the first-cell mass of the singular
        # integrand dominates the error)
        alpha = 0.5
        errs = []
        for K in (500, 1000, 2000):
            g = GridFunction.sample(lambda t, xs: t ** (alpha - 1.0), 1.0, K,
                                    zero_at_origin=True)
            vals = rl_integral_values(g, 1.0 - alpha)
            t = g.t_axis()
            mask = t >= 0.2
            errs.append(float(np.max(np.abs(vals[mask] - math.gamma(alpha)))))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 5e-2

    def test_right_integral_mirror(self):
        beta, T, K = 0.5, 1.0, 512
        g = GridFunction.sample(lambda t, xs: (T - t), T, K)
        vals = right_rl_integral_values(g, beta)
        refl = GridFunction.sample(lambda t, xs: t, T, K)
        left = rl_integral_values(refl, beta)
        assert np.max(np.abs(vals - left[::-1])) < 1e-10


class TestMittagLeffler:
    def test_at_zero(self):
        assert mittag_leffler(0.5, 1.0, 0.0) == pytest.approx(1.0)

    def test_exponential_identity(self):
        assert abs(mittag_leffler(1.0, 1.0, 1.0) - math.e) < 1e-12

    def test_brute_force_oracle(self):
        mine = mittag_leffler(0.5, 0.5, -1.0)
        ref = brute_mittag_leffler(0.5, 0.5, -1.0)
        assert abs(mine - ref) < 1e-12

    def test_recurrence_lattice(self):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b) on a 5x5x5 lattice
        for a in (0.4, 0.5, 0.6, 0.8, 1.0):
            for b in (0.5, 0.8, 1.0, 1.5, 2.0):
                for z in (-2.0, -1.0, 0.0, 0.5, 2.0):
                    lhs = mittag_leffler(a, b, z)
                    rhs = z * mittag_leffler(a, a + b, z) + gamma_reciprocal(b)
                    assert abs(lhs - rhs) < 1e-10

    def test_window_rejection(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 1.0, 75.0)
        with pytest.raises(ValueError):
            mittag_leffler(-0.5, 1.0, 0.5)

    def test_cancellation_guard(self):
        with pytest.raises(ArithmeticError):
            mittag_leffler(0.3, 0.5, -3.0)

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.5, 0.5), (2.5, 2.0)])
    def test_array_matches_scalar_calls(self, a, b):
        z = np.linspace(-50.0, 50.0, 101)  # step 1: z = 0 is an entry
        got = mittag_leffler(a, b, z)
        assert got.shape == z.shape
        ref = np.array([mittag_leffler(a, b, float(x)) for x in z])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        assert got[50] == gamma_reciprocal(b)
        assert mittag_leffler(a, b, z.reshape(1, 101, 1)).shape == (1, 101, 1)

    def test_scalar_in_float_out(self):
        for z in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(mittag_leffler(0.5, 1.0, z)) is float

    @pytest.mark.parametrize("a, b, bad, err", [
        (0.5, 1.0, 75.0, ValueError),        # outside the |z| <= 50 window
        (0.3, 0.5, -3.0, ArithmeticError),   # cancellation
    ])
    def test_one_bad_entry_raises_its_scalar_error(self, a, b, bad, err):
        with pytest.raises(err) as scalar:
            mittag_leffler(a, b, bad)
        with pytest.raises(err) as array:
            mittag_leffler(a, b, np.array([[0.1, 0.0], [bad, -0.2]]))
        assert str(array.value) == str(scalar.value)

    def test_nonpositive_alpha_rejects_arrays(self):
        with pytest.raises(ValueError):
            mittag_leffler(-0.5, 1.0, np.array([0.1, 0.5]))

    def test_small_and_large_entries_mixed(self):
        # the small entries stop within the first 64 terms, e^30 needs more
        z = np.array([1e-8, 0.0, 30.0, -1e-3, -40.0])
        got = mittag_leffler(1.0, 1.0, z[:3])
        assert got.tolist() == [mittag_leffler(1.0, 1.0, float(x)) for x in z[:3]]
        assert abs(got[2] / math.exp(30.0) - 1.0) < 1e-13
        cosh = mittag_leffler(2.0, 1.0, z)  # E_{2,1}(z) = cosh(sqrt(z))
        assert cosh.tolist() == [mittag_leffler(2.0, 1.0, float(x)) for x in z]
        assert abs(cosh[2] / math.cosh(math.sqrt(30.0)) - 1.0) < 1e-13
        assert abs(cosh[4] - math.cos(math.sqrt(40.0))) < 1e-12


class TestResidualOnGrid:
    def test_zero_field(self):
        eq = HeatEquation(1, FRACTIONAL)
        g = GridFunction(1.0 / 64, np.zeros((65, 17)), (0.0,), (1.0 / 16,))
        rep = residual_on_grid(eq, g, 0.5)
        assert rep.interior_max == 0.0

    def test_kernel_solution_refinement_trend(self):
        eq = HeatEquation(1, FRACTIONAL)
        alpha = 0.5
        vals = []
        for K in (250, 500, 1000):
            g = GridFunction.sample(lambda t, xs, a: t ** (a - 1.0), 1.0, K,
                                    ((-1.0, 1.0, 17),), alpha=alpha,
                                    zero_at_origin=True)
            vals.append(residual_on_grid(eq, g, alpha).interior_max)
        assert vals[1] < vals[0] * 1.1 and vals[2] < vals[1] * 1.1

    def test_linear_power_solution(self):
        eq = HeatEquation(1, FRACTIONAL)
        alpha = 0.5
        vals = []
        for K in (250, 500):
            g = GridFunction.sample(lambda t, xs, a: xs[0] * t ** (a - 1.0), 1.0, K,
                                    ((-1.0, 1.0, 17),), alpha=alpha,
                                    zero_at_origin=True)
            vals.append(residual_on_grid(eq, g, alpha).interior_max)
        assert vals[1] < vals[0] * 1.1

    def test_coarse_grid_rejected(self):
        eq = HeatEquation(1, FRACTIONAL)
        g = GridFunction(0.1, np.zeros((11, 17)), (0.0,), (0.1,))
        with pytest.raises(GridError):
            residual_on_grid(eq, g, 0.5)

    def test_peak_memory_within_three_grids(self):
        # the Laplacian, the time derivative and their difference need only
        # two grid-sized arrays; out-of-place arithmetic held four
        import tracemalloc

        eq = HeatEquation(3, FRACTIONAL)
        vals = np.random.default_rng(3).standard_normal((129, 17, 17, 17))
        g = GridFunction(1.0 / 128, vals, (0.0,) * 3, (1.0 / 16,) * 3)
        tracemalloc.start()
        try:
            residual_on_grid(eq, g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * vals.nbytes


def _full_grid_residual(eq, u, alpha, tcut=None):
    """The whole-grid formula that the block-streamed residual replaced: the
    GL derivative of every row and the Laplacian of the whole grid, as two
    grid-sized arrays."""
    vals = u.values
    lap = np.zeros_like(vals)
    for ax, h in enumerate(u.spatial_steps, start=1):
        sl = [slice(None)] * vals.ndim
        lo = [slice(None)] * vals.ndim
        hi = [slice(None)] * vals.ndim
        sl[ax] = slice(1, -1)
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        tmp = 2.0 * vals[tuple(sl)]
        np.subtract(vals[tuple(hi)], tmp, out=tmp)
        tmp += vals[tuple(lo)]
        tmp /= h ** 2
        lap[tuple(sl)] += tmp
    res = rl_derivative_grid(u, alpha).values
    res -= lap
    np.abs(res, out=res)
    interior = (slice(None),) + (slice(1, -1),) * eq.n
    cut = 0.1 * u.T if tcut is None else tcut
    kmin = max(int(math.ceil(cut / u.dt)), 1)
    return float(np.max(res[interior][kmin:])), kmin * u.dt


class TestStreamingResidual:
    """residual_on_grid works through the grid one Toeplitz row block at a
    time; its interior maximum equals the whole-grid formula bit for bit.
    dt = 1/128 makes every tcut below an exact multiple of dt."""

    DT = 1.0 / 128
    SPATIAL = {1: (17,), 2: (17, 16), 3: (16, 17, 16)}

    def _grid(self, n, K, seed):
        vals = np.random.default_rng(seed).standard_normal((K + 1,) + self.SPATIAL[n])
        return GridFunction(self.DT, vals, (0.0,) * n, (1.0 / 16,) * n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("K", [128, 149, 200])  # 129, 150 and 201 rows
    @pytest.mark.parametrize("krow", [None, 1, 63, 64, 70, 127, 128])
    def test_equals_full_grid_formula(self, n, K, krow):
        # krow: the first row at or after tcut (None: the 0.1 T default);
        # 70 and 127 lie inside a block, 64 and 128 on a block boundary
        eq = HeatEquation(n, FRACTIONAL)
        u = self._grid(n, K, seed=100 * n + K)
        tcut = None if krow is None else krow * self.DT
        rep = residual_on_grid(eq, u, 0.4, tcut=tcut)
        assert (rep.interior_max, rep.tcut) == _full_grid_residual(eq, u, 0.4, tcut)
        assert rep.K == K

    @pytest.mark.parametrize("K", [128, 149])
    def test_no_row_after_tcut_raises(self, K):
        eq = HeatEquation(1, FRACTIONAL)
        u = self._grid(1, K, seed=K)
        assert residual_on_grid(eq, u, 0.4, tcut=K * self.DT).interior_max > 0.0
        with pytest.raises(GridError):
            residual_on_grid(eq, u, 0.4, tcut=(K + 0.5) * self.DT)

    def test_temporaries_are_one_slab_and_a_few_blocks(self):
        # 1025 rows are 17 blocks; the whole-grid formula held two grids
        import tracemalloc

        eq = HeatEquation(2, FRACTIONAL)
        u = self._grid(2, 1024, seed=5)
        slab = 64 * u.values.shape[0] * 8     # T[k0:k1, :k1] of the last block
        block = u.values[:64].nbytes
        tracemalloc.start()
        try:
            residual_on_grid(eq, u, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= slab + 4 * block < u.values.nbytes / 2


@lru_cache(maxsize=None)
def _mp_gauss01(k):
    """The nodes of _gauss01(k) in [1/2, 1] refined by Newton's method on
    mpmath's Legendre functions at 40 digits, mirrored for the rest: (s, w)
    on [0, 1] as mpf lists, in the order of _gauss01's nodes."""
    import mpmath

    upper = []
    with mpmath.workdps(40):
        for s in _gauss01(k)[0][k // 2:].tolist():
            x = 2 * mpmath.mpf(s) - 1
            for _ in range(2):
                p, q = mpmath.legendre(k, x), mpmath.legendre(k - 1, x)
                w = (1 - x) * (1 + x) / (k * (q - x * p)) ** 2
                x -= p * (1 - x) * (1 + x) / (k * (q - x * p))
            upper.append(((1 + x) / 2, w))
    lower = [(1 - s, w) for s, w in reversed(upper[k % 2:])]
    return [s for s, _ in lower + upper], [w for _, w in lower + upper]


def _rel_errors(got, ref):
    return [abs(float((g - r) / r)) for g, r in zip(got, ref)]


class TestGaussLegendre:
    """_gauss01 (one pass of the Legendre recurrence, then a Taylor-series
    correction of every root) against 40-digit mpmath nodes and weights."""

    @pytest.mark.parametrize("k", [1, 2, 7, 65, 64, 128, 256, 512])
    def test_against_mpmath(self, k):
        import mpmath

        s, ws = _gauss01(k)
        assert s.shape == ws.shape == (k,)
        ref_s, ref_w = _mp_gauss01(k)
        ulps = [abs(float((mpmath.mpf(a) - r) / np.spacing(float(r)))) for a, r in zip(s, ref_s)]
        assert max(ulps) <= 4.0
        assert max(_rel_errors([mpmath.mpf(w) for w in ws], ref_w)) <= 1e-12
        assert abs(float(ws.sum()) - 1.0) <= 1e-14

    def test_leggauss_weights_fail_the_bound(self):
        # the control: numpy's eigenvalue-based rule at k = 512
        import mpmath

        x, w = np.polynomial.legendre.leggauss(512)
        assert np.all(np.abs(0.5 * (x + 1.0) - _gauss01(512)[0]) < 1e-13)
        errors = _rel_errors([mpmath.mpf(v) for v in 0.5 * w], _mp_gauss01(512)[1])
        assert max(errors) > 1e-12

    def test_odd_k_has_the_midpoint(self):
        assert _gauss01(65)[0][32] == 0.5 and _gauss01(1)[0].tolist() == [0.5]

    def test_arrays_are_read_only(self):
        s, ws = _gauss01(64)
        assert not s.flags.writeable and not ws.flags.writeable

    @pytest.mark.parametrize("k", [64, 65])
    def test_one_recurrence_pass(self, k, monkeypatch):
        from liesym import fracnum

        calls = []

        def counted(*args):
            calls.append(args[0])
            return _legendre_pair(*args)

        monkeypatch.setattr(fracnum, "_legendre_pair", counted)
        _gauss01.__wrapped__(k)  # past the cache
        assert calls == [k]

    @pytest.mark.parametrize("k", [1024, 2048, 2049])
    def test_a_newton_step_moves_no_node(self, k):
        # one more Newton step on the recurrence from the nodes in [1/2, 1],
        # each held as 1 + d above 3/4 (both maps from s are exact), is
        # below one ulp of every node
        s = _gauss01(k)[0][k // 2:]
        c = (s >= 0.75).astype(float)
        d = np.where(c == 1.0, 2.0 * (s - 1.0), 2.0 * s - 1.0)
        p, q = _legendre_pair(k, c, d)
        step = p * ((1.0 - c) - d) * ((1.0 + c) + d) / (k * (q - (c * p + d * p)))
        assert np.max(np.abs(0.5 * step) / np.spacing(s)) <= 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 65, 1024, 2048, 2049])
    def test_nodes_ascend_and_weights_sum_to_one(self, k):
        s, ws = _gauss01(k)
        assert np.all(np.diff(s) > 0.0) and np.all(ws > 0.0)
        assert abs(float(ws.sum()) - 1.0) <= 1e-14


class TestJQuadrature:
    def test_zero_second_argument(self):
        assert j_quadrature(lambda t: 1.0, lambda t: 0.0, 0.5, 1.0, 2.0) == 0.0

    def test_constant_closed_form(self):
        # oracle: (1/Gamma(0.5)) * (4/3) * (2^(3/2) - 2), computed by hand
        exact = (4.0 / 3.0) * (2.0 ** 1.5 - 2.0) / math.gamma(0.5)
        val = j_quadrature(lambda t: 1.0, lambda t: 1.0, 0.5, 1.0, 2.0, nodes=256)
        assert exact == pytest.approx(0.6231866060136243)
        assert abs(val - exact) < 1e-4

    def test_bilinearity(self):
        f1 = lambda t: np.sin(t)
        f2 = lambda t: t * t
        g = lambda t: np.exp(-t)
        a, b = 2.0, -3.0
        lhs = j_quadrature(lambda t: a * f1(t) + b * f2(t), g, 0.5, 1.0, 2.0)
        rhs = a * j_quadrature(f1, g, 0.5, 1.0, 2.0) + b * j_quadrature(f2, g, 0.5, 1.0, 2.0)
        assert abs(lhs - rhs) < 1e-10

    def test_time_derivative_identity(self):
        # D_t J(f,g) = f * tI_T^(1-alpha) g - g * 0I_t^(1-alpha) f
        alpha, T = 0.5, 2.0
        f = lambda t: 1.0 + 0.5 * t
        g = lambda t: np.cos(t)
        t0, h = 1.0, 1e-4
        dj = (j_quadrature(f, g, alpha, t0 + h, T, nodes=192)
              - j_quadrature(f, g, alpha, t0 - h, T, nodes=192)) / (2 * h)
        K = 4000
        gf = GridFunction.sample(lambda t, xs: f(t), T, K)
        gg = GridFunction.sample(lambda t, xs: g(t), T, K)
        k0 = int(round(t0 / gf.dt))
        right = right_rl_integral_values(gg, 1.0 - alpha)[k0]
        left = rl_integral_values(gf, 1.0 - alpha)[k0]
        expect = f(t0) * right - g(t0) * left
        assert abs(dj - expect) < 5e-3

    def test_domain_guards(self):
        with pytest.raises(GridError):
            j_quadrature(lambda t: 1.0, lambda t: 1.0, 0.5, 2.5, 2.0)
        with pytest.raises(GridError):
            j_quadrature(lambda t: 1.0, lambda t: 1.0, 1.5, 1.0, 2.0)
        with pytest.raises(GridError):
            j_quadrature(lambda t: 1.0, lambda t: 1.0, 0.5, 1.0, 2.0, nodes=0)

    @pytest.mark.parametrize("nodes", [64, 100, 130])
    def test_column_blocks_equal_dense_kernel(self, nodes):
        # the kernel built in blocks of 64 columns against the whole k x k kernel
        alpha, t, T = 0.4, 0.7, 2.0
        f = lambda x: np.stack([np.cos(x), 1.0 + x], axis=1)
        g = lambda x: np.exp(-x)
        s, ws = _gauss01(nodes)
        p = 1.0 / (1.0 - alpha)
        tau, mu = t * (1.0 - s ** p), t + (T - t) * s ** p
        fv = f(tau).T * (t * p * s ** (p - 1.0) * ws)
        gv = g(mu) * ((T - t) * p * s ** (p - 1.0) * ws)
        dense = (fv @ (mu[None, :] - tau[:, None]) ** (-alpha)) @ gv / math.gamma(1.0 - alpha)
        got = j_quadrature(f, g, alpha, t, T, nodes=nodes)
        assert got.shape == (2,)
        np.testing.assert_allclose(got, dense, rtol=1e-14, atol=0.0)


def _pointwise(func, grid, alpha):
    """func called on plain floats at every grid point with t > 0."""
    t = grid.t_axis()
    axes = [grid.spatial_axis(i) for i in range(grid.values.ndim - 1)]
    out = np.zeros(grid.values.shape)
    for idx in np.ndindex(grid.values.shape):
        if idx[0] > 0:
            xs = tuple(float(axes[i][j]) for i, j in enumerate(idx[1:]))
            out[idx] = func(float(t[idx[0]]), xs, alpha)
    return out


class TestArraySampling:
    """GridFunction.sample evaluates the callable once on broadcast arrays;
    the values equal the callable's values on plain floats."""

    ALPHA = 0.6

    def _check(self, func, n):
        spatial = tuple((-1.0, 1.0, 9) for _ in range(n))
        grid = GridFunction.sample(func, 1.0, 16, spatial, alpha=self.ALPHA,
                                   zero_at_origin=True)
        ref = _pointwise(func, grid, self.ALPHA)
        assert np.all(grid.values[0] == 0.0)
        np.testing.assert_allclose(grid.values, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["power", "linear-power", "eigen"])
    def test_solutions_match_pointwise(self, n, name):
        from liesym.catalog import exact_solutions

        sol = next(s for s in exact_solutions(HeatEquation(n, FRACTIONAL)) if s.name == name)
        self._check(sol, n)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("regime", ["integer", "fractional"])
    def test_pushed_eigen_matches_pointwise_for_every_flow(self, n, regime):
        from liesym.catalog import exact_solutions, generators
        from liesym.prolong import exponentiate_catalog

        eigen = exact_solutions(HeatEquation(n, FRACTIONAL))[2]
        classes = set()
        for g in generators(HeatEquation(n, regime)):
            if g.klass == "infinite":
                continue
            # eps < 0 keeps every preimage time positive (time translation)
            tr = exponentiate_catalog(g, -0.15, alpha_value=self.ALPHA)
            self._check(tr.push_solution(eigen), n)
            classes.add(g.klass)
        assert len(classes) == (7 if regime == "integer" else 4) - (n == 1)

    def test_projective_domain_guard_on_arrays(self):
        from liesym.catalog import INTEGER, generators
        from liesym.prolong import UnsupportedFlowError, exponentiate_catalog

        g5 = next(g for g in generators(HeatEquation(1, INTEGER)) if g.klass == "projective")
        t = np.linspace(0.1, 1.0, 10)  # 1 - 4*eps*t = 0 at t = 1 only
        tr = exponentiate_catalog(g5, 0.25)
        with pytest.raises(UnsupportedFlowError):
            map_point(tr, t, (np.zeros_like(t),), 1.0)
        # the pushed solution of the inverse flow meets 1 + 4*eps*t = 0 at t = T
        back = exponentiate_catalog(g5, -0.25).push_solution(lambda t, xs: 1.0)
        with pytest.raises(UnsupportedFlowError):
            GridFunction.sample(back, 1.0, 16, ((-1.0, 1.0, 9),), zero_at_origin=True)

    def test_spatial_axis_needs_two_points(self):
        # one point has no step: (stop - start) / (count - 1) divides by zero
        with pytest.raises(GridError):
            GridFunction.sample(lambda t, xs: 1.0, 1.0, 16, ((0.0, 1.0, 1),))


class TestInvariance:
    def test_identity_transformation(self):
        from liesym.catalog import exact_solutions, generators
        from liesym.prolong import exponentiate_catalog

        eq = HeatEquation(1, FRACTIONAL)
        sol = exact_solutions(eq, k=1.0)[2]
        g01 = next(g for g in generators(eq) if g.name == "G01")
        tr = exponentiate_catalog(g01, 0.0)
        rep = invariance_check(eq, sol, tr, 0.5, T=1.0, K=128, spatial=((-1.0, 1.0, 17),))
        assert rep.ratio == pytest.approx(1.0)

    def test_base_residual_computed_once(self, monkeypatch):
        import liesym.fracnum as fracnum
        from liesym.catalog import exact_solutions, generators
        from liesym.prolong import exponentiate_catalog

        eq = HeatEquation(1, FRACTIONAL)
        sol = exact_solutions(eq, k=1.0)[2]
        gens = [g for g in generators(eq) if g.name in ("G01", "G02")]
        kwargs = dict(T=1.0, K=128, spatial=((-1.0, 1.0, 17),))
        fresh = [invariance_check(eq, sol, exponentiate_catalog(g, 0.2, alpha_value=0.5),
                                  0.5, **kwargs) for g in gens]
        calls = []
        original = fracnum.residual_on_grid
        monkeypatch.setattr(fracnum, "residual_on_grid",
                            lambda *a, **k: calls.append(a[1]) or original(*a, **k))
        fracnum._base_interior_max.cache_clear()
        reps = [invariance_check(eq, sol, exponentiate_catalog(g, 0.2, alpha_value=0.5),
                                 0.5, **kwargs) for g in gens]
        # one base residual, then one per transformed solution; same numbers
        assert len(calls) == 1 + len(gens)
        assert reps == fresh

    def test_window_violation_reported(self):
        from liesym.prolong import PointTransformation

        eq = HeatEquation(1, FRACTIONAL)
        shift = PointTransformation("t-shift", 1, 0.5, lambda s, t, xs: (t + s, xs, 1.0))
        with pytest.raises(GridError) as err:
            invariance_check(eq, lambda t, xs, a: t, shift, 0.5, K=64,
                             spatial=((-1.0, 1.0, 17),))
        assert "leaves the sampled window" in str(err.value)

    def test_window_checked_at_every_vertex(self):
        # the flow of x d_t maps (t, x) to (t + s x, x): at eps = 0.2 the
        # preimage of (T/K, x_hi) has t < 0, though (T, x_lo), (T, x_hi) and
        # (T/K, x_lo) all keep t > 0
        from liesym import parse
        from liesym.fields import VectorField
        from liesym.prolong import exponentiate_catalog

        eq = HeatEquation(1, FRACTIONAL)
        tr = exponentiate_catalog(VectorField("x*d_t", 1, parse("x"), (parse("0"),), parse("0")), 0.2)
        with pytest.raises(GridError) as err:
            invariance_check(eq, lambda t, xs, a: t, tr, 0.5, K=64, spatial=((-1.0, 1.0, 17),))
        assert "leaves the sampled window" in str(err.value)


class TestGridIO:
    def test_finite_values_enforced(self):
        with pytest.raises(GridError):
            GridFunction(0.1, np.array([0.0, math.inf, 1.0]))


_FRESH_NUMERIC_PASS = """
import json, math, sys
from liesym.catalog import FRACTIONAL, HeatEquation, generators
from liesym.cli import main
from liesym.conservation import conserved_vector, divergence_numeric_fractional
from liesym.fracnum import GridFunction

code = main(["verify", "--n", "1", "--regime", "fractional"])
eq = HeatEquation(1, FRACTIONAL)
g03 = next(g for g in generators(eq) if g.name == "G03")
c = math.gamma(1.5) / 2.0
u = GridFunction.sample(lambda t, xs: t ** -0.5, 2.0, 200, ((0.0, 1.0, 17),), zero_at_origin=True)
phi = GridFunction.sample(lambda t, xs: (2.0 - t) ** 0.5 + c * xs[0] ** 2, 2.0, 200,
                          ((0.0, 1.0, 17),))
divergence_numeric_fractional(conserved_vector(g03, eq, attach_diff=False), eq, u, phi,
                              (0.5, 1.0, 0.0, 1.0), 0.5, qnodes=64,
                              phi_t=lambda mu, xv: -0.5 * (2.0 - mu) ** -0.5)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])]))
"""


def test_fresh_numeric_pass_never_imports_numpy_ma():
    # np.unique imports numpy.ma on first use (through np.ma.is_masked), a
    # cost every CLI process would pay for a list of block starts
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import liesym

    env = dict(os.environ, PYTHONPATH=str(Path(liesym.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _FRESH_NUMERIC_PASS], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out.splitlines()[-1]) == [0, []]
