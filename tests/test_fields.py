import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotstar.cutoff import chi
from rotstar.errors import ConfigError, DecayError, DomainError
from rotstar.fields import (AxiField, AxiGrid, _kelvin_images, _Points, _radial_power, compact_map,
                            eval_fields)
from rotstar.gridio import export_text, read_field, write_field


@pytest.fixture(scope="module")
def grid():
    return AxiGrid(R0=2.0, n_interior=65, n_exterior=49)


def decay_field(grid, n):
    """Q = (R0/r)^(n-2): starred tail identically 1."""

    def fn(w, z):
        r = np.hypot(w, z)
        return np.where(r > 0, (grid.R0 / np.where(r > 0, r, 1.0)) ** (n - 2), 0.0)

    return AxiField(grid, n, fn(grid.WI, grid.ZI), np.ones_like(grid.WS))


def kelvin(p, R0):
    """Kelvin images of the points p[..., :2] by AxiGrid's map."""
    w, z, _ = _kelvin_images(p[..., 0], p[..., 1], np.hypot(p[..., 0], p[..., 1]), R0)
    return np.stack([w, z], axis=-1)


class TestKelvinPoint:
    def test_fixed_sphere(self, grid):
        p = np.array([grid.R0, 0.0])
        assert np.allclose(kelvin(p, grid.R0), p, rtol=1e-15)

    def test_direct_formula(self, grid):
        p = np.array([2 * grid.R0, 0.0])
        assert np.allclose(kelvin(p, grid.R0), [grid.R0 / 2, 0.0], rtol=1e-15)

    def test_involution(self, grid):
        rng = np.random.RandomState(3)
        p = rng.uniform(0.05, 10.0, (60, 2))
        pp = kelvin(kelvin(p, grid.R0), grid.R0)
        assert np.max(np.abs(pp - p) / np.abs(p).max()) < 1e-15

    def test_origin_maps_to_origin(self, grid):
        # the starred origin stands for infinity: image (0, 0), image radius inf
        zero = np.zeros(1)
        w, z, r = _kelvin_images(zero, zero, zero, grid.R0)
        assert (w[0], z[0], r[0]) == (0.0, 0.0, np.inf)


class TestKelvinWeight:
    """AxiGrid.weight(patch, k) = (r/R0)^k at a patch's nodes, the one owner
    of the Kelvin factor, and its helper at scattered points."""

    @pytest.mark.parametrize("patch", ["int", "star"])
    def test_inverse_pairs(self, grid, patch):
        pos = (grid.RI if patch == "int" else grid.RS) > 0
        for k in range(-4, 5):
            prod = grid.weight(patch, k)[pos] * grid.weight(patch, -k)[pos]
            assert np.max(np.abs(prod - 1.0)) <= 4 * np.finfo(float).eps, k

    @pytest.mark.parametrize("patch", ["int", "star"])
    def test_origin_and_unit_power(self, grid, patch):
        # the starred origin stands for infinity, where (R0/r)^|k| is 0
        for k in range(-4, 0):
            assert grid.weight(patch, k)[0, 0] == 0.0
        assert np.array_equal(grid.weight(patch, 0), np.ones_like(grid.RI if patch == "int" else grid.RS))

    @pytest.mark.parametrize("patch", ["int", "star"])
    def test_cached_and_read_only(self, grid, patch):
        for k in range(-4, 5):
            wt = grid.weight(patch, k)
            assert grid.weight(patch, k) is wt
            assert not wt.flags.writeable

    def test_far_weight_agrees_with_the_helper(self, grid):
        # far points at the images of the starred nodes with r* <= R0/2,
        # where chi = 0: (R0/r)^(n-2) there is (r*/R0)^(n-2) at the nodes
        sel = (grid.RS > 0) & (grid.RS <= 0.5 * grid.R0)
        pts = _Points(grid, grid.W_img[sel], grid.Z_img[sel])
        assert pts.far.all() and np.all(pts.c_far == 0.0)
        for n in range(3, 7):
            assert np.array_equal(pts.far_weight(n), _radial_power(pts.rf, grid.R0, 2 - n))
            assert np.allclose(pts.far_weight(n), grid.weight("star", n - 2)[sel],
                               rtol=16 * np.finfo(float).eps, atol=0.0)


def one_field_eval(fld, w, z):
    """AxiField.eval as a single-field pass: its own signs, r, chi, near/far
    split, Kelvin images and bilinear cells."""

    def bilinear(vals, h, xq, yq):
        nx, ny = vals.shape
        fx = np.clip(xq / h, 0.0, nx - 1.0 - 1e-12)
        fy = np.clip(yq / h, 0.0, ny - 1.0 - 1e-12)
        ix = fx.astype(int)
        iy = fy.astype(int)
        tx = fx - ix
        ty = fy - iy
        return (
            vals[ix, iy] * (1 - tx) * (1 - ty)
            + vals[ix + 1, iy] * tx * (1 - ty)
            + vals[ix, iy + 1] * (1 - tx) * ty
            + vals[ix + 1, iy + 1] * tx * ty
        )

    g = fld.grid
    w, z = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(z, dtype=float))
    scalar = w.ndim == 0
    if scalar:
        w, z = w.reshape(1), z.reshape(1)
    sgn = np.where(z < 0, float(fld.parity[1]), 1.0)
    zq, wq = np.abs(z), np.abs(w)
    sgn = sgn * np.where(w < 0, float(fld.parity[0]), 1.0)
    r = np.hypot(wq, zq)
    out = np.zeros_like(r)
    c = chi(r / g.R0)
    near = c > 0.0
    if np.any(near):
        out[near] += c[near] * bilinear(fld.int_vals, g.h_int, wq[near], zq[near])
    far = c < 1.0
    if np.any(far):
        rf = r[far]
        scale = (g.R0**2) / rf**2
        tail_star = bilinear(fld.star_vals, g.h_ext, wq[far] * scale, zq[far] * scale)
        out[far] += (1.0 - c[far]) * (g.R0 / rf) ** (fld.n_index - 2) * tail_star
    out = fld.offset + sgn * out
    return float(out[0]) if scalar else out


class TestEval:
    def test_constant(self, grid):
        c = AxiField.constant(grid, 2.5)
        pts = [(0.3, 0.2), (1.5, 1.0), (7.0, 3.0)]
        for w, z in pts:
            assert c.eval(w, z) == pytest.approx(2.5, rel=1e-14)

    def test_pure_decay(self, grid):
        f = decay_field(grid, 3)
        assert np.allclose(f.star_vals, 1.0)
        assert f.eval(2 * grid.R0, 0.0) == pytest.approx(0.5, rel=1e-12)
        assert f.eval(0.0, 10 * grid.R0) == pytest.approx(0.1, rel=1e-12)

    def test_refinement_order(self):
        # interpolation error at off-grid interior points drops like h^2
        def fn(w, z):
            return np.exp(-((w - 0.4) ** 2 + z**2)) + 0.3 * np.cos(w) * np.cosh(z / 4)

        rng = np.random.RandomState(7)
        pts = rng.uniform(0.05, 0.6, (120, 2))  # inside r < R0: pure interior
        errs = []
        for n in (33, 65, 129):
            g = AxiGrid(1.0, n, 33)
            f = AxiField.from_function(g, fn, 3)
            vals = f.eval(pts[:, 0], pts[:, 1])
            errs.append(np.max(np.abs(vals - fn(pts[:, 0], pts[:, 1]))))
        r1 = np.log2(errs[0] / errs[1])
        r2 = np.log2(errs[1] / errs[2])
        assert 1.6 < r1 < 2.6 and 1.6 < r2 < 2.6

    def test_z_reflection(self, grid):
        f = decay_field(grid, 3)
        assert f.eval(1.0, -2.5) == f.eval(1.0, 2.5)
        d = f.derivative("z")
        assert d.eval(1.0, -2.5) == pytest.approx(-d.eval(1.0, 2.5), rel=1e-13)

    # eval_fields shares one geometry pass among fields evaluated at one
    # point set; each value must be the single-field pass's, bit for bit
    PARITIES = [(1, 1), (-1, 1), (1, -1), (-1, -1)]

    @pytest.fixture(scope="class")
    def fields(self, grid):
        rng = np.random.RandomState(11)
        out = []
        for n in (3, 4, 5):
            for parity in self.PARITIES:
                offset = 0.0 if parity != (1, 1) else rng.uniform(-2.0, 2.0)
                out.append(AxiField(grid, n, rng.standard_normal((grid.n_int, grid.n_int)),
                                    rng.standard_normal((grid.n_ext, grid.n_ext)), parity, offset))
        return out

    @pytest.fixture(scope="class")
    def points(self, grid):
        R0, rng = grid.R0, np.random.RandomState(12)
        w = [rng.uniform(-3.0 * R0, 3.0 * R0, 200)]
        z = [rng.uniform(-3.0 * R0, 3.0 * R0, 200)]
        # on the axis, in the cutoff annulus, on its edges and the origin
        rr = np.concatenate([rng.uniform(0.0, 4.0 * R0, 40), [0.0, R0, 2.0 * R0, 0.5 * R0]])
        w.append(np.zeros(rr.size))
        z.append(rr * np.where(np.arange(rr.size) % 2, 1.0, -1.0))
        th = rng.uniform(-np.pi, np.pi, 60)
        ra = rng.uniform(R0, 2.0 * R0, 60)
        w.append(ra * np.cos(th))
        z.append(ra * np.sin(th))
        # beyond (n_ext - 1) R0: images inside the starred origin's cell
        rb = (grid.n_ext - 1) * R0 * np.array([1.0, 1.5, 4.0, 1e3])
        for a in (0.0, 0.4, 1.2, -2.0):
            w.append(rb * np.cos(a))
            z.append(rb * np.sin(a))
        return np.concatenate(w), np.concatenate(z)

    def test_equals_single_field_pass(self, fields, points):
        w, z = points
        for fld, got in zip(fields, eval_fields(fields, w, z)):
            assert np.array_equal(got, one_field_eval(fld, w, z))

    def test_scalar_and_broadcast_inputs(self, grid, fields):
        R0 = grid.R0
        for w, z in ((0.3 * R0, -0.2 * R0), (-1.4 * R0, 0.3 * R0), (0.0, 5.0 * R0),
                     (-60.0 * R0, -7.0 * R0), (0.0, 0.0)):
            got = eval_fields(fields, w, z)
            for fld, val in zip(fields, got):
                assert isinstance(val, float) and val == one_field_eval(fld, w, z)
                assert fld.eval(w, z) == val
        w2 = np.linspace(-3.0 * R0, 3.0 * R0, 12).reshape(3, 4)
        for z in (-0.7 * R0, np.linspace(0.0, 2.0 * R0, 4)):
            for fld, got in zip(fields, eval_fields(fields, w2, z)):
                assert got.shape == (3, 4)
                assert np.array_equal(got, one_field_eval(fld, w2, z))

    def test_eval_is_the_one_field_case(self, fields, points):
        w, z = points
        for fld in fields:
            assert np.array_equal(fld.eval(w, z), one_field_eval(fld, w, z))

    def test_fields_on_other_grids_rejected(self, grid):
        other = AxiGrid(R0=3.0, n_interior=33, n_exterior=25)
        with pytest.raises(DomainError):
            eval_fields([AxiField.zeros(grid), AxiField.zeros(other)], 1.0, 1.0)


class TestSplitCutoff:
    """The cutoff split Q = chi(r/R0) Q + (1 - chi(r/R0)) Q, read through
    `interior_compact` and `exterior_tail_star`."""

    def test_compact_field_has_no_tail(self, grid):
        f = AxiField.from_function(
            grid, lambda w, z: np.maximum(0.0, 1.0 - (np.hypot(w, z) / grid.R0) ** 2) ** 2, 3
        )
        assert np.array_equal(f.interior_compact(), f.int_total())
        assert np.max(np.abs(f.exterior_tail_star())) < 1e-15

    def test_pure_exterior(self, grid):
        def fn(w, z):
            r = np.hypot(w, z)
            return np.where(r >= 2 * grid.R0, (grid.R0 / np.maximum(r, 1e-9)) ** 1, 0.0)

        f = AxiField.from_function(grid, fn, 3)
        assert np.max(np.abs(f.interior_compact())) == 0.0

    def test_partition_of_unity(self, grid):
        def fn(w, z):
            return np.exp(-np.hypot(w, z) / grid.R0) + 0.2

        f = AxiField.from_function(grid, fn, 3, offset=0.2)
        # both pieces share chi, so they add up to Q; the interior one carries
        # the offset, which has no starred value at the origin-image (infinity)
        assert np.allclose(f.interior_compact(), grid.chi_int * fn(grid.WI, grid.ZI), rtol=1e-14)
        with pytest.raises(DecayError):
            f.exterior_tail_star()
        pos = grid.RS > 0
        q_img = (grid.r_img[pos] / grid.R0) * (fn(grid.W_img[pos], grid.Z_img[pos]) - 0.2)
        assert np.allclose((f - 0.2).exterior_tail_star()[pos], (1.0 - grid.chi_img[pos]) * q_img,
                           rtol=1e-13, atol=0.0)


class TestDerivative:
    def test_quadratic_interior(self, grid):
        f = AxiField.from_function(grid, lambda w, z: z**2, 3)
        d2 = f.derivative("z").derivative("z")
        # away from the outer edge the second difference of z^2 is exact
        assert d2.int_vals[5:40, 5:40] == pytest.approx(2.0, abs=1e-9)

    def test_axis_parity(self, grid):
        f = AxiField.from_function(grid, lambda w, z: np.cos(w) + z**2, 3)
        dw = f.derivative("w")
        assert abs(dw.int_vals[0, 10]) < 1e-12  # even field: d/dw = 0 on axis

    def test_exterior_chain_rule(self, grid):
        f = decay_field(grid, 3)
        dw = f.derivative("w")
        w, z = 3.1 * grid.R0, 1.9 * grid.R0
        r = np.hypot(w, z)
        assert dw.eval(w, z) == pytest.approx(-grid.R0 * w / r**3, rel=1e-10)

    def test_polynomial_refinement(self):
        def fn(w, z):
            return w**4 - 3 * w**2 * z**2 + 0.5 * z**4

        def dfn(w, z):
            return 4 * w**3 - 6 * w * z**2

        errs = []
        for n in (33, 65, 129):
            g = AxiGrid(1.0, n, 33)
            f = AxiField.from_function(g, fn, 3)
            d = f.derivative("w")
            sub = slice(2, n - 2)
            errs.append(np.max(np.abs(d.int_vals[sub, sub] - dfn(g.WI, g.ZI)[sub, sub])))
        assert 1.6 < np.log2(errs[0] / errs[1]) < 2.6
        assert 1.6 < np.log2(errs[1] / errs[2]) < 2.6


class TestAlgebra:
    def test_product_index_rule(self, grid):
        f3 = decay_field(grid, 3)
        f4 = decay_field(grid, 4)
        prod = f3 * f4
        assert prod.n_index == 5
        w, z = 4.0 * grid.R0, 1.0 * grid.R0
        assert prod.eval(w, z) == pytest.approx(f3.eval(w, z) * f4.eval(w, z), rel=1e-10)

    def test_offset_arithmetic(self, grid):
        # exact at nodes on both patches
        f = decay_field(grid, 3) + 2.0
        gfld = decay_field(grid, 3) * 3.0
        s = f * gfld
        prod_int = f.int_total() * gfld.int_total()
        assert np.allclose(s.int_total(), prod_int, rtol=1e-13)
        prod_star_raw = f.star_raw_values() * gfld.star_raw_values()
        assert np.allclose(s.star_raw_values()[1:, 1:], prod_star_raw[1:, 1:], rtol=1e-12)

    def test_division(self, grid):
        f = decay_field(grid, 3)
        denom = f * 0.5 + 1.0
        q = f / denom
        assert np.allclose(q.int_total(), f.int_total() / denom.int_total(), rtol=1e-13)
        assert np.allclose(
            q.star_raw_values()[1:, 1:],
            (f.star_raw_values() / denom.star_raw_values())[1:, 1:],
            rtol=1e-12,
        )

    def test_reindex_down_matches(self, grid):
        f5 = decay_field(grid, 5)
        f3 = f5.reindex(3)
        # exact at star nodes: star_3 = (r*/R0)^2 * star_5
        expect = (grid.RS / grid.R0) ** 2
        assert np.allclose(f3.star_vals, expect, atol=1e-14)
        # evaluation agrees up to interpolation error of the restated tail
        w, z = 5.0, 4.0
        assert f3.eval(w, z) == pytest.approx(f5.eval(w, z), rel=5e-3)


# -- properties against pointwise analytic values on both patches -----------

PGRID = AxiGrid(R0=1.5, n_interior=17, n_exterior=13)
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
coef = st.floats(-1.0, 1.0, allow_subnormal=False)
index = st.integers(3, 5)


def analytic(n, offset, amp, tilt):
    """Q = offset + amp (R0^2/(r^2 + R0^2))^((n-2)/2) (1 + tilt z^2/(r^2 + R0^2)):
    even in varpi and z, tail decaying like r^-(n-2)."""
    R2 = PGRID.R0**2

    def fn(w, z):
        s = w**2 + z**2 + R2
        return offset + amp * (R2 / s) ** ((n - 2) / 2) * (1.0 + tilt * z**2 / s)

    return fn


def sampled(n, offset, amp, tilt):
    fn = analytic(n, offset, amp, tilt)
    return AxiField.from_function(PGRID, fn, n, offset=offset), fn


def matches_on_both_patches(fld, fn):
    """Node values against fn at the interior nodes and at the image points of
    every starred node but the origin-image (which holds an extrapolated
    limit)."""
    g = PGRID
    pos = g.RS > 0
    return np.allclose(fld.int_total(), fn(g.WI, g.ZI), rtol=1e-12, atol=1e-14) and np.allclose(
        fld.star_raw_values()[pos], fn(g.W_img[pos], g.Z_img[pos]), rtol=1e-12, atol=1e-14
    )


class TestAlgebraProperties:
    @PROPERTY
    @given(index, index, coef, coef, coef, coef, coef, coef)
    def test_add(self, n1, n2, o1, o2, a1, a2, t1, t2):
        f, fn = sampled(n1, o1, a1, 0.5 * t1)
        g, gn = sampled(n2, o2, a2, 0.5 * t2)
        out = f + g
        assert out.n_index == min(n1, n2)
        assert matches_on_both_patches(out, lambda w, z: fn(w, z) + gn(w, z))

    @PROPERTY
    @given(index, index, coef, coef, coef, coef, coef, coef)
    def test_mul(self, n1, n2, o1, o2, a1, a2, t1, t2):
        f, fn = sampled(n1, o1, a1, 0.5 * t1)
        g, gn = sampled(n2, o2, a2, 0.5 * t2)
        out = f * g
        if o1 == 0.0 and o2 == 0.0:
            assert out.n_index == n1 + n2 - 2
        assert matches_on_both_patches(out, lambda w, z: fn(w, z) * gn(w, z))

    @PROPERTY
    @given(index, index, coef, st.floats(1.0, 2.0), coef, coef, coef, coef)
    def test_div(self, n1, n2, o1, o2, a1, a2, t1, t2):
        # |tail| <= 0.75 of an offset >= 1: the divisor stays above 1/4
        f, fn = sampled(n1, o1, a1, 0.5 * t1)
        g, gn = sampled(n2, o2, 0.5 * a2, 0.5 * t2)
        assert matches_on_both_patches(f / g, lambda w, z: fn(w, z) / gn(w, z))

    @PROPERTY
    @given(index, index, coef, coef, coef)
    def test_reindex(self, n, n_new, o, a, t):
        f, fn = sampled(n, o, a, 0.5 * t)
        out = f.reindex(n_new)
        assert out.n_index == n_new
        assert matches_on_both_patches(out, fn)

    @PROPERTY
    @given(st.sampled_from(["w", "z"]), index, st.lists(coef, min_size=8, max_size=8))
    def test_derivative(self, axis, n, c):
        # quadratics in each variable on each patch: every stencil, the
        # parity ghosts and the outer extrapolation are exact on them
        g = PGRID
        R0 = g.R0

        def poly(x, y, k):
            return c[k] + c[k + 1] * x**2 + c[k + 2] * y**2 + c[k + 3] * x**2 * y**2

        def tail(w, z):
            # the physical tail whose Kelvin transform at index n is poly(., ., 4)
            s = R0**2 / (w**2 + z**2)
            return s ** ((n - 2) / 2) * poly(s * w, s * z, 4)

        f = AxiField(g, n, poly(g.WI, g.ZI, 0), poly(g.WS, g.ZS, 4))
        d = f.derivative(axis)
        x, y = g.WI, g.ZI
        if axis == "w":
            expect = 2 * x * (c[1] + c[3] * y**2)
        else:
            expect = 2 * y * (c[2] + c[3] * x**2)
        scale = 1.0 + max(abs(v) for v in c)
        assert np.allclose(d.int_vals, expect, rtol=0.0, atol=1e-12 * scale)
        # exterior: complex-step derivative of the physical tail at the image
        # points, starred at the same index n
        pos = g.RS > 0
        wi, zi = g.W_img[pos], g.Z_img[pos]
        step = 1e-30 * g.r_img[pos]
        bump = tail(wi + 1j * step, zi) if axis == "w" else tail(wi, zi + 1j * step)
        expect = (g.r_img[pos] / R0) ** (n - 2) * bump.imag / step
        assert np.allclose(d.star_vals[pos], expect, rtol=0.0, atol=1e-11 * scale)


class TestCompactMap:
    def test_compact_field_without_warnings(self, grid):
        # support reaches past R0, so the starred tail is nonzero in part and
        # zero at the origin-image
        def fn(w, z):
            r2 = (np.hypot(w, z) / (1.5 * grid.R0)) ** 2
            return np.where(r2 < 1, (1 - r2) ** 3, 0.0)

        f = AxiField.from_function(grid, fn, 3)
        sq = compact_map(lambda q: q**2, f, n_index=4)  # warnings are errors here
        assert np.array_equal(sq.int_vals, f.int_total() ** 2)
        pos = grid.RS > 0
        raw = f.star_raw_values()[pos] ** 2
        assert np.any(raw != 0.0)
        assert np.allclose(sq.star_vals[pos], raw * (grid.R0 / grid.RS[pos]) ** 2, rtol=1e-15)
        assert sq.star_vals[0, 0] == 0.0

    def test_nonvanishing_origin_image_rejected(self, grid):
        f = decay_field(grid, 3)
        with pytest.raises(DomainError):
            compact_map(lambda q: q + 1.0, f)
        # zero at the origin-image but not finite elsewhere
        with pytest.raises(DomainError):
            compact_map(lambda q: np.where(q > 0.5, np.nan, 0.0), f)


class TestIO:
    def test_binary_roundtrip(self, grid, tmp_path):
        f = decay_field(grid, 4) * 1.7 + 0.3
        path = tmp_path / "field.axfd"
        write_field(path, f, name="test-field")
        f2, name = read_field(path)
        assert name == "test-field"
        assert np.array_equal(f2.int_vals, f.int_vals)
        assert np.array_equal(f2.star_vals, f.star_vals)
        assert f2.offset == f.offset and f2.n_index == f.n_index

    def test_deterministic_bytes(self, grid, tmp_path):
        f = decay_field(grid, 3)
        p1, p2 = tmp_path / "a.axfd", tmp_path / "b.axfd"
        write_field(p1, f)
        write_field(p2, f)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_dump_rejected(self, grid, tmp_path):
        path = tmp_path / "field.axfd"
        write_field(path, decay_field(grid, 3), name="cut")
        whole = path.read_bytes()
        for size in (len(whole) // 2, len(whole) - 1, 10):
            path.write_bytes(whole[:size])
            with pytest.raises(ConfigError, match="truncated"):
                read_field(path)

    def test_text_export(self, grid, tmp_path):
        f = decay_field(grid, 3)
        path = tmp_path / "f.dat"
        export_text(path, f)
        data = np.loadtxt(path)
        assert data.shape == (grid.n_int**2, 3)
