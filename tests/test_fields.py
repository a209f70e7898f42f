import numpy as np
import pytest

from rotstar.errors import ConfigError, DomainError
from rotstar.fields import AxiField, AxiGrid, compact_map, kelvin_point
from rotstar.gridio import export_text, read_field, write_field


@pytest.fixture(scope="module")
def grid():
    return AxiGrid(R0=2.0, n_interior=65, n_exterior=49)


def decay_field(grid, n):
    """Q = (R0/r)^(n-2): starred tail identically 1."""

    def fn(w, z):
        r = np.hypot(w, z)
        return np.where(r > 0, (grid.R0 / np.where(r > 0, r, 1.0)) ** (n - 2), 0.0)

    return AxiField.from_function(grid, fn, n, star_fn=lambda ws, zs: np.ones_like(ws))


class TestKelvinPoint:
    def test_fixed_sphere(self, grid):
        p = np.array([grid.R0, 0.0])
        assert np.allclose(kelvin_point(p, grid.R0), p, rtol=1e-15)

    def test_direct_formula(self, grid):
        p = np.array([2 * grid.R0, 0.0])
        assert np.allclose(kelvin_point(p, grid.R0), [grid.R0 / 2, 0.0], rtol=1e-15)

    def test_involution(self, grid):
        rng = np.random.RandomState(3)
        p = rng.uniform(0.05, 10.0, (60, 2))
        pp = kelvin_point(kelvin_point(p, grid.R0), grid.R0)
        assert np.max(np.abs(pp - p) / np.abs(p).max()) < 1e-15

    def test_origin_rejected(self, grid):
        with pytest.raises(DomainError):
            kelvin_point(np.zeros(2), grid.R0)


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


class TestSplitCutoff:
    def test_compact_field_has_no_tail(self, grid):
        f = AxiField.from_function(
            grid, lambda w, z: np.maximum(0.0, 1.0 - (np.hypot(w, z) / grid.R0) ** 2) ** 2, 3
        )
        q0, qinf = f.split_cutoff()
        assert np.max(np.abs(qinf.int_vals)) == 0.0
        assert np.max(np.abs(qinf.star_vals)) < 1e-15

    def test_pure_exterior(self, grid):
        def fn(w, z):
            r = np.hypot(w, z)
            return np.where(r >= 2 * grid.R0, (grid.R0 / np.maximum(r, 1e-9)) ** 1, 0.0)

        f = AxiField.from_function(grid, fn, 3)
        q0, _ = f.split_cutoff()
        assert np.max(np.abs(q0.int_vals)) == 0.0

    def test_partition_of_unity(self, grid):
        f = AxiField.from_function(
            grid, lambda w, z: np.exp(-np.hypot(w, z) / grid.R0) + 0.2, 3, offset=0.2
        )
        q0, qinf = f.split_cutoff()
        rng = np.random.RandomState(1)
        w = rng.uniform(0, 3 * grid.R0, 50)
        z = rng.uniform(0, 3 * grid.R0, 50)
        resid = np.abs(f.eval(w, z) - q0.eval(w, z) - qinf.eval(w, z))
        assert np.max(resid) < 1e-14


class TestDerivative:
    def test_quadratic_interior(self, grid):
        f = AxiField.from_function(grid, lambda w, z: z**2, 3)
        d2 = f.derivative("z", 2)
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


class TestNorms:
    def test_constant_norm(self, grid):
        c = AxiField.constant(grid, -1.5)
        rep = c.weighted_norms(l=0, alpha=0.25)
        assert rep["interior"]["sup"] >= 1.5

    def test_zero_field(self, grid):
        zf = AxiField.zeros(grid)
        rep = zf.weighted_norms(l=1, alpha=0.3)
        assert rep["total"] == 0.0

    def test_index_embedding(self, grid):
        # Q = (R0/r)^3 read at index 3 and at index 5: both finite, related by
        # a bounded factor on the patch
        def fn(w, z):
            r = np.hypot(w, z)
            return np.where(r > 0, (grid.R0 / np.where(r > 0, r, 1.0)) ** 3, 0.0)

        f5 = AxiField.from_function(grid, fn, 5, star_fn=lambda ws, zs: np.ones_like(ws))
        f3 = f5.reindex(3)
        r5 = f5.weighted_norms()["total"]
        r3 = f3.weighted_norms()["total"]
        assert np.isfinite(r5) and np.isfinite(r3)
        assert r5 <= 1.05 * r3 * 2 ** (5 - 3)

    def test_alpha_validation(self, grid):
        c = AxiField.constant(grid, 1.0)
        with pytest.raises(DomainError):
            c.weighted_norms(alpha=1.5)
        with pytest.raises(DomainError):
            c.weighted_norms(alpha=0.8, gamma=5 / 3)  # bound is 0.5 for gamma=5/3


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


class TestBicubic:
    def test_bicubic_beats_bilinear(self):
        def fn(w, z):
            return np.sin(1.5 * w) * np.cosh(0.5 * z) + 0.1 * (w**2 - z**2)

        g = AxiGrid(1.0, 65, 33)
        rng = np.random.RandomState(9)
        pts = rng.uniform(0.1, 0.55, (150, 2))
        f_lin = AxiField.from_function(g, fn, 3)
        f_cub = AxiField.from_function(g, fn, 3)
        f_cub.interp = "bicubic"
        exact = fn(pts[:, 0], pts[:, 1])
        e_lin = np.max(np.abs(f_lin.eval(pts[:, 0], pts[:, 1]) - exact))
        e_cub = np.max(np.abs(f_cub.eval(pts[:, 0], pts[:, 1]) - exact))
        assert e_cub < 0.2 * e_lin
