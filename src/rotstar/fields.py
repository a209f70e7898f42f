"""Two-patch axisymmetric scalar fields on the (varpi, z) half-plane.

A field Q is stored as Q = offset + T where the tail T decays like
(R0/r)^(n-2) and is sampled twice:

  * interior patch: T at the nodes of a uniform tensor grid on [0, 2R0]^2;
  * exterior patch: the n-dimensional Kelvin transform
    T_star(p*) = (r/R0)^(n-2) T(p) at the nodes of a uniform tensor grid on
    [0, R0]^2 in the inverted coordinates p* = (R0/r)^2 p.

The origin-image node p* = 0 holds the finite limit C_inf = lim T_star.
AxiGrid.weight(patch, k) = (r/R0)^k at a patch's nodes owns the Kelvin
factor: T_star = weight("star", 2 - n) T at the images and T =
weight("star", n - 2) T_star.  For k < 0 it is 0 at the patch origin, the
image of infinity, so no caller guards that node; its value comes from an
extrapolation (_fill_origin) or a monopole limit, never from sampling a
function at infinity.

The compact/exterior split Q = Q0 + Qinf uses the fixed cutoff chi(r/R0), so
any point with r <= R0 is pure interior, r >= 2R0 pure exterior, and the overlap
annulus blends the two patches.  All unknowns of the solver are even in z;
derivative fields carry odd parities explicitly.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .cutoff import chi
from .errors import DecayError, DomainError


def _radial_power(r, R0, k):
    """(r/R0)^k at radii r; for k < 0 it is 0 where r = 0."""
    if k >= 0:
        return (r / R0) ** k
    return np.divide(R0, r, out=np.zeros(np.shape(r)), where=r > 0) ** -k


def _kelvin_images(W, Z, R, R0):
    """Kelvin images (R0/r)^2 (W, Z) of nodes at radii R, and their radii
    R0^2/r; the origin maps to the finite point (0, 0) with radius inf."""
    scale = _radial_power(R, R0, -2)
    return W * scale, Z * scale, np.divide(R0**2, R, out=np.full(np.shape(R), np.inf), where=R > 0)


class AxiGrid:
    """Uniform interior patch on [0, 2R0]^2 plus starred exterior on [0, R0]^2;
    images["int"] and images["star"] hold the Kelvin images and image radii
    of each patch's nodes, and W_img, Z_img, r_img name the starred ones."""

    def __init__(self, R0, n_interior, n_exterior):
        if R0 <= 0:
            raise DomainError("R0 must be positive")
        if n_interior < 9 or n_exterior < 9:
            raise DomainError("grids need at least 9 nodes per axis")
        self.R0 = float(R0)
        self.n_int = int(n_interior)
        self.n_ext = int(n_exterior)
        self.w = np.linspace(0.0, 2.0 * R0, self.n_int)
        self.z = self.w.copy()
        self.h_int = self.w[1] - self.w[0]
        self.ws = np.linspace(0.0, R0, self.n_ext)
        self.zs = self.ws.copy()
        self.h_ext = self.ws[1] - self.ws[0]

        self.WI, self.ZI = np.meshgrid(self.w, self.z, indexing="ij")
        self.RI = np.hypot(self.WI, self.ZI)
        self.chi_int = chi(self.RI / R0)

        self.WS, self.ZS = np.meshgrid(self.ws, self.zs, indexing="ij")
        self.RS = np.hypot(self.WS, self.ZS)
        self.images = {
            "int": _kelvin_images(self.WI, self.ZI, self.RI, self.R0),
            "star": _kelvin_images(self.WS, self.ZS, self.RS, self.R0),
        }
        self.W_img, self.Z_img, self.r_img = self.images["star"]
        # chi(r/R0) at the image points: 1 would mean the tail is cut away
        self.chi_img = chi(self.r_img / R0)
        self._weights = {}

    def weight(self, patch, k):
        """(r/R0)^k at the nodes of patch "int" or "star" (r the patch's own
        radius), 0 at the patch origin when k < 0; cached and read-only."""
        if (patch, k) not in self._weights:
            wt = _radial_power(self.RI if patch == "int" else self.RS, self.R0, k)
            wt.flags.writeable = False
            self._weights[patch, k] = wt
        return self._weights[patch, k]

    def key(self):
        return (round(self.R0, 12), self.n_int, self.n_ext)

    def __eq__(self, other):
        return isinstance(other, AxiGrid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _extend_low(arr, axis, parity):
    """One reflected ghost layer across the first node of `axis`."""
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(1, 2)
    return parity * arr[tuple(sl)]


def _extrapolate(a1, a2, a3):
    """The quadratic through a3, a2, a1 (equally spaced) one node past a1."""
    return 3.0 * a1 - 3.0 * a2 + a3


def _extend_high(arr, axis):
    """One quadratic-extrapolation ghost layer past the last node."""
    sl = lambda k: tuple(
        slice(None) if a != axis else slice(arr.shape[axis] + k, arr.shape[axis] + k + 1)
        for a in range(arr.ndim)
    )
    return _extrapolate(arr[sl(-1)], arr[sl(-2)], arr[sl(-3)])


def _fd1(arr, h, axis, parity):
    """Second-order first derivative with a parity ghost at the low edge."""
    ext = np.concatenate([_extend_low(arr, axis, parity), arr, _extend_high(arr, axis)], axis=axis)
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis] = slice(0, arr.shape[axis])
    hi[axis] = slice(2, arr.shape[axis] + 2)
    return (ext[tuple(hi)] - ext[tuple(lo)]) / (2.0 * h)


def _cells(shape, h, xq, yq):
    """Bilinear cells of query points on a uniform grid starting at 0: the
    flat indices of each cell's four corners and the weights 1 - t and t
    along each axis."""
    nx, ny = shape
    fx = np.clip(xq / h, 0.0, nx - 1.0 - 1e-12)
    fy = np.clip(yq / h, 0.0, ny - 1.0 - 1e-12)
    ix = fx.astype(int)
    iy = fy.astype(int)
    tx = fx - ix
    ty = fy - iy
    k00 = ix * ny + iy
    return (k00, k00 + ny, k00 + 1, k00 + ny + 1), (1 - tx, tx, 1 - ty, ty)


def _combine(vals, cells):
    """Bilinear values of vals from _cells of its shape."""
    (k00, k10, k01, k11), (sx, tx, sy, ty) = cells
    flat = vals.ravel()
    return (
        flat[k00] * sx * sy
        + flat[k10] * tx * sy
        + flat[k01] * sx * ty
        + flat[k11] * tx * ty
    )


def _bilinear(vals, h, xq, yq):
    """Bilinear interpolation on a uniform grid starting at 0."""
    return _combine(vals, _cells(vals.shape, h, xq, yq))


class _Points:
    """What evaluating any field of one grid at one point set needs, computed
    once: the parity signs, r, chi(r/R0), the near/far split, the Kelvin
    images of the far points and each patch's bilinear cells."""

    def __init__(self, grid, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(z, dtype=float))
        self.scalar = w.ndim == 0
        if self.scalar:
            w = w.reshape(1)
            z = z.reshape(1)
        self.grid = g = grid
        self.w, self.z = w, z
        wq, zq = np.abs(w), np.abs(z)
        r = np.hypot(wq, zq)
        self.shape = r.shape
        c = chi(r / g.R0)
        self.near = c > 0.0
        self.far = c < 1.0
        self.any_near = bool(np.any(self.near))
        self.any_far = bool(np.any(self.far))
        self.c_near = c[self.near]
        self.wn, self.zn = wq[self.near], zq[self.near]
        rf = r[self.far]
        scale = (g.R0**2) / rf**2
        self.wsq, self.zsq = wq[self.far] * scale, zq[self.far] * scale
        self.rf, self.c_far = rf, c[self.far]
        self._signs, self._far_weight, self._cells = {}, {}, {}

    def sign(self, parity):
        if parity not in self._signs:
            sgn = np.where(self.z < 0, float(parity[1]), 1.0)
            self._signs[parity] = sgn * np.where(self.w < 0, float(parity[0]), 1.0)
        return self._signs[parity]

    def far_weight(self, n):
        """(1 - chi) (R0/r)^(n-2) at the far points."""
        if n not in self._far_weight:
            self._far_weight[n] = (1.0 - self.c_far) * _radial_power(self.rf, self.grid.R0, 2 - n)
        return self._far_weight[n]

    def interp(self, fld, patch):
        """fld's stored tail of one patch ("int" or "star") interpolated at
        the near points or at the far points' images."""
        g = self.grid
        vals, h, x, y = (
            (fld.int_vals, g.h_int, self.wn, self.zn)
            if patch == "int"
            else (fld.star_vals, g.h_ext, self.wsq, self.zsq)
        )
        if patch not in self._cells:
            self._cells[patch] = _cells(vals.shape, h, x, y)
        return _combine(vals, self._cells[patch])

    def value(self, fld):
        """The total value of fld, as AxiField.eval returns it."""
        out = np.zeros(self.shape)
        if self.any_near:
            out[self.near] += self.c_near * self.interp(fld, "int")
        if self.any_far:
            out[self.far] += self.far_weight(fld.n_index) * self.interp(fld, "star")
        out = fld.offset + self.sign(fld.parity) * out
        if self.scalar:
            return float(out[0])
        return out


def eval_fields(fields, w, z):
    """[f.eval(w, z) for f in fields] for fields on one grid, bit for bit,
    with one geometry pass over the points for all of them (_Points): per
    field only the four gathers and the bilinear combine per patch remain.
    PNSolver.ktilde_arrays samples its eleven K-gradient fields this way,
    with one chi evaluation per point set instead of eleven."""
    pts = _Points(fields[0].grid, w, z)
    for f in fields[1:]:
        fields[0]._require_same_grid(f)
    return [pts.value(f) for f in fields]


def _fill_origin(star_vals):
    """Quadratic extrapolation of the origin-image entry from nearby nodes."""
    diag = np.array([star_vals[1, 1], star_vals[2, 2], star_vals[3, 3]])
    ests = [_extrapolate(*seq) for seq in (star_vals[0, 1:4], star_vals[1:4, 0], diag)]
    star_vals[0, 0] = np.mean(ests)
    return star_vals


@dataclass
class AxiField:
    """offset + decaying two-patch tail of decay index n (O(r^-(n-2)))."""

    grid: AxiGrid
    n_index: int
    int_vals: np.ndarray = field(repr=False)
    star_vals: np.ndarray = field(repr=False)
    parity: tuple = (1, 1)
    offset: float = 0.0

    def __post_init__(self):
        if self.n_index < 3:
            raise DomainError("decay index must be >= 3")
        if self.offset != 0.0 and (self.parity[0] < 0 or self.parity[1] < 0):
            raise DomainError("odd fields cannot carry a constant offset")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, grid, n_index=3):
        return cls(grid, n_index, np.zeros((grid.n_int, grid.n_int)),
                   np.zeros((grid.n_ext, grid.n_ext)))

    @classmethod
    def from_function(cls, grid, fn, n_index=3, parity=(1, 1), offset=0.0):
        """Sample fn(w, z) on the interior nodes and at the starred nodes'
        Kelvin images; the origin-image, infinity, is extrapolated."""
        int_vals = np.asarray(fn(grid.WI, grid.ZI), dtype=float) - offset
        pos = grid.RS > 0
        tail = np.asarray(fn(grid.W_img[pos], grid.Z_img[pos]), dtype=float) - offset
        star_vals = np.zeros_like(grid.RS)
        star_vals[pos] = grid.weight("star", 2 - n_index)[pos] * tail
        _fill_origin(star_vals)
        return cls(grid, n_index, int_vals, star_vals, parity, offset)

    @classmethod
    def constant(cls, grid, value):
        return cls(
            grid,
            3,
            np.zeros((grid.n_int, grid.n_int)),
            np.zeros((grid.n_ext, grid.n_ext)),
            (1, 1),
            float(value),
        )

    # -- raw views ------------------------------------------------------------

    def int_total(self):
        """offset + tail at the interior nodes."""
        return self.offset + self.int_vals

    def star_raw_values(self):
        """Field values (offset included) at the exterior image points."""
        return self.offset + self.grid.weight("star", self.n_index - 2) * self.star_vals

    def interior_compact(self):
        """Samples of Q^[0] = chi(r/R0) Q on the interior patch."""
        return self.grid.chi_int * self.int_total()

    def exterior_tail_star(self):
        """Samples of (Q^[inf])_star(n) of an offset-free field (an offset
        has no finite starred value at the origin-image)."""
        if self.offset != 0.0:
            raise DecayError("a constant offset has no starred exterior tail")
        return (1.0 - self.grid.chi_img) * self.star_vals

    # -- evaluation ------------------------------------------------------------

    def eval(self, w, z):
        """Total value at arbitrary half-plane points (z < 0 by parity):
        chi(r/R0) times the interior tail plus (1 - chi) times the starred
        one, brought back by (R0/r)^(n-2), plus the offset.  This is the
        one-field case of eval_fields; several fields at one point set
        should go through that, to share one geometry pass."""
        return eval_fields([self], w, z)[0]

    # -- derivatives -------------------------------------------------------------

    def derivative(self, axis):
        """d/d(varpi) or d/dz of the field as a new two-patch field.

        Interior: central differences with parity ghosts at the axes and
        one-sided closure at the outer edges.  Exterior: differentiate the
        stored Kelvin samples and map through the inversion chain rule.
        """
        if axis not in ("w", "z"):
            raise DomainError("derivative takes axis 'w' or 'z'")
        g = self.grid
        ax = 0 if axis == "w" else 1
        n = self.n_index

        d_int = _fd1(self.int_vals, g.h_int, ax, self.parity[ax])

        dq_dw = _fd1(self.star_vals, g.h_ext, 0, self.parity[0])
        dq_dz = _fd1(self.star_vals, g.h_ext, 1, self.parity[1])
        q = self.star_vals
        WS, ZS, RS = g.WS, g.ZS, g.RS
        if ax == 0:
            d_star = (
                -(n - 2) * WS * q + (RS**2 - 2 * WS**2) * dq_dw - 2 * WS * ZS * dq_dz
            ) / g.R0**2
        else:
            d_star = (
                -(n - 2) * ZS * q - 2 * WS * ZS * dq_dw + (RS**2 - 2 * ZS**2) * dq_dz
            ) / g.R0**2

        par = list(self.parity)
        par[ax] = -par[ax]
        return AxiField(g, n, d_int, d_star, tuple(par), 0.0)

    # -- algebra -------------------------------------------------------------------

    def _require_same_grid(self, other):
        if self.grid is not other.grid and self.grid != other.grid:
            raise DomainError("fields live on different grids")

    def reindex(self, n_new):
        """Restate the tail at another decay index (lowering is always safe;
        raising extrapolates the origin-image)."""
        if n_new == self.n_index:
            return self
        d = self.n_index - n_new
        star = self.grid.weight("star", d) * self.star_vals
        if d < 0:
            _fill_origin(star)
        return AxiField(self.grid, n_new, self.int_vals.copy(), star, self.parity, self.offset)

    def __neg__(self):
        return AxiField(self.grid, self.n_index, -self.int_vals, -self.star_vals, self.parity, -self.offset)

    def _binary_parity(self, other):
        return (self.parity[0] * other.parity[0], self.parity[1] * other.parity[1])

    def __add__(self, other):
        if np.isscalar(other):
            return replace(self, offset=self.offset + float(other))
        self._require_same_grid(other)
        n = min(self.n_index, other.n_index)
        a = self.reindex(n)
        b = other.reindex(n)
        if a.parity != b.parity:
            raise DomainError("parity mismatch in field addition")
        return AxiField(self.grid, n, a.int_vals + b.int_vals, a.star_vals + b.star_vals, a.parity,
                        a.offset + b.offset)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if not np.isscalar(other) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return AxiField(self.grid, self.n_index, self.int_vals * other, self.star_vals * other,
                            self.parity, self.offset * other)
        self._require_same_grid(other)
        g = self.grid
        par = self._binary_parity(other)
        if self.offset == 0.0 and other.offset == 0.0:
            n = self.n_index + other.n_index - 2
            star = self.star_vals * other.star_vals
            return AxiField(g, n, self.int_vals * other.int_vals, star, par, 0.0)
        n = min(self.n_index, other.n_index)
        a = self.reindex(n)
        b = other.reindex(n)
        int_vals = a.int_total() * b.int_total() - a.offset * b.offset
        # (o1+T1)(o2+T2) - o1 o2 = o1 T2 + o2 T1 + T1 T2; the last term carries
        # index 2n-2 >= n and is restated at n through the image radius
        cross = a.offset * b.star_vals + b.offset * a.star_vals
        t1t2 = a.star_vals * b.star_vals * g.weight("star", n - 2)
        return AxiField(g, n, int_vals, cross + t1t2, par, a.offset * b.offset)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        if not np.isscalar(other):
            return NotImplemented
        return AxiField.constant(self.grid, float(other)) / self

    def __truediv__(self, other):
        if np.isscalar(other):
            return self * (1.0 / other)
        self._require_same_grid(other)
        if other.offset == 0.0:
            raise DomainError("field division needs a divisor bounded away from zero")
        g = self.grid
        n = min(self.n_index, other.n_index)
        a = self.reindex(n)
        b = other.reindex(n)
        off = a.offset / b.offset
        int_vals = a.int_total() / b.int_total() - off
        # T_res = (T1 o2 - o1 T2)/(o2 (o2 + T2)); the star transform shares the
        # (r/R0)^(n-2) weight of the numerator tails
        denom = b.offset * b.star_raw_values()
        star = (a.star_vals * b.offset - a.offset * b.star_vals) / denom
        return AxiField(g, n, int_vals, star, self._binary_parity(other), off)


# -- pointwise helper maps -----------------------------------------------------


def _psi_apply(psi_ratio, limit, star_vals, arg_star_raw):
    """star of f(T) when f(T)/T -> limit as T -> 0: f(T) (r/R0)^(n-2)
    = psi(T) * star_vals with psi = f(T)/T, evaluated stably."""
    small = np.abs(arg_star_raw) < 1e-8
    safe = np.where(small, 1.0, arg_star_raw)
    psi = np.where(small, limit, psi_ratio(safe) / safe)
    return psi * star_vals


def field_expm1(field, scale=1.0):
    """expm1(scale * Q) = (e^{s off} - 1) + e^{s off} expm1(s T), exactly."""
    g = field.grid
    base = np.exp(scale * field.offset)
    int_vals = base * np.expm1(scale * field.int_vals)
    sT = scale * g.weight("star", field.n_index - 2) * field.star_vals
    star = base * _psi_apply(np.expm1, 1.0, scale * field.star_vals, sT)
    return AxiField(g, field.n_index, int_vals, star, field.parity, base - 1.0)


def field_log1p(field):
    """log1p(Q) for a decaying field with 1 + Q > 0."""
    g = field.grid
    base = np.log1p(field.offset)
    ratio = 1.0 / (1.0 + field.offset)
    int_vals = np.log1p(field.int_vals * ratio)
    T = g.weight("star", field.n_index - 2) * field.star_vals * ratio
    star = _psi_apply(np.log1p, 1.0, field.star_vals * ratio, T)
    return AxiField(g, field.n_index, int_vals, star, field.parity, base)


def exp_of(field, scale=1.0):
    """exp(scale * Q) as offset exp(scale*offset_limit) plus a decaying tail."""
    e = field_expm1(field, scale)
    return e + 1.0


def compact_map(fn, *fields, n_index=3):
    """Pointwise fn over raw field values, for fn vanishing at the common
    far-field limit (compactly supported or rapidly decaying results).

    The starred tail is (r/R0)^(n-2) fn(raw values at the image points); the
    factor has no finite value at the origin-image, so fn must be exactly
    zero there (true for all fluid-state maps, which vanish where u <= 0),
    and finite everywhere.
    """
    g = fields[0].grid
    int_vals = fn(*[f.int_total() for f in fields])
    vals = fn(*[f.star_raw_values() for f in fields])
    if vals[0, 0] != 0.0 or not np.all(np.isfinite(vals)):
        raise DomainError("compact_map result must be finite and vanish at the origin-image")
    return AxiField(g, n_index, int_vals, g.weight("star", 2 - n_index) * vals, (1, 1), 0.0)


def div_varpi(field):
    """field / varpi for an odd-in-varpi field, with decay index n + 1; the
    axis column takes the parity limit by quadratic extrapolation."""
    g = field.grid
    if field.parity[0] != -1:
        raise DomainError("div_varpi needs an odd-in-varpi field")
    int_vals = np.empty_like(field.int_vals)
    int_vals[1:, :] = field.int_vals[1:, :] / g.WI[1:, :]
    int_vals[0, :] = _extrapolate(*int_vals[1:4, :])
    # (f/varpi)_star(n+1) = f_star * r*/(varpi* R0); odd f_star vanishes on
    # the varpi*=0 column, extrapolate the ratio there
    star = np.empty_like(field.star_vals)
    star[1:, :] = field.star_vals[1:, :] * g.RS[1:, :] / (g.WS[1:, :] * g.R0)
    star[0, :] = _extrapolate(*star[1:4, :])
    return AxiField(g, field.n_index + 1, int_vals, star, (1, field.parity[1]), 0.0)


def mul_varpi(field):
    """varpi * field at decay index n - 1: (varpi f)_star(n-1) = varpi* (R0/r*)
    f_star(n), a bounded direction factor times f_star, so the origin-image
    limit is finite but direction-dependent."""
    g = field.grid
    if field.n_index < 4:
        raise DomainError("varpi multiplication needs a decay index >= 4")
    if field.offset != 0.0:
        raise DomainError("varpi multiplication needs an offset-free field")
    return AxiField(g, field.n_index - 1, g.WI * field.int_vals,
                    g.WS * g.weight("star", -1) * field.star_vals,
                    (-field.parity[0], field.parity[1]), 0.0)
