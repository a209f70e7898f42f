"""Inverse operators of the post-Newtonian elliptic equations.

k_n inverts the axisymmetric n-Laplacian

    L_n = d^2/dvarpi^2 + (n-2)/varpi d/dvarpi + d^2/dz^2,   n in {3, 4, 5},

for compactly supported sources through the Newtonian convolution
(1/((n-2) omega_{n-1})) int g / |x - x'|^(n-2) reduced over the first n-1
coordinates to a ring kernel on the (varpi, z) half-plane.  The azimuthal
integrals have closed forms: complete elliptic integrals for n = 3 and 5 and
a logarithm for n = 4.  Nystrom quadrature is nodal trapezoid with exact
near-diagonal cell corrections (local polar integration on the log-singular
cells, tensor Gauss on their neighbors).

k_n_global extends the inverse to decaying sources: the exterior tail is
pulled to the starred plane, re-weighted by (R0/r*)^4 (which turns it into a
compact starred source), inverted there with the same machinery, and pushed
back by the Kelvin transform.  l_op solves the Helmholtz-like interior
problem (L_3 + coef) W + g = 0 as a direct dense Nystrom system.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import next_fast_len
from scipy.special import ellipe, ellipk

from .errors import DecayError, DomainError, SolverError
from .fields import AxiField, _bilinear, _fill_origin

# |S^(n-2)| and the fundamental-solution normalization (n-2) |S^(n-1)|
SPHERE_AREA = {3: 2.0 * math.pi, 4: 4.0 * math.pi, 5: 2.0 * math.pi**2}
FUND_NORM = {3: 4.0 * math.pi, 4: 4.0 * math.pi**2, 5: 8.0 * math.pi**2}


def axis_laplacian(vals, h, n):
    """Discrete L_n with parity ghosts at varpi = 0 and z = 0 (even fields).

    On the axis the radial part limits to (n-1) d^2/dvarpi^2.
    """
    v = vals
    P, Q = v.shape
    ext_w = np.concatenate([v[1:2, :], v, np.zeros((1, Q))], axis=0)
    ext_z = np.concatenate([v[:, 1:2], v, np.zeros((P, 1))], axis=1)
    d2w = (ext_w[2:, :] - 2 * v + ext_w[:-2, :]) / h**2
    d2z = (ext_z[:, 2:] - 2 * v + ext_z[:, :-2]) / h**2
    dw = (ext_w[2:, :] - ext_w[:-2, :]) / (2 * h)
    w = np.arange(P) * h
    out = np.empty_like(v)
    out[1:, :] = d2w[1:, :] + (n - 2) / w[1:, None] * dw[1:, :] + d2z[1:, :]
    out[0, :] = (n - 1) * d2w[0, :] + d2z[0, :]
    out[-1, :] = np.nan  # one-sided closure not provided; mask the edge
    out[:, -1] = np.nan
    return out


def ring_kernel(n, wt, ws, dz):
    """Azimuthally reduced Newtonian kernel; includes the ring measure.

    Symmetric under (wt, ws) swap up to the ws^(n-2) measure factor; the
    coincidence singularity is logarithmic and is masked to zero here (the
    corrected quadrature owns those cells).  Coincident and axis points
    (B / (A + B) < 1e-14) get their own values patched in only when the
    input has any, so a generic call makes no masking pass.
    """
    wt, ws, dz = (np.asarray(x, dtype=float) for x in (wt, ws, dz))
    scalar = wt.ndim == ws.ndim == dz.ndim == 0
    wt, ws, dz = np.atleast_1d(wt, ws, dz)
    A = (wt - ws) ** 2 + dz**2
    B = 4.0 * wt * ws
    diag = A <= 0.0
    has_diag = diag.any()
    if has_diag:
        A[diag] = 1.0  # stand-in; zeroed at the end
    AB = A + B
    m = B / AB

    if n == 3:
        out = ws * ellipk(m) / (math.pi * np.sqrt(AB))
    elif n in (4, 5):
        axis = m < 1e-14
        has_axis = axis.any()
        if n == 4:
            if has_axis:
                wt = np.where(wt > 0, wt, 1.0)
            out = ws * np.log(AB / A) / (4.0 * math.pi * wt)
        else:
            K = ellipk(m)
            gm = 2.0 * (K - ellipe(m)) - m * K
            if has_axis:
                B = np.where(axis, 1.0, B)
            out = ws**3 * 8.0 * np.sqrt(AB) * gm / (2.0 * math.pi * B**2)
        if has_axis:
            ws_ax = np.broadcast_to(ws, out.shape)[axis]
            A_ax = A[axis]
            out[axis] = ws_ax**2 / (math.pi * A_ax) if n == 4 else ws_ax**3 / (4.0 * A_ax**1.5)
    else:
        raise DomainError(f"unsupported dimension n={n}")
    if has_diag:
        out[diag] = 0.0
    if scalar:
        return float(out[0])
    return out


_TABLE_CACHE = {}
_FAR_CACHE = {}
_FAR_BLOCK = 1 << 16  # kernel evaluations per block of far-field weights
FAR_RANK_TOL = 1e-15  # far skeleton: QR pivots above this fraction of the first
FAR_SKETCH_ROWS = 8  # far sketch: about this many source nodes per table node count
MC = 2  # corrected node patch: offsets -MC..MC around each target
N_GAUSS_BASE = 4  # Gauss points per cell axis of the hat-product weights W2
N_GAUSS_NEAR = 10  # Gauss points per cell axis of the corrected cells
N_GAUSS_POLAR = (12, 16)  # (angle, radius) points per half of a polar cell


def get_table(P, n):
    """Unit-spacing kernel table, cached per (node count, dimension)."""
    key = (int(P), int(n))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = KernelTable(P, n)
    return _TABLE_CACHE[key]


def _gauss01(G):
    """G-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = leggauss(G)
    return 0.5 * (x + 1.0), 0.5 * w


def _hat_weights(t, w):
    """Quadrature weights times the two linear hats of a unit cell: column 0
    leans toward the lower node, column 1 toward the upper one."""
    return np.stack([(1.0 - t) * w, t * w], axis=1)


def _polar_rule():
    """Polar Gauss rule on the unit square [0, 1]^2 around its corner at
    the origin: points (x, y) and weights, the Jacobian rho included.

    Each half (phi below and above pi/4) takes N_GAUSS_POLAR[0] angles and
    N_GAUSS_POLAR[1] radii out to the far edge, so the log singularity at
    the corner meets a smooth integrand.
    """
    nphi, nrho = N_GAUSS_POLAR
    xg_phi, wg_phi = leggauss(nphi)
    xg_rho, wg_rho = leggauss(nrho)
    parts = []
    for lo, hi, edge in ((0.0, math.pi / 4.0, np.cos), (math.pi / 4.0, math.pi / 2.0, np.sin)):
        phi = lo + 0.5 * (hi - lo) * (xg_phi + 1.0)
        wphi = 0.5 * (hi - lo) * wg_phi
        R = 1.0 / edge(phi)
        rho = 0.5 * R[:, None] * (xg_rho + 1.0)[None, :]
        wrho = 0.5 * R[:, None] * wg_rho[None, :]
        x = rho * np.cos(phi)[:, None]
        y = rho * np.sin(phi)[:, None]
        parts.append((x, y, rho * wrho * wphi[:, None]))
    return [np.concatenate([part[k].ravel() for part in parts]) for k in range(3)]


class KernelTable:
    """Product-integration Nystrom data in unit node coordinates.

    The ring kernel is invariant under a uniform rescaling of (wt, ws, dz),
    so one table per (P, n) serves every physical grid with P nodes: physical
    applications just carry the h^2 measure.  The base rule integrates the
    kernel exactly against the tensor piecewise-linear interpolant of the
    source (hat-product weights W2[i, i', lag], Toeplitz and even in the z
    lag), which keeps the quadrature error a smooth O(h^2) interpolation
    error.  The W2 entries whose hat supports touch the log singularity are
    replaced by high-order local integrals (polar around the target, fine
    Gauss nearby).  Off the node grid, eval_at sums the plain nodal rule,
    whose weights far_weights builds block by block.

    W2 is stored only as its z-spectra.  Each lag row, placed circularly
    even in a length nfft >= 4P - 4 (lags 0..2P-2 and their mirrors), has a
    real rfft, so C[k, i, i'] is a float64 array of shape (nfft/2 + 1, P, P):
    the size of W2 when nfft = 4P - 4, as for every P = 2^k + 1.  apply
    transforms the circularly even source once, multiplies by C frequency
    by frequency in one batched product and transforms back; the output
    window z = 0..P-1 stays clear of wrap-around.  rows() rebuilds the W2
    slabs it needs from C with irfft.

    The build is batched.  W2 takes one ring_kernel call per target column,
    and its Gauss sums are one matrix product per cell axis against the two
    hat weights; each column's slab is transformed into C before the next
    one is built.  The corrections take two ring_kernel calls in all: one
    for the Gauss points of every near cell of every column, one for the
    polar points of the four cells with a corner on the target.  Each cell's
    four corner integrals are one product against the corner weights,
    scattered into the node patch by a bincount.
    """

    def __init__(self, P, n):
        self.P = int(P)
        self.n = int(n)
        self.nodes = np.arange(self.P, dtype=float)
        self.colw = np.ones(self.P)
        self.colw[0] = 0.5
        self.colw[-1] = 0.5
        # circular length: a lag row even about index 0 holds lags
        # -(2P-2)..2P-2 when nfft >= 4P-4 (at 4P-4 the two end lags share
        # index 2P-2); every lag j - z' of an output z = j in 0..P-1 and a
        # source |z'| <= P-1 then sits at its own index, free of wrap-around
        self.nfft = next_fast_len(4 * self.P - 4, real=True)
        self._build_corrections(self._build_w2())

    def _build_w2(self):
        """C = rfft of the circularly even rows of W2, with
        W2[i, i', lag] = int int k(i, ws, dz) hat_i'(ws) hat_lag(|dz|).

        Returns base[i, dni, dnj] = W2[i, i + dni, |dnj|] (clipped to the
        grid), the entries the corrections replace.
        """
        P, G, nfft = self.P, N_GAUSS_BASE, self.nfft
        t, wq = _gauss01(G)
        hats = _hat_weights(t, wq)
        n_wc = P - 1
        n_zc = 2 * P - 2  # dz cells [0,1], ..., [2P-3, 2P-2]
        ws_pts = (np.arange(n_wc)[:, None] + t[None, :]).ravel()
        dz_pts = (np.arange(n_zc)[:, None] + t[None, :]).ravel()
        dn = np.arange(-MC, MC + 1)
        base = np.empty((P, dn.size, dn.size))
        self.C = np.empty((nfft // 2 + 1, P, P))
        row = np.zeros((P, nfft))
        for i in range(P):
            W2 = np.zeros((P, 2 * P - 1))
            kv = ring_kernel(self.n, float(i), ws_pts[:, None], dz_pts[None, :])
            # contract the dz Gauss axis, then the varpi one, against the
            # hats: c[a, p, b, q] weighs varpi cell a toward node a + p and
            # dz cell b toward lag b + q
            c = (kv.reshape(-1, G) @ hats).reshape(n_wc, G, 2 * n_zc)
            c = (hats.T @ c).reshape(n_wc, 2, n_zc, 2)
            W2[:-1, :-1] += c[:, 0, :, 0]
            W2[:-1, 1:] += c[:, 0, :, 1]
            W2[1:, :-1] += c[:, 1, :, 0]
            W2[1:, 1:] += c[:, 1, :, 1]
            # the lag-0 hat also spans dz in [-1, 0], which mirrors the
            # lower-weighted part of dz-cell 0 by evenness of the kernel
            W2[:-1, 0] += c[:, 0, 0, 0]
            W2[1:, 0] += c[:, 1, 0, 0]
            base[i] = W2[np.clip(i + dn, 0, P - 1)[:, None], np.abs(dn)]
            # lag l at index l mod nfft: an even sequence, so a real spectrum
            row[:, : 2 * P - 1] = W2
            row[:, nfft - 2 * P + 2 :] = W2[:, :0:-1]
            self.C[:, i, :] = np.fft.rfft(row, axis=1).real.T
        return base

    def _build_corrections(self, base):
        """corr[i, dni, dnj] = accurate W2 entry minus the 4-point-Gauss one
        for the (2 MC + 1)^2 node patch around targets in column i.

        The unit cell at offsets (a, b), both in -MC-1..MC, from a target
        in column i feeds its four corner nodes; cells that leave the varpi
        range of the grid are skipped.
        """
        P, n = self.P, self.n
        d = np.arange(-MC - 1, MC + 1)
        I, DI, DJ = (x.ravel() for x in np.meshgrid(np.arange(P), d, d, indexing="ij"))
        keep = (I + DI >= 0) & (I + DI <= P - 2)
        I, DI, DJ = I[keep], DI[keep], DJ[keep]
        polar = (DI >= -1) & (DI <= 0) & (DJ >= -1) & (DJ <= 0)
        p = np.arange(2)

        # tensor Gauss off the target: corner (p, q) is node (a + p, b + q)
        t, wq = _gauss01(N_GAUSS_NEAR)
        hats = _hat_weights(t, wq)
        i, a, b = (x[~polar, None, None] for x in (I, DI, DJ))
        wt = i.astype(float)
        kv = ring_kernel(n, wt, wt + (a + t[:, None]), b + t)
        near = (np.einsum("cgh,gp,hq->cpq", kv, hats, hats), i, a + p[:, None], b + p)

        # polar Gauss on the cells with a corner on the target, mirrored
        # into the cell by the signs (sx, sz): corner (p, q) at distance
        # (p, q) from the target is node (sx p, sz q)
        x, y, w = _polar_rule()
        i, a, b = (v[polar, None] for v in (I, DI, DJ))
        sx, sz = 2 * a + 1, 2 * b + 1
        wt = i.astype(float)
        kv = ring_kernel(n, wt, wt + sx * x, sz * y)
        corner = np.stack([w * (1 - x) * (1 - y), w * (1 - x) * y, w * x * (1 - y), w * x * y])
        ex = (kv @ corner.T).reshape(-1, 2, 2)
        i, sx, sz = i[:, :, None], sx[:, :, None], sz[:, :, None]
        polar_cells = (ex, i, sx * p[:, None], sz * p)

        # sum the corner integrals into the node patch, offsets -MC-1..MC+1
        S = 2 * MC + 3
        flat, vals = [], []
        for ex, i, dni, dnj in (near, polar_cells):
            ex, i, dni, dnj = np.broadcast_arrays(ex, i, dni, dnj)
            flat.append(((i * S + dni + MC + 1) * S + dnj + MC + 1).ravel())
            vals.append(ex.ravel())
        acc = np.bincount(np.concatenate(flat), np.concatenate(vals), P * S * S)
        acc = acc.reshape(P, S, S)[:, 1:-1, 1:-1]
        # base subtraction: the coarse W2 entries; a patch node at
        # negative z is the same entry by evenness, and the z-hat of a
        # node reaches dz of both signs, which acc already accumulated
        dn = np.arange(-MC, MC + 1)
        node = np.arange(P)[:, None, None] + dn[:, None]
        self.corr = np.where((node >= 0) & (node < P), acc - base, 0.0)

    # -- application ----------------------------------------------------------

    def apply(self, gvals):
        """Unit-coordinate potential on the node grid (multiply by h^2)."""
        P, nfft = self.P, self.nfft
        # the source, circularly even in z: z and -z at indices z and nfft - z
        gx = np.zeros((nfft, P))
        gx[:P] = gvals.T
        gx[nfft - P + 1 :] = gvals.T[:0:-1]
        GX = np.fft.rfft(gx, axis=0)
        # one real product per frequency, real and imaginary parts of the
        # source spectrum stacked on a trailing axis of 2
        Y = self.C @ GX.view(np.float64).reshape(GX.shape + (2,))
        y = np.fft.irfft(Y.view(np.complex128)[..., 0], nfft, axis=0)
        out = np.ascontiguousarray(y[:P].T)

        mc = MC
        gpad = np.zeros((P + 2 * mc, P + 2 * mc))
        gpad[mc : mc + P, mc : mc + P] = gvals
        gpad[mc : mc + P, :mc] = gvals[:, mc:0:-1]
        for dni in range(-mc, mc + 1):
            for dnj in range(-mc, mc + 1):
                w = self.corr[:, dni + mc, dnj + mc]
                if not np.any(w):
                    continue
                out += w[:, None] * gpad[mc + dni : mc + dni + P, mc + dnj : mc + dnj + P]
        return out

    def eval_at(self, gvals, wt, zt, support_mask=None):
        """Plain nodal quadrature at scattered unit-coordinate targets
        (targets must stay a few cells away from strong sources)."""
        if support_mask is None:
            support_mask = np.abs(gvals) > 0
        src = np.flatnonzero(support_mask)
        wt = np.atleast_1d(np.asarray(wt, dtype=float))
        zt = np.atleast_1d(np.asarray(zt, dtype=float))
        g = gvals.ravel()[src]
        out = np.zeros(wt.shape)
        for k0, block in self.far_weights(src, wt, zt):
            out += g[k0 : k0 + len(block)] @ block
        return out

    def far_weights(self, src, wt, zt):
        """eval_at's quadrature weights from flat source nodes src to 1-d
        targets, in blocks of about 64k kernel evaluations: yields (k0, B)
        with B[k, t] the weight of node src[k0 + k] at target t."""
        i_s, j_s = np.divmod(src, self.P)
        step = max(1, _FAR_BLOCK // max(1, wt.size))
        for k0 in range(0, i_s.size, step):
            i = i_s[k0 : k0 + step, None]
            j = j_s[k0 : k0 + step, None]
            ws = self.nodes[i]
            zs = self.nodes[j]
            kv = ring_kernel(self.n, wt[None, :], ws, zt[None, :] - zs)
            # the z < 0 mirror image of every node off the z = 0 row
            kv = kv + np.where(j > 0, 1.0, 0.0) * ring_kernel(
                self.n, wt[None, :], ws, zt[None, :] + zs
            )
            yield k0, self.colw[i] * kv

    def w2_slab(self, i):
        """W2[i] rebuilt from the spectra: (P, 2P - 1), source column by lag."""
        return np.fft.irfft(self.C[:, i, :], self.nfft, axis=0)[: 2 * self.P - 1].T

    def rows(self, targets, sources):
        """Dense quadrature rows R[t, s] consistent with apply()."""
        ti, tj = targets
        si, sj = sources
        R = np.empty((ti.size, si.size))
        mirror = np.where(sj > 0, 1.0, 0.0)
        for col in np.unique(ti):
            sel = np.flatnonzero(ti == col)
            W2 = self.w2_slab(col)
            tz = tj[sel, None]
            R[sel] = W2[si, np.abs(tz - sj)] + mirror * W2[si, tz + sj]
        mc = MC
        src_lookup = {(a, b): k for k, (a, b) in enumerate(zip(si, sj))}
        for t, (a, b) in enumerate(zip(ti, tj)):
            for dni in range(-mc, mc + 1):
                for dnj in range(-mc, mc + 1):
                    w = self.corr[a, dni + mc, dnj + mc]
                    if w == 0.0:
                        continue
                    jj = b + dnj
                    k = src_lookup.get((a + dni, abs(jj)))
                    if k is not None:
                        R[t, k] += w
        return R

    @property
    def nbytes(self):
        return self.C.nbytes + self.corr.nbytes

    def total_mass(self, gvals):
        """Unit-coordinate n-volume integral (multiply by h^n)."""
        P = self.P
        zfold = np.full(P, 2.0)
        zfold[0] = 1.0
        meas = (
            SPHERE_AREA[self.n]
            * self.nodes[:, None] ** (self.n - 2)
            * self.colw[:, None]
            * zfold[None, :]
        )
        return float(np.sum(meas * gvals))


def far_mask(P_t):
    """Far targets of a target patch with P_t nodes per axis, from integer
    node indices: 0 < 4 (i^2 + j^2) <= (P_t - 1)^2.

    The target r < R0/2 (image beyond 2 R0) on the starred patch and r < R0
    (image outside the starred patch) on the interior one are the same
    condition in node units.  The boundary is closed, so every star's float
    mask on the grid shape, whatever the rounding of its R0, is a subset.
    """
    i, j = np.divmod(np.arange(P_t * P_t), P_t)
    q = 4 * (i * i + j * j)
    return ((q > 0) & (q <= (P_t - 1) ** 2)).reshape(P_t, P_t)


def get_far(side, n, n_int, n_ext):
    """Far-field operator of one side, cached per (side, n, grid shape)."""
    key = (side, int(n), int(n_int), int(n_ext))
    if key not in _FAR_CACHE:
        _FAR_CACHE[key] = FarOperator(*key)
    return _FAR_CACHE[key]


class FarOperator:
    """KernelTable.eval_at from the nodes of one table to the far targets of
    one side, as an interpolative decomposition (Cheng, Gimbutas,
    Martinsson & Rokhlin 2005): the far field at all T targets is
    E (T x r) times the exact nodal sums at r skeleton targets.

    side "int" maps interior sources to the starred nodes of far_mask(n_ext)
    (image points beyond 2 R0); side "star" maps starred sources to the
    interior nodes of far_mask(n_int) (image outside the starred patch).  In
    table units both target sets sit at (i, j) (N - 1)(M - 1) / (2 (i^2 + j^2))
    for every R0, so one operator serves every star on a grid shape.

    The skeleton is a column-pivoted QR of a sketch: the weights from an
    evenly strided subset of about FAR_SKETCH_ROWS * P source nodes of the
    quarter disc i^2 + j^2 < (P - 1)^2, where the chi-cut and the diamond
    sources live.  Its rank is the number of pivots above FAR_RANK_TOL of the
    first.  Interior-side columns are scaled by rho_t^(n-2) before the QR:
    the starred patch stores (r/R0)^(n-2) v, and M and J are read there.
    Starred-side columns stay unscaled: scaled, their n = 5 rank grows by
    about half (310 -> 442 at 97/65) to chase roundoff of the ring kernel.

    Row k of weights holds the skeleton weights of source node nodes[k]; a
    node gets its row the first time it carries source, and a node without
    a row contributes nothing, like its zero source value.  Rows are filled
    from the top, so only the rows in use take memory.
    """

    def __init__(self, side, n, n_int, n_ext):
        from scipy.linalg import qr, solve_triangular

        self.table = get_table(n_int if side == "int" else n_ext, n)
        P = self.table.P
        i, j = np.nonzero(far_mask(n_ext if side == "int" else n_int))
        c = (n_int - 1) * (n_ext - 1) / (2.0 * (i * i + j * j))
        wt, zt = i * c, j * c
        scale = np.hypot(wt, zt) ** (n - 2) if side == "int" else np.ones(wt.size)

        si, sj = np.divmod(np.arange(P * P), P)
        disc = np.flatnonzero(si * si + sj * sj < (P - 1) ** 2)
        sketch = disc[:: max(1, disc.size // (FAR_SKETCH_ROWS * P))]
        A = np.vstack([block for _, block in self.table.far_weights(sketch, wt, zt)])
        R, perm = qr(A * scale, mode="r", pivoting=True)
        d = np.abs(np.diag(R))
        r = int(np.count_nonzero(d > FAR_RANK_TOL * d[0]))
        self.skeleton = perm[:r]
        # E = [I | R11^-1 R12] in pivot order, scaled back to plain columns
        E = np.empty((wt.size, r))
        E[perm[:r]] = np.eye(r)
        E[perm[r:]] = solve_triangular(R[:r, :r], R[:r, r:]).T
        self.E = E * scale[self.skeleton] / scale[:, None]
        self.wt, self.zt = wt, zt
        self.weights = np.zeros((P * P, r))
        self.built = np.zeros(P * P, dtype=bool)
        self.nodes = np.zeros(0, dtype=np.intp)

    @property
    def rank(self):
        return self.skeleton.size

    @property
    def nbytes(self):
        """Bytes of E and of the filled skeleton weights."""
        return self.E.nbytes + self.nodes.size * self.rank * 8

    def __call__(self, gvals):
        """Far field at every target, in far_mask order."""
        flat = gvals.ravel()
        new = np.flatnonzero((flat != 0.0) & ~self.built)
        k = self.nodes.size
        J = self.skeleton
        for k0, block in self.table.far_weights(new, self.wt[J], self.zt[J]):
            self.weights[k + k0 : k + k0 + len(block)] = block
        self.built[new] = True
        self.nodes = np.concatenate([self.nodes, new])
        return self.E @ (flat[self.nodes] @ self.weights[: self.nodes.size])


class GreenOps:
    """Two-patch Green operators bound to one AxiGrid.

    Kernel tables live in unit coordinates (cached globally per node count
    and dimension); this class carries the physical measure factors.  The
    far-field quadrature goes to two target sets the grid fixes: the image
    points with r > 2 R0 of the starred patch (interior tables) and the
    interior points with R0^2/r > R0 (starred tables).  Each (side, n) takes
    its rows from the FarOperator shared by every star on the grid shape.
    The masks stay the float tests on this star's R0: on the boundary
    circle their rounding decides, and a star's answers depend on it.
    """

    def __init__(self, grid):
        self.grid = grid
        g = grid
        self.far_img = np.isfinite(g.r_img) & (g.r_img > 2.0 * g.R0)
        # interior points by their Kelvin image: inside the starred patch the
        # potential is interpolated, outside it is summed
        r_int = g.RI
        scale = np.where(r_int > 0, (g.R0**2 / np.where(r_int > 0, r_int, 1.0) ** 2), 0.0)
        self.w_img_int = g.WI * scale
        self.z_img_int = g.ZI * scale
        rs = np.where(r_int > 0, g.R0**2 / np.where(r_int > 0, r_int, 1.0), np.inf)
        self.rs_int = rs
        self.img_inside = (r_int > 0) & (rs <= g.R0)
        self.img_outside = (r_int > 0) & (rs > g.R0)
        # this star's far targets among the shared operator's, in its order
        self._far_rows = {
            "int": self.far_img[far_mask(g.n_ext)],
            "star": self.img_outside[far_mask(g.n_int)],
        }
        # first lookup of each cached table and far operator: True if it built it
        self._tables_used = {}
        self._far_used = {}

    def table_int(self, n):
        return self._table(self.grid.n_int, n)

    def table_star(self, n):
        return self._table(self.grid.n_ext, n)

    def _table(self, P, n):
        self._tables_used.setdefault((P, n), (P, n) not in _TABLE_CACHE)
        return get_table(P, n)

    def far_operator(self, side, n):
        key = (side, n, self.grid.n_int, self.grid.n_ext)
        self._far_used.setdefault((side, n), key not in _FAR_CACHE)
        return get_far(*key)

    def _far(self, side, n, gvals):
        """Unit-coordinate far field at this star's targets of one side."""
        return self.far_operator(side, n)(gvals)[self._far_rows[side]]

    def cache_report(self):
        """Kernel tables and far operators this grid has used: sizes, ranks,
        and whether its first lookup built each one or found it cached."""
        g = self.grid
        tables = {
            f"P{P}_n{n}": {"bytes": _TABLE_CACHE[P, n].nbytes, "built": built}
            for (P, n), built in self._tables_used.items()
        }
        far = {}
        for (side, n), built in self._far_used.items():
            op = _FAR_CACHE[side, n, g.n_int, g.n_ext]
            far[f"{side}_n{n}"] = {
                "rank": op.rank,
                "targets": int(np.count_nonzero(self._far_rows[side])),
                "filled_nodes": op.nodes.size,
                "bytes": op.nbytes,
                "built": built,
            }
        builds = sum(v["built"] for v in (*tables.values(), *far.values()))
        return {
            "kernel_tables": tables,
            "far_operators": far,
            "table_bytes": sum(v["bytes"] for v in tables.values()),
            "far_bytes": sum(v["bytes"] for v in far.values()),
            "builds": builds,
            "cache_hits": len(tables) + len(far) - builds,
        }

    # -- compact inverse --------------------------------------------------------

    def _compact_to_field(self, v_int, src, n):
        """Assemble a two-patch field from interior potential values."""
        g = self.grid
        h = g.h_int
        star = np.zeros((g.n_ext, g.n_ext))
        img_r = g.r_img
        near = np.isfinite(img_r) & (img_r <= 2.0 * g.R0)
        if np.any(near):
            vals = _bilinear(v_int, h, g.W_img[near], g.Z_img[near])
            star[near] = (img_r[near] / g.R0) ** (n - 2) * vals
        far = self.far_img
        if np.any(far):
            vals = h**2 * self._far("int", n, src)
            star[far] = (img_r[far] / g.R0) ** (n - 2) * vals
        star[0, 0] = h**n * self.table_int(n).total_mass(src) / (FUND_NORM[n] * g.R0 ** (n - 2))
        return AxiField(g, n, v_int, star, (1, 1), 0.0)

    def k_n(self, fld, n):
        """Newtonian inverse for a compactly supported source field."""
        g = self.grid
        if fld.offset != 0.0:
            raise DomainError("compact sources cannot carry an offset")
        tail_sup = np.max(np.abs(fld.exterior_tail_star()))
        scale = np.max(np.abs(fld.int_vals)) + 1e-300
        if tail_sup > 1e-12 * scale:
            raise DomainError("source is not compactly supported in r <= 2 R0")
        src = fld.int_vals
        v_int = g.h_int**2 * self.table_int(n).apply(src)
        return self._compact_to_field(v_int, src, n)

    # -- global inverse ------------------------------------------------------------

    def k_n_global(self, fld, n):
        """Inverse for a decaying source: compact part plus Kelvin-pulled tail."""
        g = self.grid
        if fld.offset != 0.0:
            raise DecayError("source with a constant offset is not integrable")
        src0 = fld.interior_compact()
        f0 = self._compact_to_field(g.h_int**2 * self.table_int(n).apply(src0), src0, n)

        g_inf_star = fld.exterior_tail_star()
        if np.max(np.abs(g_inf_star)) == 0.0:
            return f0

        # diamond weight (R0/r*)^4 converts the starred tail into a compact
        # starred source; growth at the origin-image flags an inadmissible tail
        with np.errstate(divide="ignore"):
            dia = np.where(g.RS > 0, (g.R0 / np.where(g.RS > 0, g.RS, 1.0)) ** 4, 0.0)
        src_dia = dia * g_inf_star
        src_dia[0, 0] = 0.0
        inner = (g.RS <= 0.25 * g.R0) & (g.RS > 0)
        # compare against the tail scale on the outer starred band, where any
        # admissible tail is O(1); a diverging diamond source means the decay
        # index overstates the actual falloff
        band = g.RS >= 0.5 * g.R0
        band_scale = float(np.max(np.abs(g_inf_star[band]))) + 1e-300
        if np.any(np.abs(src_dia[inner]) > 1e3 * band_scale):
            raise DecayError("exterior tail decays too slowly for the diamond route")

        stable = self.table_star(n)
        psi = g.h_ext**2 * stable.apply(src_dia)

        # push back: f_inf's starred tail is psi itself; interior values follow
        # from the inverse Kelvin map
        f_inf_int = np.zeros((g.n_int, g.n_int))
        rs = self.rs_int
        inside = self.img_inside
        f_inf_int[inside] = (rs[inside] / g.R0) ** (n - 2) * _bilinear(
            psi, g.h_ext, self.w_img_int[inside], self.z_img_int[inside]
        )
        outside = self.img_outside
        if np.any(outside):
            vals = g.h_ext**2 * self._far("star", n, src_dia)
            f_inf_int[outside] = (rs[outside] / g.R0) ** (n - 2) * vals
        # the patch origin is the image of star infinity: monopole limit
        f_inf_int[0, 0] = (
            g.h_ext**n * stable.total_mass(src_dia) / (FUND_NORM[n] * g.R0 ** (n - 2))
        )

        out_int = f0.int_vals + f_inf_int
        out_star = f0.star_vals + psi
        return AxiField(g, n, out_int, out_star, (1, 1), 0.0)

    # -- Helmholtz-like interior solve ------------------------------------------------

    def make_l_op(self, coef_field, rcond_raise=1e-13):
        """Factorized solver for (L_3 + coef) Q + g = 0 with Q(O) = 0."""
        return LOpSolver(self, coef_field, rcond_raise)

    def l_op(self, fld, coef_field):
        """One-shot convenience wrapper around make_l_op."""
        return self.make_l_op(coef_field).solve(fld)


class LOpSolver:
    """Dense Nystrom solve of the zeroth-order-coupled interior problem.

    The coefficient is compactly supported; the interior block satisfies
    W0 = K[coef W0 + g_eff] with K the origin-subtracted k_3, assembled over
    the support nodes and LU-factorized once (the paper's contraction needs
    small parameters; a direct solve does not).  The exterior source tail is
    handled by the diamond route and couples back through the coefficient.
    The result's value at infinity lands in `offset` (the time-gauge constant
    implied by the Q(O) = 0 normalization).
    """

    def __init__(self, ops, coef_field, rcond_raise=1e-13):
        from scipy.linalg import lu_factor

        self.ops = ops
        self.grid = ops.grid
        self.table = ops.table_int(3)
        self.h = self.grid.h_int
        coef = coef_field.int_total() if coef_field.offset != 0.0 else coef_field.int_vals
        self.coef = coef
        self.si, self.sj = np.nonzero(coef != 0.0)
        self.trivial = self.si.size == 0
        self.smin_estimate = None  # reciprocal 1-norm condition number of the system
        if self.trivial:
            return
        origin = (np.array([0]), np.array([0]))
        R_rows = self.h**2 * self.table.rows((self.si, self.sj), (self.si, self.sj))
        R_origin = self.h**2 * self.table.rows(origin, (self.si, self.sj))
        A = np.eye(self.si.size) - (R_rows - R_origin) * coef[self.si, self.sj][None, :]
        smin = 1.0 / max(float(np.linalg.cond(A, 1)), 1.0)
        if smin < rcond_raise:
            raise SolverError("Nystrom system nearly singular", smallest_singular_value=smin)
        self.smin_estimate = smin
        self._lu = lu_factor(A)

    def solve(self, fld):
        from scipy.linalg import lu_solve

        g = self.grid
        table = self.table
        h = self.h

        # exterior tail first: its interior values feed the coefficient term
        g_inf_star = fld.exterior_tail_star()
        has_tail = np.max(np.abs(g_inf_star)) > 0.0
        if has_tail:
            tail_src = AxiField(
                g, fld.n_index, np.zeros_like(fld.int_vals), g_inf_star, fld.parity, 0.0
            )
            f_inf = self.ops.k_n_global(tail_src, fld.n_index).reindex(3)
            fi0 = f_inf.int_vals[0, 0]
        else:
            f_inf = None
            fi0 = 0.0

        src_eff = fld.interior_compact().copy()
        if has_tail:
            src_eff += self.coef * (f_inf.int_vals - fi0)

        if self.trivial:
            v = self.ops._compact_to_field(h**2 * table.apply(src_eff), src_eff, 3)
        else:
            rhs_full = h**2 * table.apply(src_eff)
            rhs = rhs_full[self.si, self.sj] - rhs_full[0, 0]
            W0 = lu_solve(self._lu, rhs)
            src_tot = src_eff.copy()
            src_tot[self.si, self.sj] += self.coef[self.si, self.sj] * W0
            v = self.ops._compact_to_field(h**2 * table.apply(src_tot), src_tot, 3)

        out_int = v.int_vals
        out_star = v.star_vals
        offset = -v.int_vals[0, 0] - fi0
        if has_tail:
            out_int = out_int + f_inf.int_vals
            out_star = out_star + f_inf.star_vals
        return AxiField(g, 3, out_int, out_star, (1, 1), offset)
