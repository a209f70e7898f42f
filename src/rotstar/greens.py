"""Inverse operators of the post-Newtonian elliptic equations.

GreenOps.k_n_global inverts the axisymmetric n-Laplacian

    L_n = d^2/dvarpi^2 + (n-2)/varpi d/dvarpi + d^2/dz^2,   n in {3, 4, 5},

for decaying sources.  The compact part chi(r/R0) g goes through the
Newtonian convolution (1/((n-2) omega_{n-1})) int g / |x - x'|^(n-2) reduced
over the first n-1 coordinates to a ring kernel on the (varpi, z)
half-plane.  The azimuthal integrals have closed forms: complete elliptic
integrals for n = 3 and 5 and a logarithm for n = 4.  Nystrom quadrature is
product integration against the piecewise-linear interpolant of the source,
its weights computed to high order on the cells near each target (local
polar integration on the log-singular cells, tensor Gauss on their
neighbors), by 4-point Gauss in a band around it, and beyond the band by a
hat stencil on nodal kernel values, where the kernel is smooth; a
KernelTable holds those weights as one array, their DCT-I along the z lag.
The exterior tail is pulled to the starred plane, re-weighted by (R0/r*)^4
(which turns it into a compact starred source) and inverted there with the
same machinery; a compact source has no tail and stops after its first part.
The two patches share one unit-coordinate KernelTable per dimension, sized
to the larger patch; the smaller one reads its leading block, which its
sources, zero on the patch edge, cannot tell from a table of its own.
Both parts reach the other patch by one Kelvin transfer,
GreenOps._patch_potential: bilinear at the images inside the source patch,
the shared FarOperator at the images outside it (the masks in GreenOps.far),
and the monopole limit at the other patch's origin.  An all-zero part is not
transferred: its potential is an exact zero, returned before any table or
far-operator lookup.  That covers a source zero on both patches (a static
star's Y) and the zero compact part of the tail-only field LOpSolver.solve
inverts on every inner iteration.

LOpSolver solves the Helmholtz-like interior problem (L_3 + coef) W + g = 0
as a direct dense Nystrom system.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dct, idct
from scipy.special import ellipe, ellipk

from .errors import DecayError, DomainError, SolverError
from .fields import AxiField, _bilinear

# |S^(n-2)| and the fundamental-solution normalization (n-2) |S^(n-1)|
SPHERE_AREA = {3: 2.0 * math.pi, 4: 4.0 * math.pi, 5: 2.0 * math.pi**2}
FUND_NORM = {3: 4.0 * math.pi, 4: 4.0 * math.pi**2, 5: 8.0 * math.pi**2}


def ring_kernel(n, wt, ws, dz):
    """Azimuthally reduced Newtonian kernel; includes the ring measure.

    Symmetric under (wt, ws) swap up to the ws^(n-2) measure factor; the
    coincidence singularity is logarithmic and is masked to zero here (the
    near-cell integrals own those cells).  Coincident and axis points
    (B / (A + B) < 1e-14) get their own values patched in only when a block
    has any, so a generic call makes no masking pass.

    The broadcast output is evaluated in blocks of about RING_BLOCK values
    along its leading axis, so the dozen temporaries of the n = 5 formula
    stay in cache.  Each value goes through the same operations whatever
    the block, so the result does not depend on the blocking.
    """
    if n not in (3, 4, 5):
        raise DomainError(f"unsupported dimension n={n}")
    wt, ws, dz = (np.asarray(x, dtype=float) for x in (wt, ws, dz))
    scalar = wt.ndim == ws.ndim == dz.ndim == 0
    shape = np.broadcast_shapes(wt.shape, ws.shape, dz.shape) or (1,)
    # each input at the output's rank: its leading axis is 1 or shape[0]
    args = [x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (wt, ws, dz)]
    out = np.empty(shape)
    step = max(1, RING_BLOCK // max(1, math.prod(shape[1:])))
    for k0 in range(0, shape[0], step):
        rows = slice(k0, k0 + step)
        _ring_block(n, *(x[rows] if x.shape[0] > 1 else x for x in args), out[rows])
    if scalar:
        return float(out[0])
    return out


def _ring_block(n, wt, ws, dz, out):
    """ring_kernel on one block, written into out."""
    A = (wt - ws) ** 2 + dz**2
    B = 4.0 * wt * ws
    diag = A <= 0.0
    has_diag = diag.any()
    if has_diag:
        A[diag] = 1.0  # stand-in; zeroed at the end
    AB = A + B
    m = B / AB

    if n == 3:
        np.divide(ws * ellipk(m), math.pi * np.sqrt(AB), out=out)
    else:
        axis = m < 1e-14
        has_axis = axis.any()
        if n == 4:
            if has_axis:
                wt = np.where(wt > 0, wt, 1.0)
            np.divide(ws * np.log(AB / A), 4.0 * math.pi * wt, out=out)
        else:
            K = ellipk(m)
            gm = 2.0 * (K - ellipe(m)) - m * K
            if has_axis:
                B = np.where(axis, 1.0, B)
            np.divide(ws**3 * 8.0 * np.sqrt(AB) * gm, 2.0 * math.pi * B**2, out=out)
        if has_axis:
            ws_ax = np.broadcast_to(ws, out.shape)[axis]
            A_ax = A[axis]
            out[axis] = ws_ax**2 / (math.pi * A_ax) if n == 4 else ws_ax**3 / (4.0 * A_ax**1.5)
    if has_diag:
        out[diag] = 0.0


RING_BLOCK = 1 << 14  # ring_kernel values per cache-resident block
_TABLE_CACHE = {}
_FAR_CACHE = {}
_FAR_BLOCK = 1 << 16  # kernel evaluations per block of far-field weights
FAR_RANK_TOL = 1e-14  # far skeleton: QR pivots above this fraction of the first
FAR_SKETCH_ROWS = 8  # far sketch: about this many source nodes per table node count
MC = 2  # near node patch: offsets -MC..MC around each target
N_GAUSS_BASE = 4  # Gauss points per cell axis of the hat-product weights W2
STENCIL_Q = 5  # q: the nodal hat stencil of W2's far entries spans offsets -q..q
GAUSS_BAND = 16  # D: W2 keeps its Gauss sums within D nodes and D lags of the target
N_GAUSS_NEAR = 10  # Gauss points per cell axis of the near cells
N_GAUSS_POLAR = (12, 16)  # (angle, radius) points per half of a polar cell
RCOND_RAISE = 1e-13  # LOpSolver: smallest reciprocal condition number it factors


def get_table(P, n):
    """Unit-spacing kernel table, cached per (node count, dimension); it
    serves every patch of at most P nodes."""
    key = (int(P), int(n))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = KernelTable(P, n)
    return _TABLE_CACHE[key]


def _trapezoid(p):
    """Nodal trapezoid weights along one axis of a patch with p nodes."""
    w = np.ones(p)
    w[0] = w[-1] = 0.5
    return w


def _gauss01(G):
    """G-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = leggauss(G)
    return 0.5 * (x + 1.0), 0.5 * w


def _hat_weights(t, w):
    """Quadrature weights times the two linear hats of a unit cell: column 0
    leans toward the lower node, column 1 toward the upper one."""
    return np.stack([(1.0 - t) * w, t * w], axis=1)


def _hat_stencil(q):
    """The symmetric (2q + 1)-point stencil s[-q..q] of the unit hat:
    int f(x) hat(x) dx = sum_k s_|k| f(k) for polynomials f of degree up to
    2q + 1, from the moments sum_k s_|k| k^(2j) = 2 / ((2j + 1)(2j + 2)),
    j = 0..q.  That Vandermonde system is ill-conditioned in floats, so it
    is solved exactly: row j is scaled by (2j + 1)(2j + 2) to integers and
    eliminated without division (its leading minors are Vandermonde
    determinants in k^2, so no pivoting is needed), and each weight is one
    correctly rounded integer quotient.
    """
    rows = []
    for j in range(q + 1):
        scale = (2 * j + 1) * (2 * j + 2)
        entries = [scale * 2 * k ** (2 * j) for k in range(1, q + 1)]
        rows.append([scale * int(j == 0), *entries, 2])
    for c, pivot in enumerate(rows):
        for r, row in enumerate(rows):
            if r != c:
                row[:] = [x * pivot[c] - y * row[c] for x, y in zip(row, pivot)]
    half = np.array([row[-1] / row[k] for k, row in enumerate(rows)])
    return np.concatenate([half[:0:-1], half])


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


def _near_integrals(P, n):
    """acc[i, MC + dni, dnj]: the high-order integral of the ring kernel
    against the hat product of node (i + dni, dnj) for a target at (i, 0),
    over the unit cells around it, for |dni| <= MC and lags 0 <= dnj <= MC.

    The cell at offsets (a, b), a in -MC-1..MC and b in -1..MC, from a
    target in column i feeds its four corner nodes; cells that leave the
    varpi range of the grid are skipped, so nodes off the grid get zero.
    The z-hat of lag 0 reaches dz of both signs, and acc sums both.  The
    cells below b = -1 feed only negative lags, which the kernel's evenness
    in dz makes copies of the positive ones, so they are not integrated.
    """
    I, DI, DJ = (x.ravel() for x in np.meshgrid(np.arange(P), np.arange(-MC - 1, MC + 1),
                                                np.arange(-1, MC + 1), indexing="ij"))
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

    # sum the corner integrals into the node patch, offsets -MC-1..MC+1 by
    # lags -1..MC+1
    Si, Sj = 2 * MC + 3, MC + 3
    flat, vals = [], []
    for ex, i, dni, dnj in (near, polar_cells):
        ex, i, dni, dnj = np.broadcast_arrays(ex, i, dni, dnj)
        flat.append(((i * Si + dni + MC + 1) * Sj + dnj + 1).ravel())
        vals.append(ex.ravel())
    acc = np.bincount(np.concatenate(flat), np.concatenate(vals), P * Si * Sj)
    return acc.reshape(P, Si, Sj)[:, 1:-1, 1:-1]


class KernelTable:
    """Product-integration Nystrom data in unit node coordinates.

    The ring kernel is invariant under a uniform rescaling of (wt, ws, dz),
    so one table of P nodes per dimension n serves every patch of p <= P
    nodes, whatever its spacing: physical applications just carry the h^2
    measure, and a patch of p < P nodes reads the leading p x p block.  That
    block is the p-node table except at the patch's last node column and
    last z lag, whose hats end at the patch edge in the p-node table and run
    on in this one.  So a source on p < P nodes must vanish on its last row
    and column (the edge-zero invariant), and apply raises DomainError if it
    does not.  Both patches' sources do: the interior patch ends at
    r = 2 R0, where chi = 0, and the starred one at r* = R0, where
    1 - chi = 0.  The nodal rules of eval_at, far_weights and total_mass
    take the patch's own trapezoid weights.  The base rule integrates the
    kernel against the tensor piecewise-linear interpolant of the source
    (hat-product weights W2[i, i', lag], Toeplitz and even in the z lag),
    which keeps the quadrature error a smooth O(h^2) interpolation error.
    Its entries come from three rules, by distance from the target:
      - near: the entries whose hat supports touch the log singularity,
        nodes i + dni at lags |dnj| with both offsets at most MC, hold
        high-order local integrals (polar around the target, fine Gauss
        nearby);
      - band: the other entries with |i' - i| <= D = GAUSS_BAND and
        lag <= D, and the three half-hat edges (node 0, node P - 1, lag
        2P - 2), are N_GAUSS_BASE x N_GAUSS_BASE Gauss sums on the cells
        of their hats;
      - nodal: every other entry is sum_k sum_l s_k s_l k(i, i' + k, lag + l)
        over the kernel's node values, with s the (2q + 1)-point stencil of
        the hat, q = STENCIL_Q (_hat_stencil).  Beyond D the kernel is
        smooth, and at P = 97 these entries agree with a 12-point Gauss
        reference to 3.7e-12 of their column's largest entry, against up to
        1.5e-8 for the 4-point cells next to the target.
    Off the node grid, eval_at sums the plain nodal rule, whose weights
    far_weights builds block by block.

    The table is one array, C = DCT-I of W2 along the lag: a float64 array
    C[k, i, i'] of shape (2P - 1, P, P), the size of W2.  DCT-I is the real
    DFT of the lag row made even with period 4P - 4 (lags -(2P-2)..2P-2, the
    two end lags at one index), which holds every lag j - z' of an output
    z = j in 0..P-1 and a source |z'| <= P-1 free of wrap-around.  apply
    transforms the source once, multiplies by C frequency by frequency in
    one batched product and transforms back; w2_slab rebuilds a slab of W2
    with one inverse DCT-I, and rows() reads its entries from the slabs.

    The build is batched.  The near integrals come first and take two
    ring_kernel calls in all: one for the Gauss points of every near cell
    of every column, one for the polar points of the four cells with a
    corner on the target.  Each cell's four corner integrals are one
    product against the corner weights, scattered into the node patch by a
    bincount.  W2 then takes two ring_kernel calls per target column: the
    Gauss points of its band and edge cells, at most
    16 ((2D + 2)(D + 1) + 5P) values, and its node lattice ws in
    0..P-1+q, dz in 0..2P-2+q, (P + q)(2P - 1 + q) values, whose stencil
    sums are two matrix products.  That is about 6.1 P^3 values per table
    at P = 65 with the near integrals, against 32 P^3 for Gauss sums on
    every cell.  Each column's slab gets its near integrals and is
    transformed into C before the next one is built.
    """

    def __init__(self, P, n):
        self.P = int(P)
        self.n = int(n)
        self.nodes = np.arange(self.P, dtype=float)
        self._build_w2(_near_integrals(self.P, self.n))

    def _build_w2(self, acc):
        """C = DCT-I along the lag axis of
        W2[i, i', lag] = int int k(i, ws, dz) hat_i'(ws) hat_lag(|dz|).

        Gauss entries, the 4-point tensor Gauss sums over the cells of the
        hat supports: the band |i' - i| <= D, lag <= D around the target and
        the half-hat edges i' = 0, i' = P - 1 and lag = 2P - 2.  Nodal
        entries, all others: sum_k sum_l s_k s_l k(i, i' + k, lag + l) with
        s = _hat_stencil(q), on kernel values at the nodes ws in 0..P-1+q and
        dz in 0..2P-2+q, whose ghosts are k(-ws) = (-1)^n k(ws) (the ring
        potential is even in ws, the ws^(n-2) measure carries the sign) and
        k(-dz) = k(dz).  The near-cell integrals acc of _near_integrals are
        written over the entries at nodes i' = i + dni and lags |dnj|.
        """
        P, G, q, D = self.P, N_GAUSS_BASE, STENCIL_Q, GAUSS_BAND
        t, wq = _gauss01(G)
        hats = _hat_weights(t, wq)
        s = _hat_stencil(q)

        def fold(m, sign):
            # the stencil sums on m nodes as one matrix: F[x, j] weighs the
            # lattice value at node x in 0..m-1+q into node j, the ghost at
            # -x entering node |x| times sign
            x = np.arange(m)[:, None] + np.arange(-q, q + 1)
            F = np.zeros((m + q, m))
            np.add.at(F, (np.abs(x), np.arange(m)[:, None]), np.where(x < 0, sign, 1.0) * s)
            return F

        fold_ws, fold_dz = fold(P, (-1.0) ** self.n).T, fold(2 * P - 1, 1.0)
        ws_nodes = np.arange(P + q, dtype=float)
        dz_nodes = np.arange(2 * P - 1 + q, dtype=float)
        corner = np.arange(2)
        dn = np.arange(-MC, MC + 1)
        self.C = np.empty((2 * P - 1, P, P))
        for i in range(P):
            gauss = np.zeros((P, 2 * P - 1), dtype=bool)
            gauss[max(0, i - D) : i + D + 1, : D + 1] = True
            gauss[[0, -1], :] = True
            gauss[:, -1] = True
            # the cells (varpi cell a, dz cell b) of those entries' hats
            a, b = np.nonzero(gauss[:-1, :-1] | gauss[1:, :-1] | gauss[:-1, 1:] | gauss[1:, 1:])
            kv = ring_kernel(self.n, float(i), (a[:, None] + t)[:, :, None],
                             (b[:, None] + t)[:, None, :])
            # c[k, p, q] weighs cell k toward node a + p and lag b + q; the
            # lag-0 hat also spans dz in [-1, 0], which mirrors the
            # lower-weighted part of dz-cell 0 by evenness of the kernel
            c = hats.T @ (kv @ hats)
            flat = (a[:, None, None] + corner[:, None]) * (2 * P - 1) + b[:, None, None] + corner
            low = b == 0
            W2 = np.bincount(
                np.concatenate([flat.ravel(), flat[low, :, 0].ravel()]),
                np.concatenate([c.ravel(), c[low, :, 0].ravel()]),
                P * (2 * P - 1),
            ).reshape(P, 2 * P - 1)
            lat = ring_kernel(self.n, float(i), ws_nodes[:, None], dz_nodes[None, :])
            W2 = np.where(gauss, W2, fold_ws @ lat @ fold_dz)
            on = (i + dn >= 0) & (i + dn < P)
            W2[i + dn[on], : MC + 1] = acc[i, on]
            self.C[:, i, :] = dct(W2, type=1, axis=1).T

    # -- application ----------------------------------------------------------

    def apply(self, gvals):
        """Unit-coordinate potential on the node grid of the source's
        p x p patch (multiply by h^2)."""
        p = gvals.shape[0]
        if p > self.P or p < self.P and (np.any(gvals[-1]) or np.any(gvals[:, -1])):
            raise DomainError(
                f"a source on {p} nodes needs zeros on its last row and column "
                f"to use the {self.P}-node table"
            )
        # the spectrum of the source made even in z and zero-padded to the
        # table's period, then one real product per frequency
        gx = dct(gvals.T, type=1, n=2 * self.P - 1, axis=0)
        y = idct((self.C[:, :p, :p] @ gx[:, :, None])[..., 0], type=1, axis=0)
        return np.ascontiguousarray(y[:p].T)

    def eval_at(self, gvals, wt, zt):
        """Plain nodal quadrature of the source's patch at scattered
        unit-coordinate targets (targets must stay a few cells away from
        strong sources)."""
        src = np.flatnonzero(np.abs(gvals) > 0)
        wt = np.atleast_1d(np.asarray(wt, dtype=float))
        zt = np.atleast_1d(np.asarray(zt, dtype=float))
        g = gvals.ravel()[src]
        out = np.zeros(wt.shape)
        for k0, block in self.far_weights(src, wt, zt, gvals.shape[0]):
            out += g[k0 : k0 + len(block)] @ block
        return out

    def far_weights(self, src, wt, zt, p):
        """eval_at's quadrature weights from flat source nodes src of a
        p x p patch to 1-d targets, in blocks of about 64k kernel
        evaluations: yields (k0, B) with B[k, t] the weight of node
        src[k0 + k] at target t."""
        i_s, j_s = np.divmod(src, p)
        colw = _trapezoid(p)
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
            yield k0, colw[i] * kv

    def w2_slab(self, i):
        """W2[i] rebuilt from the spectra: (P, 2P - 1), source column by lag."""
        return idct(self.C[:, i, :], type=1, axis=0).T

    def rows(self, targets, sources):
        """Dense quadrature rows R[t, s] consistent with apply() (on a
        smaller patch, for sources off its last row and column)."""
        ti, tj = targets
        si, sj = sources
        R = np.empty((ti.size, si.size))
        mirror = np.where(sj > 0, 1.0, 0.0)
        for col in np.unique(ti):
            sel = np.flatnonzero(ti == col)
            W2 = self.w2_slab(col)
            tz = tj[sel, None]
            R[sel] = W2[si, np.abs(tz - sj)] + mirror * W2[si, tz + sj]
        return R

    @property
    def nbytes(self):
        return self.C.nbytes

    def total_mass(self, gvals):
        """Unit-coordinate n-volume integral over the source's patch
        (multiply by h^n)."""
        p = gvals.shape[0]
        zfold = np.full(p, 2.0)
        zfold[0] = 1.0
        meas = (
            SPHERE_AREA[self.n]
            * self.nodes[:p, None] ** (self.n - 2)
            * _trapezoid(p)[:, None]
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

    The weights come from the kernel table of dimension n the two patches
    share, read on the source patch's P nodes (n_int for side "int", n_ext
    for "star").  The skeleton is a column-pivoted QR of a sketch: the
    weights from an evenly strided subset of about FAR_SKETCH_ROWS * P
    source nodes of the quarter disc i^2 + j^2 < (P - 1)^2, where the
    chi-cut and the diamond sources live.  Its rank is the number of pivots
    above FAR_RANK_TOL of the first, and tail is the first dropped pivot
    over the first (0 if none was dropped), the truncation estimate of the
    decomposition.  The tolerance sits at the resolution of the n = 5 ring kernel: its
    2 (K - E) - m K cancels for small m and is good to about 3.5e-7
    relative at m = 1e-4, so pivots much below 1e-14 only track that
    roundoff (at 97/65 a 1e-15 tolerance kept 364 / 310 pivots for
    interior / starred n = 5, against 208 / 193 at 1e-14).
    Interior-side columns are scaled by rho_t^(n-2) before the QR:
    the starred patch stores (r/R0)^(n-2) v, and M and J are read there.
    Starred-side columns stay unscaled: scaled, their n = 5 rank grows by
    about half (193 -> 281 at 97/65) to chase that same roundoff.

    Row k of weights holds the skeleton weights of source node nodes[k]; a
    node gets its row the first time it carries source, and a node without
    a row contributes nothing, like its zero source value.  weights holds
    exactly those rows and grows by one block on each call that brings new
    source nodes.
    """

    def __init__(self, side, n, n_int, n_ext):
        from scipy.linalg import solve_triangular
        from scipy.linalg.lapack import dgeqp3

        self.table = get_table(max(n_int, n_ext), n)
        self.P = P = n_int if side == "int" else n_ext
        i, j = np.nonzero(far_mask(n_ext if side == "int" else n_int))
        c = (n_int - 1) * (n_ext - 1) / (2.0 * (i * i + j * j))
        wt, zt = i * c, j * c
        scale = np.hypot(wt, zt) ** (n - 2) if side == "int" else np.ones(wt.size)

        si, sj = np.divmod(np.arange(P * P), P)
        disc = np.flatnonzero(si * si + sj * sj < (P - 1) ** 2)
        sketch = disc[:: max(1, disc.size // (FAR_SKETCH_ROWS * P))]
        # one Fortran-ordered buffer that LAPACK factors in place; the
        # queried optimal workspace keeps geqp3 on its blocked path
        A = np.empty((sketch.size, wt.size), order="F")
        for k0, block in self.table.far_weights(sketch, wt, zt, P):
            A[k0 : k0 + len(block)] = block
        A *= scale
        lwork = int(dgeqp3(A, lwork=-1, overwrite_a=True)[3][0])
        R, perm, _, _, info = dgeqp3(A, lwork=lwork, overwrite_a=True)
        if info != 0:
            raise SolverError(f"far-field sketch QR failed (geqp3 info {info})")
        perm -= 1  # LAPACK pivots are 1-based
        d = np.abs(np.diag(R))
        r = int(np.count_nonzero(d > FAR_RANK_TOL * d[0]))
        self.tail = float(d[r] / d[0]) if r < d.size else 0.0
        self.skeleton = perm[:r]
        # E = [I | R11^-1 R12] in pivot order, scaled back to plain columns
        self.E = E = np.empty((wt.size, r))
        E[perm[:r]] = np.eye(r)
        E[perm[r:]] = solve_triangular(R[:r, :r], R[:r, r:]).T
        E *= scale[self.skeleton]
        E /= scale[:, None]
        self.wt, self.zt = wt, zt
        self.weights = np.empty((0, r))
        self.built = np.zeros(P * P, dtype=bool)
        self.nodes = np.zeros(0, dtype=np.intp)

    @property
    def rank(self):
        return self.skeleton.size

    @property
    def nbytes(self):
        """Bytes of E and of the filled skeleton weights."""
        return self.E.nbytes + self.weights.nbytes

    def __call__(self, gvals):
        """Far field at every target, in far_mask order."""
        flat = gvals.ravel()
        new = np.flatnonzero((flat != 0.0) & ~self.built)
        if new.size:
            k = self.nodes.size
            J = self.skeleton
            weights = np.empty((k + new.size, self.rank))
            weights[:k] = self.weights
            for k0, block in self.table.far_weights(new, self.wt[J], self.zt[J], self.P):
                weights[k + k0 : k + k0 + len(block)] = block
            self.weights = weights
            self.built[new] = True
            self.nodes = np.concatenate([self.nodes, new])
        return self.E @ (flat[self.nodes] @ self.weights)


class GreenOps:
    """Two-patch Green operators bound to one AxiGrid.

    Kernel tables live in unit coordinates (cached globally per node count
    and dimension); this class carries the physical measure factors.  Both
    patches share one table per dimension, sized to the larger one; the
    smaller patch reads its leading block.
    _patch_potential moves a potential from its source's patch to the other
    one, in both directions.  far[side] masks the other patch's nodes whose
    images lie outside the source patch (image radius > 2 R0 for side "int",
    > R0 for "star"); they take their rows from the FarOperator shared by
    every star on the grid shape.  The masks stay the float tests on this
    star's R0: on the boundary circle their rounding decides, and a star's
    answers depend on it.
    """

    def __init__(self, grid):
        self.grid = g = grid
        r_star, r_int = g.images["star"][2], g.images["int"][2]
        self.far = {
            "int": np.isfinite(r_star) & (r_star > 2.0 * g.R0),
            "star": np.isfinite(r_int) & (r_int > g.R0),
        }
        # this star's far targets among the shared operator's, in its order
        self._far_rows = {side: m[far_mask(m.shape[0])] for side, m in self.far.items()}
        # first lookup of each cached table and far operator: True if it built it
        self._tables_used = {}
        self._far_used = {}

    def table(self, n):
        """The kernel table of dimension n both patches use."""
        P = max(self.grid.n_int, self.grid.n_ext)
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
                "tail": op.tail,
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

    # -- patch-to-patch transfer -------------------------------------------------

    def _patch_potential(self, side, n, src):
        """(own, other): the potential of a compact source on patch side
        ("int" or "star") at that patch's nodes, and its Kelvin values
        (r/R0)^(n-2) v at the other patch's nodes: bilinear from own at the
        images inside the source patch, the far operator at the far[side]
        ones, and the monopole limit at the origin, the image of infinity.
        An all-zero source has exact zeros on both, with no lookup."""
        g = self.grid
        h, other = (g.h_int, "star") if side == "int" else (g.h_ext, "int")
        w, z, r = g.images[other]
        if not np.any(src):
            return np.zeros(src.shape), np.zeros(r.shape)
        table = self.table(n)
        own = h**2 * table.apply(src)
        far = self.far[side]
        near = np.isfinite(r) & ~far
        vals = np.zeros(r.shape)
        vals[near] = _bilinear(own, h, w[near], z[near])
        vals[far] = h**2 * self._far(side, n, src)
        vals *= g.weight(other, 2 - n)  # (r/R0)^(n-2) at the images
        vals[0, 0] = h**n * table.total_mass(src) / (FUND_NORM[n] * g.R0 ** (n - 2))
        return own, vals

    def k_n_global(self, fld, n):
        """Inverse for a decaying source: compact part plus Kelvin-pulled tail.

        An all-zero part makes no transfer, so a tail-only source (zero
        interior values) costs one KernelTable.apply, and a source zero on
        both patches none: 190 rather than 218 applies in a traced pass of
        the benchmark's static-sweep-65-warm workload.
        """
        g = self.grid
        if fld.offset != 0.0:
            raise DecayError("source with a constant offset is not integrable")
        out_int, out_star = self._patch_potential("int", n, fld.interior_compact())

        g_inf_star = fld.exterior_tail_star()
        if np.max(np.abs(g_inf_star)) > 0.0:
            # diamond weight (R0/r*)^4 converts the starred tail into a compact
            # starred source; growth at the origin-image flags an inadmissible tail
            src_dia = g.weight("star", -4) * g_inf_star
            inner = (g.RS <= 0.25 * g.R0) & (g.RS > 0)
            # compare against the tail scale on the outer starred band, where any
            # admissible tail is O(1); a diverging diamond source means the decay
            # index overstates the actual falloff
            band = g.RS >= 0.5 * g.R0
            band_scale = float(np.max(np.abs(g_inf_star[band]))) + 1e-300
            if np.any(np.abs(src_dia[inner]) > 1e3 * band_scale):
                raise DecayError("exterior tail decays too slowly for the diamond route")
            # the tail's starred values are its potential on the starred patch
            psi, tail_int = self._patch_potential("star", n, src_dia)
            out_int = out_int + tail_int
            out_star = out_star + psi
        return AxiField(g, n, out_int, out_star, (1, 1), 0.0)


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

    def __init__(self, ops, coef_field):
        from scipy.linalg import lu_factor

        self.ops = ops
        self.grid = ops.grid
        self.table = ops.table(3)
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
        if smin < RCOND_RAISE:
            raise SolverError("Nystrom system nearly singular", smallest_singular_value=smin)
        self.smin_estimate = smin
        self._lu = lu_factor(A)

    def solve(self, fld):
        from scipy.linalg import lu_solve

        g = self.grid
        h = self.h

        # exterior tail first: its interior values feed the coefficient term
        tail = AxiField(g, fld.n_index, np.zeros_like(fld.int_vals), fld.exterior_tail_star(),
                        fld.parity, 0.0)
        f_inf = self.ops.k_n_global(tail, fld.n_index).reindex(3)
        fi0 = f_inf.int_vals[0, 0]
        src_tot = fld.interior_compact() + self.coef * (f_inf.int_vals - fi0)
        if not self.trivial:
            rhs_full = h**2 * self.table.apply(src_tot)
            rhs = rhs_full[self.si, self.sj] - rhs_full[0, 0]
            src_tot[self.si, self.sj] += self.coef[self.si, self.sj] * lu_solve(self._lu, rhs)
        v_int, v_star = self.ops._patch_potential("int", 3, src_tot)
        return AxiField(g, 3, v_int + f_inf.int_vals, v_star + f_inf.star_vals, (1, 1),
                        -v_int[0, 0] - fi0)
