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
KernelTable holds those weights, their DCT-I along the z lag, in blocks of
consecutive source columns.
GreenOps.tail_potential pulls the exterior tail to the starred plane,
re-weights it by (R0/r*)^4 (which turns it into a compact starred source)
and inverts it there with the same machinery; k_n_global runs it first.
The two patches share one unit-coordinate KernelTable per dimension, sized
to the larger patch; the smaller one reads its leading block, which its
sources, zero on the patch edge, cannot tell from a table of its own.  A
table starts empty and gains columns, as a prefix, only through
KernelTable.fill: apply and rows fill up to the last column their sources
carry, and get_table(P, n) tops the cached table up to every column;
GreenOps.table and GreenOps.far_operator, the solver's lookups, fill none.
Both parts reach the other patch by one Kelvin transfer,
GreenOps._patch_potential: bilinear at the images inside the source patch,
the shared FarOperator at the images outside it (the masks in GreenOps.far),
and the monopole limit at the other patch's origin; the last two take the
plain nodal rule, far_weights and total_mass, which read no table.  A
FarOperator holds dense nodal rows until its source outgrows its sketch,
then an interpolative decomposition.  The call that factors it fills it
once, with a side's dense n = 3 pair when it is that side's n = 5
operator, from one ring_kernel pass; every other fill is one operator's
own.  An all-zero part is not
transferred: its potential is an exact zero, returned before any table or
far-operator lookup.  That covers a source zero on both patches (a static
star's Y) and every compact source's tail.

LOpSolver solves the Helmholtz-like interior problem (L_3 + coef) W + g = 0
as a direct dense Nystrom system, its exterior tail by tail_potential.
"""

import ctypes
import math
import mmap

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dct, idct
from scipy.linalg import cython_blas, cython_lapack, lu_factor, lu_solve, solve_triangular
from scipy.linalg.lapack import dgeqp3
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

    n may also be a tuple of dimensions, such as (3, 5): their kernels come
    from one pass, which computes A, B, m, K(m) and sqrt(A + B) once, stacked
    on a new leading axis, each bit for bit the kernel of that n alone.

    The broadcast output is evaluated in blocks of about RING_BLOCK values
    along its leading axis, so the dozen temporaries of the n = 5 formula
    stay in cache.  Each value goes through the same operations whatever
    the block, so the result does not depend on the blocking.
    """
    ns = n if isinstance(n, tuple) else (n,)
    if ns not in ((3,), (4,), (5,), (3, 5)):
        raise DomainError(f"unsupported dimension n={n}")
    wt, ws, dz = (np.asarray(x, dtype=float) for x in (wt, ws, dz))
    scalar = wt.ndim == ws.ndim == dz.ndim == 0
    shape = np.broadcast_shapes(wt.shape, ws.shape, dz.shape) or (1,)
    # each input at the output's rank: its leading axis is 1 or shape[0]
    args = [x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (wt, ws, dz)]
    out = np.empty((len(ns), *shape))
    step = max(1, RING_BLOCK // max(1, math.prod(shape[1:])))
    for k0 in range(0, shape[0], step):
        rows = slice(k0, k0 + step)
        _ring_block(ns, *(x[rows] if x.shape[0] > 1 else x for x in args), out[:, rows])
    if isinstance(n, tuple):
        return out[:, 0] if scalar else out
    return float(out[0, 0]) if scalar else out[0]


def _ring_block(ns, wt, ws, dz, out):
    """ring_kernel of the dimensions ns on one block, out[k] for ns[k].

    The full-shape intermediates are computed in place: out[0] holds A + B
    until the last division, and the block allocates A and m beside it (and
    K and E for n = 5).  Coincidence and the axis are each tested by one
    reduction, and their masks are built only in a block that has such
    points.  Every value goes through the operations of its formula written
    out, in its order, so each output is bit-identical to it.
    """
    A = np.add((wt - ws) ** 2, dz**2, out=np.empty(out.shape[1:]))
    B = 4.0 * wt * ws
    has_diag = A.min() <= 0.0
    if has_diag:
        diag = A <= 0.0
        A[diag] = 1.0  # stand-in; zeroed at the end
    AB = np.add(A, B, out=out[0])
    m = B / AB

    has_axis = ns != (3,) and m.min() < 1e-14
    if has_axis:
        axis = m < 1e-14
        ws_ax, A_ax = np.broadcast_to(ws, AB.shape)[axis], A[axis]
    if ns == (4,):
        # ws log((A + B) / A) / (4 pi wt)
        if has_axis:
            wt = np.where(wt > 0, wt, 1.0)
        log = np.log(np.divide(AB, A, out=A), out=A)
        np.divide(np.multiply(log, ws, out=log), 4.0 * math.pi * wt, out=AB)
    else:
        K = ellipk(m, out=m) if ns == (3,) else ellipk(m)
        np.sqrt(AB, out=AB)
        if 5 in ns:
            # 8 ws^3 sqrt(A + B) gm / (2 pi B^2), gm = 2 (K - E) - m K
            gm = np.subtract(K, ellipe(m), out=A)
            gm *= 2.0
            gm -= np.multiply(m, K, out=m)
            if has_axis:
                B = np.where(axis, 1.0, B)
            np.multiply(ws**3 * 8.0, AB, out=out[-1])
            out[-1] *= gm
            np.divide(out[-1], 2.0 * math.pi * B**2, out=out[-1])
        if 3 in ns:
            # ws K / (pi sqrt(A + B))
            AB *= math.pi
            np.divide(np.multiply(K, ws, out=K), AB, out=AB)
    for n, o in zip(ns, out):
        if has_axis and n != 3:
            o[axis] = ws_ax**2 / (math.pi * A_ax) if n == 4 else ws_ax**3 / (4.0 * A_ax**1.5)
        if has_diag:
            o[diag] = 0.0


RING_BLOCK = 1 << 14  # ring_kernel values per cache-resident block
_TABLE_CACHE = {}
_FAR_CACHE = {}
_FAR_BLOCK = 1 << 16  # kernel evaluations per block of far-field weights
FAR_RANK_TOL = 1e-14  # far skeleton: QR pivots above this fraction of the first
QP3_CROSSOVER = 128  # dgeqp3's unblocked tail: reference ilaenv's crossover for dgeqrf
FAR_SKETCH_ROWS = 8  # far sketch: about this many source nodes per table node count
MC = 2  # near node patch: offsets -MC..MC around each target
N_GAUSS_BASE = 4  # Gauss points per cell axis of the hat-product weights W2
STENCIL_Q = 5  # q: the nodal hat stencil of W2's far entries spans offsets -q..q
GAUSS_BAND = 16  # D: W2 keeps its Gauss sums within D nodes and D lags of the target
N_GAUSS_NEAR = 10  # Gauss points per cell axis of the near cells
N_GAUSS_POLAR = (12, 16)  # (angle, radius) points per half of a polar cell
RCOND_RAISE = 1e-13  # LOpSolver: smallest reciprocal condition number it factors


def _cached_table(P, n):
    """The cached unit-spacing kernel table of (P, n), made empty on the first
    lookup; it serves every patch of at most P nodes."""
    if (P, n) not in _TABLE_CACHE:
        _TABLE_CACHE[P, n] = KernelTable(P, n)
    return _TABLE_CACHE[P, n]


def get_table(P, n):
    """The cached table of (P, n), topped up to all P source columns by one
    fill of the columns it lacks.  It is never replaced, so the GreenOps and
    far operators that hold it see the new columns."""
    table = _cached_table(P, n)
    table.fill(table.P)
    return table


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


def _near_integrals(P, n, c0, c1):
    """acc[i, MC + dni, dnj]: the high-order integral of the ring kernel
    against the hat product of node (i + dni, dnj) for a target at (i, 0),
    over the unit cells around it, for |dni| <= MC and lags 0 <= dnj <= MC.
    Only the entries of nodes i + dni in the source columns c0..c1-1 are
    complete: the cells with no corner among them are not integrated.

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
    # the cells with a corner node, i + dni or i + dni + 1, in c0..c1-1
    keep = (I + DI >= c0 - 1) & (I + DI < c1)
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


def far_weights(n, src, wt, zt, p):
    """The plain nodal rule's weights from the flat source nodes src of a
    p x p patch to 1-d unit-coordinate targets (wt, zt), in blocks of about
    _FAR_BLOCK kernel evaluations: yields (k0, B) with B[k, t] the weight of
    node src[k0 + k] at target t.  A tuple n, as ring_kernel takes it,
    stacks B[d, k, t] for n[d].  Node (i, j) sits at (i, j) in unit
    coordinates, so the rule reads no kernel table."""
    i_s, j_s = np.divmod(src, p)
    colw = _trapezoid(p)
    step = max(1, _FAR_BLOCK // max(1, np.size(n) * wt.size))
    for k0 in range(0, i_s.size, step):
        i = i_s[k0 : k0 + step, None]
        j = j_s[k0 : k0 + step, None]
        ws = i.astype(float)
        zs = j.astype(float)
        kv = ring_kernel(n, wt[None, :], ws, zt[None, :] - zs)
        # the z < 0 mirror image of every node off the z = 0 row
        kv += np.where(j > 0, 1.0, 0.0) * ring_kernel(n, wt[None, :], ws, zt[None, :] + zs)
        kv *= colw[i]
        yield k0, kv


def total_mass(n, gvals):
    """Unit-coordinate n-volume integral of a source over its p x p patch
    by the nodal rule (multiply by h^n)."""
    p = gvals.shape[0]
    zfold = np.full(p, 2.0)
    zfold[0] = 1.0
    meas = (
        SPHERE_AREA[n]
        * np.arange(p, dtype=float)[:, None] ** (n - 2)
        * _trapezoid(p)[:, None]
        * zfold[None, :]
    )
    return float(np.sum(meas * gvals))


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
    1 - chi = 0.  The base rule integrates the
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
    Off the node grid, eval_at sums the plain nodal rule of the module
    function far_weights, which takes the patch's own trapezoid weights and
    reads no table data.

    The table holds C = DCT-I of W2 along the lag for its first ncols
    source columns, one block per fill: blocks is a list of (c0, C),
    C[k, i, m] a float64 array of shape (2P - 1, P, C.shape[2]) for source
    column c0 + m, each block starting where the one before it ends, so
    (2P - 1) P 8 bytes per filled column.  A fill appends the next block and
    leaves the others alone, so no fill copies the columns filled before it.
    DCT-I is the real DFT of the lag row made even with
    period 4P - 4 (lags -(2P-2)..2P-2, the two end lags at one index), which
    holds every lag j - z' of an output z = j in 0..P-1 and a source
    |z'| <= P-1 free of wrap-around.  apply transforms the source once,
    multiplies by each block's C frequency by frequency in one batched
    product per block, sums and transforms back; w2_slab rebuilds a slab of
    W2 with one inverse DCT-I per block, and rows() reads its entries from
    the slabs.

    Columns are filled on demand, as a growing prefix, and fill is the only
    build.  KernelTable(P, n) starts empty.  apply and rows fill up to the
    last source column their sources carry before they use them, so a
    compact source, such as the pressure X's L_4 inverts, fills only the
    fluid's columns, and no source fills the last column, where every source
    on the table's P nodes vanishes; get_table(P, n) fills all P.  The
    sources of a solve carry every column from 0 up to their last one, so a
    prefix fills no column they do not use.  A column's entries do not
    depend on the fills before it up to rounding, within 1e-15 of the
    column's largest spectrum entry (8.3e-16 at most measured at P = 97):
    the same cells, lattice values and near integrals enter them, only the
    batch shapes of the matrix products differ.  A table filled in one call
    has one block and applies as one product.

    The build is batched.  A fill of the source columns rows = c0..c1-1
    starts with their near integrals, two ring_kernel calls in all: one for
    the Gauss points of every near cell with a corner in rows, one for the
    polar points of the cells with a corner on the target.  Each cell's four
    corner integrals are one product against the corner weights, scattered
    into the node patch by a bincount.  W2 then takes two ring_kernel calls
    per target column: the Gauss points of the band and edge cells that
    touch rows, at most 16 ((2D + 2)(D + 1) + 5P) values, and the node
    lattice ws within q of rows, dz in 0..2P-2+q, at most
    (P + q)(2P - 1 + q) values, whose stencil sums are two matrix products.
    Filling every column takes about 6.1 P^3 values at P = 65 with the near
    integrals, against 32 P^3 for Gauss sums on every cell.  Each target
    column's slab gets its near integrals and is transformed into the new
    block's C before the next one is built.
    """

    def __init__(self, P, n):
        self.P = int(P)
        self.n = int(n)
        self.ncols = 0
        self.blocks = []

    def fill(self, ncols):
        """Build the spectra of the source columns from self.ncols to
        ncols - 1, as one new block; the blocks already filled are not touched."""
        c0 = self.ncols
        if ncols <= c0:
            return
        # the near integrals' temporaries are freed before C is allocated
        acc = _near_integrals(self.P, self.n, c0, ncols)
        self.blocks.append((c0, self._build_w2(c0, ncols, acc)))
        self.ncols = ncols

    def _build_w2(self, c0, c1, acc):
        """The block C = DCT-I along the lag axis of
        W2[i, i', lag] = int int k(i, ws, dz) hat_i'(ws) hat_lag(|dz|)
        for the source columns i' in rows = c0..c1-1 and every target i.

        Gauss entries, the 4-point tensor Gauss sums over the cells of the
        hat supports: the band |i' - i| <= D, lag <= D around the target and
        the half-hat edges i' = 0, i' = P - 1 and lag = 2P - 2.  Nodal
        entries, all others: sum_k sum_l s_k s_l k(i, i' + k, lag + l) with
        s = _hat_stencil(q), on kernel values at the nodes ws within q of
        rows and dz in 0..2P-2+q, whose ghosts are k(-ws) = (-1)^n k(ws)
        (the ring potential is even in ws, the ws^(n-2) measure carries the
        sign) and k(-dz) = k(dz).  The near-cell integrals acc of
        _near_integrals are written over the entries at nodes i' = i + dni
        and lags |dnj|.  Only the cells that touch rows, the lattice nodes
        within q of them and their near integrals are evaluated.
        """
        P, G, q, D = self.P, N_GAUSS_BASE, STENCIL_Q, GAUSS_BAND
        rows = np.arange(c0, c1)
        nrows = rows.size
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

        # the lattice nodes within q of rows (a ghost -x is node x), and the
        # fold from them to rows
        lattice = np.arange(max(c0 - q, 0), c1 + q)
        fold_ws = fold(P, (-1.0) ** self.n)[np.ix_(lattice, rows)].T
        fold_dz = fold(2 * P - 1, 1.0)
        ws_nodes = lattice.astype(float)
        dz_nodes = np.arange(2 * P - 1 + q, dtype=float)
        # slot[x]: the W2 row of node x, nrows (a discarded row) if x is not
        # in rows
        slot = np.full(P, nrows)
        slot[rows] = np.arange(nrows)
        # the varpi cells with a corner node in rows
        cells = np.arange(max(c0 - 1, 0), min(c1, P - 1))
        edge = (rows == 0) | (rows == P - 1)
        corner = np.arange(2)
        dn = np.arange(-MC, MC + 1)
        C = np.empty((2 * P - 1, P, nrows))
        for i in range(P):
            # row nrows stays False: nodes outside rows take no Gauss entry
            gauss = np.zeros((nrows + 1, 2 * P - 1), dtype=bool)
            own = gauss[:nrows]
            own[np.abs(rows - i) <= D, : D + 1] = True
            own[edge] = True
            own[:, -1] = True
            # the cells (varpi cell a, dz cell b) of those entries' hats
            hat = gauss[slot[cells]] | gauss[slot[cells + 1]]
            k, b = np.nonzero(hat[:, :-1] | hat[:, 1:])
            a = cells[k]
            kv = ring_kernel(self.n, float(i), (a[:, None] + t)[:, :, None],
                             (b[:, None] + t)[:, None, :])
            # c[k, p, q] weighs cell k toward node a + p and lag b + q; the
            # lag-0 hat also spans dz in [-1, 0], which mirrors the
            # lower-weighted part of dz-cell 0 by evenness of the kernel
            c = hats.T @ (kv @ hats)
            flat = slot[a[:, None] + corner][:, :, None] * (2 * P - 1) + b[:, None, None] + corner
            low = b == 0
            W2 = np.bincount(
                np.concatenate([flat.ravel(), flat[low, :, 0].ravel()]),
                np.concatenate([c.ravel(), c[low, :, 0].ravel()]),
                (nrows + 1) * (2 * P - 1),
            ).reshape(nrows + 1, 2 * P - 1)[:nrows]
            lat = ring_kernel(self.n, float(i), ws_nodes[:, None], dz_nodes[None, :])
            W2 = np.where(own, W2, fold_ws @ lat @ fold_dz)
            on = np.flatnonzero((i + dn >= 0) & (i + dn < P))
            on = on[slot[i + dn[on]] < nrows]
            W2[slot[i + dn[on]], : MC + 1] = acc[i, on]
            C[:, i] = dct(W2, type=1, axis=1).T
        return C

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
        # fill up to the last column the source carries, then take the
        # spectrum of the source made even in z and zero-padded to the
        # table's period, and make one real product per frequency for each
        # block's columns on the patch
        self.fill(1 + np.max(np.flatnonzero(np.any(gvals, axis=1)), initial=-1))
        gx = dct(gvals.T, type=1, n=2 * self.P - 1, axis=0)
        y = np.zeros((2 * self.P - 1, p))
        for c0, C in self.blocks:
            m = min(C.shape[2], p - c0)
            if m > 0:
                y += (C[:, :p, :m] @ gx[:, c0 : c0 + m, None])[..., 0]
        y = idct(y, type=1, axis=0)
        return np.ascontiguousarray(y[:p].T)

    def eval_at(self, gvals, wt, zt):
        """Plain nodal quadrature of the source's patch at scattered
        unit-coordinate targets (targets must stay a few cells away from
        strong sources): far_weights of this table's dimension, summed."""
        src = np.flatnonzero(np.abs(gvals) > 0)
        wt = np.atleast_1d(np.asarray(wt, dtype=float))
        zt = np.atleast_1d(np.asarray(zt, dtype=float))
        g = gvals.ravel()[src]
        out = np.zeros(wt.shape)
        for k0, block in far_weights(self.n, src, wt, zt, gvals.shape[0]):
            out += g[k0 : k0 + len(block)] @ block
        return out

    def w2_slab(self, i):
        """W2[i] rebuilt from the spectra: (ncols, 2P - 1), source column by
        lag, one inverse DCT-I per block."""
        return np.concatenate([idct(C[:, i, :], type=1, axis=0).T for _, C in self.blocks])

    def rows(self, targets, sources):
        """Dense quadrature rows R[t, s] consistent with apply() (on a
        smaller patch, for sources off its last row and column); fills up to
        the last source column first."""
        ti, tj = targets
        si, sj = sources
        self.fill(si.max() + 1)
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
        return sum(C.nbytes for _, C in self.blocks)


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


_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _native(module, name, nargs, restype=None):
    """The routine name of scipy's Cython BLAS or LAPACK bindings, the
    library scipy.linalg calls, as a ctypes function of nargs pointers
    (Fortran passes every argument by reference)."""
    capsule = module.__pyx_capi__[name]
    address = _CAPSULE_POINTER(capsule, _CAPSULE_NAME(capsule))
    return ctypes.CFUNCTYPE(restype, *[ctypes.c_void_p] * nargs)(address)


def _by_reference(fn, *args):
    """fn(*args), an int passed as a pointer to a C int, a ctypes.c_int as a
    pointer to itself and an array as a pointer to its first element."""
    refs = [ctypes.c_int(a) if isinstance(a, int) else a for a in args]
    return fn(*(ctypes.byref(a) if isinstance(a, ctypes.c_int) else a.ctypes.data for a in refs))


_DLAQPS = _native(cython_lapack, "dlaqps", 14)
_DLAQP2 = _native(cython_lapack, "dlaqp2", 10)
_DNRM2 = _native(cython_blas, "dnrm2", 3, ctypes.c_double)


def _pivoted_qr_to_rank(A, tol):
    """LAPACK's dgeqp3 on the Fortran-ordered float64 A (m x T, factored in
    place), stopped after the first panel whose last diagonal of R is at or
    below tol times the first.  Returns the 0-based column order perm and
    the number k of columns factored.

    It runs dgeqp3's own sweep (Quintana-Orti, Sun & Bischof 1998): the
    column norms by dnrm2, panels by dlaqps of the width dgeqp3's workspace
    query implies, up to QP3_CROSSOVER columns before min(m, T), and dlaqp2
    on the rest, or on everything where dgeqp3 would not block.  A panel
    leaves the rows of R that earlier panels finished alone, so perm[:k] and
    R's first k rows, column by column, are dgeqp3's bit for bit; the
    columns after k stay in the order the sweep left them.
    """
    if not (A.dtype == np.float64 and A.flags.f_contiguous):
        raise DomainError("the pivoted QR factors a Fortran-ordered float64 array")
    m, T = A.shape
    mn = min(m, T)
    # dgeqp3's optimal workspace is 2 T + (T + 1) nb
    nb = (int(dgeqp3(A, lwork=-1, overwrite_a=True)[3][0]) - 2 * T) // (T + 1)
    perm = np.arange(1, T + 1, dtype=np.intc)
    tau = np.empty(mn)
    # dgeqp3's initial column norms: one dnrm2 call per column
    rows, one, base = ctypes.byref(ctypes.c_int(m)), ctypes.byref(ctypes.c_int(1)), A.ctypes.data
    vn1 = np.array([_DNRM2(rows, base + 8 * m * j, one) for j in range(T)])
    vn2 = vn1.copy()
    work = np.empty(max(nb, 1) * (T + 1))  # dlaqps' auxv and F, dlaqp2's work
    j = 0
    if 2 <= nb < mn and QP3_CROSSOVER < mn:
        while j < mn - QP3_CROSSOVER:
            jb, done = min(nb, mn - QP3_CROSSOVER - j), ctypes.c_int()
            _by_reference(_DLAQPS, m, T - j, j, jb, done, A[:, j:], m, perm[j:], tau[j:],
                          vn1[j:], vn2[j:], work, work[jb:], T - j)
            j += done.value
            if abs(A[j - 1, j - 1]) <= tol * abs(A[0, 0]):
                return perm - 1, j
    _by_reference(_DLAQP2, m, T - j, j, A[:, j:], m, perm[j:], tau[j:], vn1[j:], vn2[j:], work)
    return perm - 1, mn


class FarOperator:
    """The plain nodal rule of dimension n (far_weights) from the nodes of
    one patch to the far targets of one side, as an interpolative
    decomposition (Cheng, Gimbutas,
    Martinsson & Rokhlin 2005): the far field is the exact nodal sums at
    the r skeleton targets and E ((T - r) x r) times those sums at the
    T - r others (rest).

    side "int" maps interior sources to the starred nodes of far_mask(n_ext)
    (image points beyond 2 R0); side "star" maps starred sources to the
    interior nodes of far_mask(n_int) (image outside the starred patch).  In
    table units both target sets sit at (i, j) (N - 1)(M - 1) / (2 (i^2 + j^2))
    for every R0, so one operator serves every star on a grid shape.

    It starts dense, its skeleton every target and E empty: its rows are
    the plain nodal weights to all T targets, cheaper than the sketch alone
    while the filled nodes are no more than the sketch's rows.  The call
    that takes them past that count factors it (_factor), drops the rows
    held and fills every node of its source at the skeleton.

    The weights are far_weights on the source patch's P nodes (n_int for
    side "int", n_ext for "star"); the operator holds no kernel table.  The
    skeleton is a column-pivoted QR of a sketch: the weights from an evenly
    strided subset of about FAR_SKETCH_ROWS * P source nodes of the quarter
    disc i^2 + j^2 < (P - 1)^2, where the
    chi-cut and the diamond sources live.  The QR stops at the panel where
    its pivots drop (_pivoted_qr_to_rank); qr_columns is the number of
    columns it factored (None while dense).  The rank is the number of pivots
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

    pair, given to an n = 5 operator, is the same side's n = 3 one.  A dense
    pair is factored with it, both sketches from one ring_kernel pass of
    (3, 5), and the factoring call fills both, for every node of its source,
    from one pass at the union of their skeletons.  Every other fill is one
    operator's own, so a pair is never topped up by the n = 5 operator's
    later calls.

    Row k of weights holds the skeleton weights of source node nodes[k]; a
    node gets its row the first time it carries source, and a node without
    a row contributes nothing, like its zero source value.  weights holds
    exactly those rows and grows by one block on each fill; the factoring
    call starts them over.
    """

    def __init__(self, n, side, n_int, n_ext, pair=None):
        self.n, self.pair = n, pair
        self.P = P = n_int if side == "int" else n_ext
        i, j = np.nonzero(far_mask(n_ext if side == "int" else n_int))
        c = (n_int - 1) * (n_ext - 1) / (2.0 * (i * i + j * j))
        self.wt, self.zt = wt, zt = i * c, j * c
        self.scale = np.hypot(wt, zt) ** (n - 2) if side == "int" else np.ones(wt.size)
        si, sj = np.divmod(np.arange(P * P), P)
        disc = np.flatnonzero(si * si + sj * sj < (P - 1) ** 2)
        self.sketch = disc[:: max(1, disc.size // (FAR_SKETCH_ROWS * P))]
        self.skeleton, self.rest, self.E = np.arange(wt.size), np.arange(0), np.empty((0, wt.size))
        self.qr_columns = self.tail = None
        self.weights = np.empty((0, wt.size))
        self.built = np.zeros(P * P, dtype=bool)
        self.nodes = np.zeros(0, dtype=np.intp)

    @property
    def dense(self):
        return self.qr_columns is None

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
        ops = [self]
        if self.dense and self.nodes.size + new.size > self.sketch.size:
            ops = self._factor()
            new = np.flatnonzero(flat)
        if new.size:
            self._fill(ops, new)
        sums = flat[self.nodes] @ self.weights
        out = np.empty(self.wt.size)
        out[self.skeleton] = sums
        out[self.rest] = self.E @ sums
        return out

    def _factor(self):
        """Factor this operator, and its pair if that is dense, from one pass
        over the sketch; returns the operators factored, their rows dropped."""
        ops = [op for op in (self.pair, self) if op is not None and op.dense]
        for op in ops:
            op.nodes, op.weights = op.nodes[:0], op.weights[:0]
            op.built[:] = False
        # one Fortran-ordered buffer per operator that LAPACK factors in
        # place, in anonymous mapped pages: they go back to the OS when the
        # factor's last view of them dies, where a freed heap block of this
        # size would stay with the process
        T, m = self.wt.size, self.sketch.size
        sketches = [np.frombuffer(mmap.mmap(-1, 8 * m * T)).reshape(T, m).T for _ in ops]
        self._write_rows(ops, self.sketch, sketches)
        for op in ops:
            A = sketches.pop(0)
            A *= op.scale
            perm, op.qr_columns = _pivoted_qr_to_rank(A, FAR_RANK_TOL)
            d = np.abs(np.diag(A[: op.qr_columns, : op.qr_columns]))
            r = int(np.count_nonzero(d > FAR_RANK_TOL * d[0]))
            op.tail = float(d[r] / d[0]) if r < d.size else 0.0
            op.skeleton, op.rest = perm[:r], perm[r:]
            # E = R11^-1 R12 in pivot order, scaled back to plain columns: the
            # rows of the targets off the skeleton (a skeleton target's row is
            # the identity's)
            op.E = E = solve_triangular(A[:r, :r], A[:r, r:]).T
            E *= op.scale[op.skeleton]
            E /= op.scale[op.rest, None]
            op.weights = op.weights[:, op.skeleton]
        return ops

    def _fill(self, ops, new):
        """Append the rows of the new source nodes to each of ops: this
        operator, and its pair in the call that factored both."""
        outs = []
        for op in ops:
            k = op.nodes.size
            weights = np.empty((k + new.size, op.rank))
            weights[:k] = op.weights
            op.weights, op.nodes = weights, np.concatenate([op.nodes, new])
            op.built[new] = True
            outs.append(weights[k:])
        self._write_rows(ops, new, outs)

    def _write_rows(self, ops, src, outs):
        """Write into outs[d] the far_weights of the source nodes src at the
        skeleton of ops[d], from one pass at the union J of the skeletons
        (every target while an operator is dense)."""
        J = np.unique(np.concatenate([op.skeleton for op in ops]))
        cols = [np.searchsorted(J, op.skeleton) for op in ops]
        dims = tuple(op.n for op in ops)
        for k0, block in far_weights(dims, src, self.wt[J], self.zt[J], self.P):
            for out, c, b in zip(outs, cols, block):
                out[k0 : k0 + len(b)] = b[:, c]


class GreenOps:
    """Two-patch Green operators bound to one AxiGrid.

    Kernel tables live in unit coordinates (cached globally per node count
    and dimension); this class carries the physical measure factors.  table
    and far_operator, the solver's lookups, keep what they find.  Both
    patches share one table per dimension, sized to the larger one; the
    smaller patch reads its leading block.  A far operator holds no table:
    far_operator, the one far lookup, makes it from its dimension and the
    grid shape alone, and an n = 5 lookup makes and lists its n = 3 pair.
    _patch_potential moves a potential from its source's patch to the other
    one, in both directions; tail_potential runs the exterior tail through
    it, and k_n_global adds the compact part's.  far[side] masks the other
    patch's nodes whose images lie outside the source patch (image radius
    > 2 R0 for side "int", > R0 for "star"); they take their rows from the
    FarOperator shared by every star on the grid shape.  The masks stay the float tests on this
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
        # lookups: each table, the blocks this grid's calls filled in it, and
        # each far operator
        self._tables, self._added, self._fars, self._made = {}, {}, {}, set()

    def table(self, n):
        """The kernel table of dimension n both patches use, sized to the
        larger one, looked up without filling any column."""
        if n not in self._tables:
            self._tables[n] = _cached_table(max(self.grid.n_int, self.grid.n_ext), n)
        return self._tables[n]

    def use_table(self, n, method, *args):
        """table(n).method(*args) (apply, rows, fill), counting the blocks it fills."""
        table = self.table(n)
        blocks = len(table.blocks)
        out = getattr(table, method)(*args)
        self._added[n] = self._added.get(n, 0) + len(table.blocks) - blocks
        return out

    def far_operator(self, side, n):
        """The far operator of one side and dimension n on this grid, shared
        per (side, n, grid shape) and made on the first lookup; an n = 5
        operator is made with its pair, the same side's n = 3 one, looked up
        first.  The operators this grid made are in _made."""
        if (side, n) not in self._fars:
            g = self.grid
            key = (side, n, g.n_int, g.n_ext)
            if key not in _FAR_CACHE:
                pair = self.far_operator(side, 3) if n == 5 else None
                _FAR_CACHE[key] = FarOperator(n, side, g.n_int, g.n_ext, pair)
                self._made.add((side, n))
            self._fars[side, n] = _FAR_CACHE[key]
        return self._fars[side, n]

    def cache_report(self):
        """The kernel tables and far operators this grid looked up: sizes,
        filled table columns and the fills (blocks) that hold them, and
        whether each far operator is still dense, or its rank and the columns
        its skeleton QR factored.  built: a call of this grid's use_table
        filled a block of the table, or this grid made the far operator (an
        n = 5 lookup makes its pair too); the others are cache hits."""
        tables = {f"P{t.P}_n{t.n}": {"bytes": t.nbytes, "columns": t.ncols,
                                     "fills": len(t.blocks), "built": self._added.get(n, 0) > 0}
                  for n, t in self._tables.items()}
        far = {f"{side}_n{n}": {"dense": op.dense, "rank": None if op.dense else op.rank,
                                "qr_columns": op.qr_columns,
                                "targets": int(np.count_nonzero(self._far_rows[side])),
                                "filled_nodes": op.nodes.size, "bytes": op.nbytes,
                                "tail": op.tail, "built": (side, n) in self._made}
               for (side, n), op in self._fars.items()}
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
        own = h**2 * self.use_table(n, "apply", src)
        far = self.far[side]
        near = np.isfinite(r) & ~far
        vals = np.zeros(r.shape)
        vals[near] = _bilinear(own, h, w[near], z[near])
        vals[far] = h**2 * self.far_operator(side, n)(src)[self._far_rows[side]]
        vals *= g.weight(other, 2 - n)  # (r/R0)^(n-2) at the images
        vals[0, 0] = h**n * total_mass(n, src) / (FUND_NORM[n] * g.R0 ** (n - 2))
        return own, vals

    def tail_potential(self, g_inf_star, n):
        """(int, star): the potential of the exterior tail whose starred
        values are g_inf_star, inverted through its diamond source
        (R0/r*)^4 g_inf_star on the starred patch.  A tail that grows at the
        origin-image raises DecayError; a zero one has exact zeros, no lookup."""
        g = self.grid
        src_dia = g.weight("star", -4) * g_inf_star
        inner = (g.RS <= 0.25 * g.R0) & (g.RS > 0)
        # compare against the tail scale on the outer starred band, where any
        # admissible tail is O(1); a diverging diamond source means the decay
        # index overstates the actual falloff
        band = g.RS >= 0.5 * g.R0
        band_scale = float(np.max(np.abs(g_inf_star[band]))) + 1e-300
        if np.any(np.abs(src_dia[inner]) > 1e3 * band_scale):
            raise DecayError("exterior tail decays too slowly for the diamond route")
        psi, tail_int = self._patch_potential("star", n, src_dia)
        return tail_int, psi

    def k_n_global(self, fld, n):
        """Inverse for a decaying source: the Kelvin-pulled tail, then the
        compact part, added.  The tail goes first, so a rotating star's
        starred far pair holds its two sketches before the interior pair's
        rows are filled.  exterior_tail_star rejects an offset (DecayError)
        before any lookup, and an all-zero part makes no transfer."""
        tail_int, tail_star = self.tail_potential(fld.exterior_tail_star(), n)
        out_int, out_star = self._patch_potential("int", n, fld.interior_compact())
        return AxiField(self.grid, n, out_int + tail_int, out_star + tail_star, (1, 1), 0.0)


class LOpSolver:
    """Dense Nystrom solve of the zeroth-order-coupled interior problem.

    The coefficient is compactly supported; the interior block satisfies
    W0 = K[coef W0 + g_eff] with K the origin-subtracted k_3, assembled over
    the support nodes and LU-factorized once (the paper's contraction needs
    small parameters; a direct solve does not).  The exterior source tail is
    inverted by GreenOps.tail_potential and couples back through the
    coefficient.  The result's value at infinity lands in `offset` (the
    time-gauge constant implied by the Q(O) = 0 normalization).
    """

    def __init__(self, ops, coef_field):
        self.ops = ops
        self.grid = ops.grid
        self.h = self.grid.h_int
        if coef_field.offset != 0.0:
            # a constant offset is not compactly supported: the dense solve
            # would drop its coupling to the exterior
            raise DomainError("the LOp coefficient must be compactly supported (no offset)")
        self.coef = coef = coef_field.int_vals
        self.si, self.sj = np.nonzero(coef != 0.0)
        self.trivial = self.si.size == 0
        self.smin_estimate = None  # reciprocal 1-norm condition number of the system
        if self.trivial:
            return
        origin = (np.array([0]), np.array([0]))
        R_rows = self.h**2 * ops.use_table(3, "rows", (self.si, self.sj), (self.si, self.sj))
        R_origin = self.h**2 * ops.use_table(3, "rows", origin, (self.si, self.sj))
        A = np.eye(self.si.size) - (R_rows - R_origin) * coef[self.si, self.sj][None, :]
        smin = 1.0 / max(float(np.linalg.cond(A, 1)), 1.0)
        if smin < RCOND_RAISE:
            raise SolverError("Nystrom system nearly singular", smallest_singular_value=smin)
        self.smin_estimate = smin
        self._lu = lu_factor(A)

    def solve(self, fld):
        """The solution for the decay-index-3 source fld."""
        g = self.grid
        h = self.h

        # exterior tail first: its interior values feed the coefficient term.
        # The tail is cut by (1 - chi) twice, once by exterior_tail_star and
        # once here (ROADMAP 3(c))
        f_int, f_star = self.ops.tail_potential((1.0 - g.chi_img) * fld.exterior_tail_star(), 3)
        fi0 = f_int[0, 0]
        src_tot = fld.interior_compact() + self.coef * (f_int - fi0)
        if not self.trivial:
            rhs_full = h**2 * self.ops.use_table(3, "apply", src_tot)
            rhs = rhs_full[self.si, self.sj] - rhs_full[0, 0]
            src_tot[self.si, self.sj] += self.coef[self.si, self.sj] * lu_solve(self._lu, rhs)
        v_int, v_star = self.ops._patch_potential("int", 3, src_tot)
        return AxiField(g, 3, v_int + f_int, v_star + f_star, (1, 1), -v_int[0, 0] - fi0)
