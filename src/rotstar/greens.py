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
KernelTable holds those weights, their DCT-I along the z lag, for a prefix
of the source columns in one array.
GreenOps.tail_potential pulls the exterior tail to the starred plane,
re-weights it by (R0/r*)^4 (which turns it into a compact starred source)
and inverts it there with the same machinery; k_n_global runs it first.
Every source vanishes on its patch's last node row and column (the
edge-zero invariant), so a table of P nodes holds at most the source
columns 0..P-2, and the axis, node 0, is its one half-hat edge.  The two
patches share one unit-coordinate KernelTable per dimension, sized to the
larger patch; the smaller one reads its leading block, which its sources
cannot tell from a table of its own.  A table starts empty and gains
columns, as a prefix, only through KernelTable.fill, which rebuilds it from
column 0: apply and rows fill up to the last column their sources carry,
and get_table(P, n) fills the cached table to all P - 1 columns;
GreenOps.table and GreenOps.far_operator, the solver's lookups, fill none.
An n = 5 table's fill rebuilds its pair, the n = 3 table, to the same
columns from the same kernel passes when the pair holds fewer: a rotating
solve fills both so, a static one n = 3 alone.
Both parts reach the other patch by one Kelvin transfer,
GreenOps._patch_potential: bilinear at the images inside the source patch,
the shared FarOperator at the images outside it (the masks in GreenOps.far),
and the monopole limit at the other patch's origin; the last two take the
plain nodal rule, far_weights and total_mass, which read no table.  A
FarOperator holds dense nodal rows until its source outgrows its sketch,
then an interpolative decomposition.  The call that factors it fills it
once, with a side's dense n = 3 pair when it is that side's n = 5
operator, from one ring_kernel pass; every other fill is one operator's
own.  An all-zero part is not transferred: its potential is an exact zero,
returned before any table or far-operator lookup.  That covers a source
zero on both patches (a static star's Y) and every compact source's tail.

LOpSolver solves the Helmholtz-like interior problem (L_3 + coef) W + g = 0
as a direct dense Nystrom system, its exterior tail by tail_potential.
"""

import ctypes
import math
import mmap

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dct, idct
from scipy.linalg import cython_lapack, lu_factor, lu_solve, solve_triangular
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dgeqp3
from scipy.special import ellipe, ellipk

from .errors import DecayError, DomainError, SolverError
from .fields import AxiField, _cells, _combine

# |S^(n-2)| and the fundamental-solution normalization (n-2) |S^(n-1)|
SPHERE_AREA = {3: 2.0 * math.pi, 4: 4.0 * math.pi, 5: 2.0 * math.pi**2}
FUND_NORM = {3: 4.0 * math.pi, 4: 4.0 * math.pi**2, 5: 8.0 * math.pi**2}


def ring_kernel(n, wt, ws, dz):
    """Azimuthally reduced Newtonian kernel; includes the ring measure.

    Symmetric under (wt, ws) swap up to the ws^(n-2) measure factor; the
    coincidence singularity is logarithmic and is masked to zero here (the
    near-cell integrals own those cells).  Coincident and axis points
    (B / (A + B) < 1e-14) get their own values patched in only when the
    input has any, so a generic call makes no masking pass.

    n may also be a tuple of dimensions, such as (3, 5): their kernels come
    from one pass, which computes A, B, m, K(m) and sqrt(A + B) once, stacked
    on a new leading axis, each bit for bit the kernel of that n alone.

    The whole broadcast is one pass, its full-shape intermediates computed
    in place: out[0] holds A + B until the last division, beside A and m
    (and K and E for n = 5).  Each value goes through the operations of its
    formula written out, in its order, so each output is bit-identical to
    it.  far_weights batches the far calls, in blocks of _FAR_BLOCK.
    """
    ns = n if isinstance(n, tuple) else (n,)
    if ns not in ((3,), (4,), (5,), (3, 5)):
        raise DomainError(f"unsupported dimension n={n}")
    wt, ws, dz = (np.asarray(x, dtype=float) for x in (wt, ws, dz))
    scalar = wt.ndim == ws.ndim == dz.ndim == 0
    out = np.empty((len(ns), *(np.broadcast_shapes(wt.shape, ws.shape, dz.shape) or (1,))))
    A = np.add((wt - ws) ** 2, dz**2, out=np.empty(out.shape[1:]))
    B = 4.0 * wt * ws
    has_diag = A.min(initial=1.0) <= 0.0
    if has_diag:
        diag = A <= 0.0
        A[diag] = 1.0  # stand-in; zeroed at the end
    AB = np.add(A, B, out=out[0])
    m = B / AB

    has_axis = ns != (3,) and m.min(initial=1.0) < 1e-14
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
    for k, o in zip(ns, out):
        if has_axis and k != 3:
            o[axis] = ws_ax**2 / (math.pi * A_ax) if k == 4 else ws_ax**3 / (4.0 * A_ax**1.5)
        if has_diag:
            o[diag] = 0.0
    if isinstance(n, tuple):
        return out[:, 0] if scalar else out
    return float(out[0, 0]) if scalar else out[0]


_TABLE_CACHE = {}
_FAR_CACHE = {}
_FAR_BLOCK = 1 << 14  # kernel evaluations per block of far-field weights
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
    lookup; it serves every patch of at most P nodes.  An n = 5 table is made
    with its pair, the n = 3 table of P, looked up first."""
    if (P, n) not in _TABLE_CACHE:
        pair = _cached_table(P, 3) if n == 5 else None
        _TABLE_CACHE[P, n] = KernelTable(P, n, pair)
    return _TABLE_CACHE[P, n]


def get_table(P, n):
    """The cached table of (P, n), filled to the P - 1 source columns 0..P-2
    (with its pair, for n = 5) unless it holds them.  The table object is
    never replaced, so the GreenOps that hold it see the new columns."""
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


def _near_integrals(tables, ncols):
    """Per table, acc[i, MC + dni, dnj]: the high-order integral of the ring
    kernel against the hat product of node (i + dni, dnj) for a target at
    (i, 0), over the unit cells around it, for |dni| <= MC and lags
    0 <= dnj <= MC.  Only the entries of nodes i + dni in the fill's source
    columns 0..ncols-1 are complete: the cells with no corner among them
    are not integrated.

    The cell at offsets (a, b), a in -MC-1..MC and b in -1..MC, from a
    target in column i feeds its four corner nodes; only the cells i + a in
    0..ncols-1, all on the grid, are integrated.
    The z-hat of lag 0 reaches dz of both signs, and acc sums both.  The
    cells below b = -1 feed only negative lags, which the kernel's evenness
    in dz makes copies of the positive ones, so they are not integrated.
    The cells, one ring_kernel pass of the tables' dimensions per rule and
    the scatter into the node patch serve every table (KernelTable).
    """
    P = tables[0].P
    I, DI, DJ = (x.ravel() for x in np.meshgrid(np.arange(P), np.arange(-MC - 1, MC + 1),
                                                np.arange(-1, MC + 1), indexing="ij"))
    # the cells on the grid with a corner node, i + dni or i + dni + 1, in 0..ncols-1
    keep = (I + DI >= 0) & (I + DI < ncols)
    I, DI, DJ = I[keep], DI[keep], DJ[keep]
    polar = (DI >= -1) & (DI <= 0) & (DJ >= -1) & (DJ <= 0)
    p, ns = np.arange(2), tuple(table.n for table in tables)
    Si, Sj = 2 * MC + 3, MC + 3
    flat, vals = [], []

    def integrate(kv, rule, *nodes):
        # each dimension's corner integrals, at the flat node-patch index of
        # (target i, node offset dni, lag dnj), offsets -MC-1..MC+1 by lags
        # -1..MC+1
        ex = [rule(k) for k in kv]
        i, dni, dnj = np.broadcast_arrays(*nodes, ex[0])[:3]
        flat.append(((i * Si + dni + MC + 1) * Sj + dnj + 1).ravel())
        vals.append([e.ravel() for e in ex])

    # tensor Gauss off the target: corner (p, q) is node (a + p, b + q)
    t, wq = _gauss01(N_GAUSS_NEAR)
    hats = _hat_weights(t, wq)
    i, a, b = (x[~polar, None, None] for x in (I, DI, DJ))
    wt = i.astype(float)
    integrate(ring_kernel(ns, wt, wt + (a + t[:, None]), b + t),
              lambda kv: np.einsum("cgh,gp,hq->cpq", kv, hats, hats), i, a + p[:, None], b + p)

    # polar Gauss on the cells with a corner on the target, mirrored
    # into the cell by the signs (sx, sz): corner (p, q) at distance
    # (p, q) from the target is node (sx p, sz q)
    x, y, w = _polar_rule()
    i, a, b = (v[polar, None] for v in (I, DI, DJ))
    sx, sz = 2 * a + 1, 2 * b + 1
    wt = i.astype(float)
    corner = np.stack([w * (1 - x) * (1 - y), w * (1 - x) * y, w * x * (1 - y), w * x * y])
    integrate(ring_kernel(ns, wt, wt + sx * x, sz * y),
              lambda kv: (kv @ corner.T).reshape(-1, 2, 2),
              i[:, :, None], sx[:, :, None] * p[:, None], sz[:, :, None] * p)

    # per table, sum the corner integrals into the node patch
    flat = np.concatenate(flat)
    return [np.bincount(flat, np.concatenate(v), P * Si * Sj).reshape(P, Si, Sj)[:, 1:-1, 1:-1]
            for v in zip(*vals)]


def _build_w2(tables, ncols, accs):
    """Per table, the spectra C = DCT-I along the lag axis of
    W2[i, i', lag] = int int k(i, ws, dz) hat_i'(ws) hat_lag(|dz|)
    for the source columns i' in 0..ncols-1 and every target i, with the
    near integrals acc of _near_integrals.

    Gauss entries, the 4-point tensor Gauss sums over the cells of the
    hat supports: the band |i' - i| <= D, lag <= D around the target and
    the axis's half-hat i' = 0; lag 2P - 2, which no source node reaches
    (KernelTable), holds zeros.  Nodal entries, all others: sum_k sum_l s_k s_l k(i, i' + k, lag + l) with
    s = _hat_stencil(q), on kernel values at the nodes ws in 0..ncols-1+q
    and dz in 0..2P-2+q, whose ghosts are k(-ws) = (-1)^n k(ws) (the ring
    potential is even in ws, the ws^(n-2) measure carries the sign) and
    k(-dz) = k(dz).  The near-cell integrals acc are written over the
    entries at nodes i' = i + dni and lags |dnj|.

    Each kind of kernel value is one ring_kernel pass per target column
    for all the tables, which share the cells, the Gauss mask and the
    scatter indices (KernelTable); the targets past the band share one cell
    set and take one pass per kind for D of them.  The slabs are written
    into C untransformed and transformed in place by one DCT-I along its
    lag axis.
    """
    P, G, q, D = tables[0].P, N_GAUSS_BASE, STENCIL_Q, GAUSS_BAND
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

    fold_dz = fold(2 * P - 1, 1.0)
    dz_nodes = np.arange(2 * P - 1 + q, dtype=float)
    # the lattice nodes within q of the W2 rows 0..ncols-1
    ws_nodes = np.arange(ncols + q, dtype=float)
    corner, dn, ns = np.arange(2), np.arange(-MC, MC + 1), tuple(table.n for table in tables)
    folds = [fold(ncols, (-1.0) ** table.n).T for table in tables]
    size = (ncols + 1) * (2 * P - 1)
    Cs = [np.empty((2 * P - 1, P, ncols)) for _ in tables]
    # a target from ncols + D on has no row within D of it: those targets
    # share one cell set, the axis row's, made once and built D targets at
    # a time; each target before them is built alone
    shared = min(P, ncols + D)
    for i in [*range(shared), *range(shared, P, D)]:
        targets = np.arange(i, min(i + D, P) if i >= shared else i + 1)
        if i <= shared:
            # the W2 rows and a row ncols, the node past them, which stays
            # False: it takes no Gauss entry and is discarded
            gauss = np.zeros((ncols + 1, 2 * P - 1), dtype=bool)
            own = gauss[:ncols]
            own[max(0, i - D) : i + D + 1, : D + 1] = True
            own[0] = True
            # the cells (varpi cell a, dz cell b) of those entries' hats, and
            # the W2 entry of corner (p, q), node a + p at lag b + q; the
            # lag-0 hat also spans dz in [-1, 0], which mirrors the
            # lower-weighted part of dz-cell 0 by evenness of the kernel
            hat = gauss[:-1] | gauss[1:]
            a, b = np.nonzero(hat[:, :-1] | hat[:, 1:])
            entry = (a[:, None] + corner)[:, :, None] * (2 * P - 1) + b[:, None, None] + corner
            low = b == 0
            entry = np.concatenate([entry.ravel(), entry[low, :, 0].ravel()])
        # the entries in each target's slab
        flat = (np.arange(targets.size)[:, None] * size + entry).ravel()
        wt = targets[:, None, None].astype(float)
        kvs = ring_kernel(ns, wt[..., None], a[:, None, None] + t[:, None], b[:, None, None] + t)
        lats = ring_kernel(ns, wt, ws_nodes[:, None], dz_nodes[None, :])
        # a shared target's near nodes, like its first target's, lie past the rows
        on = np.flatnonzero((i + dn >= 0) & (i + dn < ncols))
        for C, fold_ws, kv, lat, acc in zip(Cs, folds, kvs, lats, accs):
            # c[., k, p, q] weighs cell k toward node a + p and lag b + q:
            # hats.T kv hats as two products over all cells at once
            x = (kv.reshape(-1, G) @ hats).reshape(*kv.shape[:-1], 2).swapaxes(-1, -2)
            c = (x.reshape(-1, G) @ hats).reshape(*kv.shape[:-2], 2, 2).swapaxes(-1, -2)
            w = np.concatenate([c.reshape(targets.size, -1),
                                c[:, low, :, 0].reshape(targets.size, -1)], axis=1)
            W2 = np.bincount(flat, w.ravel(), targets.size * size).reshape(-1, ncols + 1, 2 * P - 1)
            W2 = np.where(own, W2[:, :ncols], fold_ws @ lat @ fold_dz)
            W2[..., -1] = 0.0
            W2[0, i + dn[on], : MC + 1] = acc[i, on]
            C[:, targets] = W2.transpose(2, 0, 1)
    # every slab's DCT-I along its lag axis, in place, in one transform
    for C in Cs:
        dct(C, type=1, axis=0, overwrite_x=True)
    return Cs


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
        np.add(kv, ring_kernel(n, wt[None, :], ws, zt[None, :] + zs), out=kv, where=j > 0)
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
    measure, and a patch of p < P nodes reads the leading p x p block.
    Every source vanishes on its patch's last row and column (the edge-zero
    invariant): chi = 0 at r = 2 R0, where the interior patch ends, and
    1 - chi = 0 at r* = R0, where the starred one does; apply raises
    DomainError for a source on p <= P nodes that does not.  So the table
    has no column P - 1, no Gauss rule for the last node's and lag's hats
    (which end at the edge in a p-node table and run on in this one), and
    zeros at lag 2P - 2, which only a source node at z = P - 1 reaches.
    The base rule integrates the
    kernel against the tensor piecewise-linear interpolant of the source
    (hat-product weights W2[i, i', lag], Toeplitz and even in the z lag),
    which keeps the quadrature error a smooth O(h^2) interpolation error.
    Its entries come from three rules, by distance from the target:
      - near: the entries whose hat supports touch the log singularity,
        nodes i + dni at lags |dnj| with both offsets at most MC, hold
        high-order local integrals (polar around the target, fine Gauss
        nearby);
      - band: the other entries with |i' - i| <= D = GAUSS_BAND and
        lag <= D, and the one half-hat edge, the axis node 0, are
        N_GAUSS_BASE x N_GAUSS_BASE Gauss sums on the cells of their hats;
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
    source columns: C[k, i, c] is one float64 array of shape
    (2P - 1, P, ncols), (2P - 1) P 8 bytes per filled column, and ncols is
    read from its shape.  DCT-I is the real DFT of the lag row made even with
    period 4P - 4 (lags -(2P-2)..2P-2, the two end lags at one index), which
    holds every lag j - z' of an output z = j in 0..P-1 and a source
    |z'| <= P-1 free of wrap-around.  apply transforms the source columns
    it carries (the others' spectra are zeros), multiplies by C frequency
    by frequency in one batched product and transforms back; w2_slab
    rebuilds a slab of W2 with one inverse DCT-I, and rows() reads its
    entries from the slabs.

    Columns are filled on demand, as a growing prefix, and fill is the only
    build.  KernelTable(P, n) starts empty.  apply and rows fill up to the
    last source column their sources carry before they use them, so a
    compact source, such as the pressure X's L_4 inverts, fills only the
    fluid's columns.  No fill builds column P - 1, where every source
    vanishes: get_table(P, n) fills the whole table, columns 0..P-2.  The
    sources of a solve carry every column from 0 up to their last one, so a
    prefix fills no column they do not use.  A fill that needs more columns
    frees C and rebuilds every column from 0, so a table's spectra are those
    of one fill to its ncols, whatever fills came before; fills counts the
    fills that built it.  A fill never holds the old and the new spectra at
    once, and its columns are a whole table's bit for bit (tested at
    P = 33): the same cells, lattice values and near integrals enter them.
    A 97/65 rotating solve rebuilds the 14 columns the n = 3 table's
    Newtonian set-up filled when the n = 5 fill takes its pair to 96
    columns; the n = 5 fill evaluates those kernel values anyway.

    A fill to ncols starts with the near integrals, two ring_kernel calls in
    all: one for the Gauss points of every near cell with a corner in
    columns 0..ncols-1, one for the polar points of the cells with a corner
    on the target.  Each cell's four corner integrals are one product
    against the corner weights, scattered into the node patch by a bincount.
    W2 then takes two ring_kernel calls per target column: the Gauss points
    of the band and axis cells that touch the columns, at most 16
    ((2D + 2)(D + 1) + 2P) values, and the node lattice ws in
    0..ncols-1+q, dz in 0..2P-2+q, at most (P - 1 + q)(2P - 1 + q) values,
    whose stencil sums are two matrix products.  Filling every column takes
    about 5.4 P^3 values at P = 65 with the near integrals, against 32 P^3
    for Gauss sums on every cell.  The cell layout is made once per fill for
    the targets i >= ncols + D, whose band holds none of the columns: they
    have the same Gauss cells, the axis row's, and no near integrals, and
    are built D at a time, two ring_kernel calls per D targets (68 of the
    97 targets of a 13-column fill at P = 97, in five blocks; none in a fill
    to ncols >= P - D), which bounds the block's temporaries to about those
    of D targets' kernel values.
    Each slab gets its near integrals and is written into the new C, and
    one in-place DCT-I of C along the lag axis transforms them all, with
    no second copy of the spectra; the spectra are those of a build target
    by target, bit for bit.

    pair, given to the cached n = 5 table, is the n = 3 table of its P: a
    fill to ncols rebuilds it to ncols too when it holds fewer, each
    ring_kernel call above taking (3, 5).  Both fills cover columns
    0..ncols-1, so they share the cells, Gauss mask, scatter indices and near
    integrals, and each table keeps its own fold, so its spectra are bit for
    bit its own fill's.
    """

    def __init__(self, P, n, pair=None):
        self.P = int(P)
        self.n = int(n)
        self.pair = pair
        self.C = np.empty((2 * self.P - 1, self.P, 0))
        self.fills = 0

    @property
    def ncols(self):
        return self.C.shape[2]

    def fill(self, ncols):
        """Rebuild the spectra of the source columns 0..ncols - 1, at most
        0..P-2, with its pair's when the pair holds fewer; a table that holds
        ncols columns or more is left alone."""
        ncols = min(ncols, self.P - 1)
        if ncols <= self.ncols:
            return
        tables = [t for t in (self.pair, self) if t is not None and t.ncols < ncols]
        # the old spectra are freed before the new ones are built
        for table in tables:
            table.C = np.empty(table.C.shape[:2] + (0,))
        # the near integrals' temporaries are freed before C is allocated
        for table, C in zip(tables, _build_w2(tables, ncols, _near_integrals(tables, ncols))):
            table.C = C
            table.fills += 1

    # -- application ----------------------------------------------------------

    def apply(self, gvals):
        """Unit-coordinate potential on the node grid of the source's
        p x p patch, zero on its last row and column (multiply by h^2)."""
        p = gvals.shape[0]
        if p > self.P or np.any(gvals[-1]) or np.any(gvals[:, -1]):
            raise DomainError(
                f"a source on {p} nodes needs zeros on its last row and column "
                f"to use the {self.P}-node table"
            )
        # fill up to the last column the source carries, then take the
        # spectrum of its carried columns made even in z and zero-padded to
        # the table's period (the other columns' spectra are zeros), and
        # make one real product per frequency over the columns on the patch
        carried = 1 + np.max(np.flatnonzero(np.any(gvals, axis=1)), initial=-1)
        self.fill(carried)
        m = min(self.ncols, p)
        gx = np.zeros((2 * self.P - 1, m))
        gx[:, :carried] = dct(gvals[:carried].T, type=1, n=2 * self.P - 1, axis=0)
        y = idct((self.C[:, :p, :m] @ gx[..., None])[..., 0], type=1, axis=0)
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
        lag, by one inverse DCT-I."""
        return idct(self.C[:, i, :], type=1, axis=0).T

    def rows(self, targets, sources):
        """Dense quadrature rows R[t, s] consistent with apply(), for
        sources off the patch's last row and column; fills up to the last
        source column first."""
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
        return self.C.nbytes


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


def _native(name, nargs):
    """The subroutine name of scipy's Cython LAPACK bindings as a ctypes
    function of nargs pointers (Fortran passes every argument by reference)."""
    capsule = cython_lapack.__pyx_capi__[name]
    address = _CAPSULE_POINTER(capsule, _CAPSULE_NAME(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


def _by_reference(fn, *args):
    """fn(*args), an int passed as a pointer to a C int, a ctypes.c_int as a
    pointer to itself and an array as a pointer to its first element."""
    refs = [ctypes.c_int(a) if isinstance(a, int) else a for a in args]
    return fn(*(ctypes.byref(a) if isinstance(a, ctypes.c_int) else a.ctypes.data for a in refs))


_DLAQPS = _native("dlaqps", 14)
_DLAQP2 = _native("dlaqp2", 10)


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
    vn1 = np.array([dnrm2(A[:, j]) for j in range(T)])
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
        skeleton of ops[d], from one pass at the sorted union J of the
        skeletons (every target while an operator is dense), each operator
        gathering its own columns."""
        J = np.unique(np.concatenate([op.skeleton for op in ops]))
        at = np.empty(self.wt.size, dtype=np.intp)
        at[J] = np.arange(J.size)
        cols = [at[op.skeleton] for op in ops]
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
        # per side, the other patch's nodes imaged inside the source patch,
        # with their bilinear cells there
        self._near = {}
        for side, (other, h) in {"int": ("star", g.h_int), "star": ("int", g.h_ext)}.items():
            w, z, r = g.images[other]
            near = np.isfinite(r) & ~self.far[side]
            self._near[side] = near, _cells(g.images[side][2].shape, h, w[near], z[near])
        # tail_potential's masks: 0 < r* <= R0/4, and the band r* >= R0/2
        self._tail_masks = (g.RS <= 0.25 * g.R0) & (g.RS > 0), g.RS >= 0.5 * g.R0
        # lookups: each table, the dimensions of those this grid's calls
        # filled, and each far operator
        self._tables, self._filled, self._fars, self._made = {}, set(), {}, set()

    def table(self, n):
        """The kernel table of dimension n both patches use, sized to the
        larger one (an n = 5 one listed with its pair), filling no column."""
        if n not in self._tables:
            table = _cached_table(max(self.grid.n_int, self.grid.n_ext), n)
            self._tables.update({t.n: t for t in (table.pair, table) if t is not None})
        return self._tables[n]

    def use_table(self, n, method, *args):
        """table(n).method(*args) (apply, rows, fill), noting the tables it fills."""
        table = self.table(n)
        tables = [t for t in (table.pair, table) if t is not None]
        fills = [t.fills for t in tables]
        out = getattr(table, method)(*args)
        self._filled.update(t.n for t, k in zip(tables, fills) if t.fills > k)
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
        filled table columns and the fills that built them, and whether
        each far operator is still dense, or its rank and the columns its
        skeleton QR factored.  built: a call of this grid's use_table filled
        the table, or this grid made the far operator (an
        n = 5 lookup makes its pair too); the others are cache hits."""
        tables = {f"P{t.P}_n{t.n}": {"bytes": t.nbytes, "columns": t.ncols,
                                     "fills": t.fills, "built": n in self._filled}
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
        far, (near, cells) = self.far[side], self._near[side]
        if not np.any(src):
            return np.zeros(src.shape), np.zeros(far.shape)
        own = h**2 * self.use_table(n, "apply", src)
        vals = np.zeros(far.shape)
        vals[near] = _combine(own, cells)
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
        # compare against the tail scale on the outer starred band, where any
        # admissible tail is O(1); a diverging diamond source means the decay
        # index overstates the actual falloff
        inner, band = self._tail_masks
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
