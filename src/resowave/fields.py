"""Spectral fields on the half-cylinder (t, x) in [0, 2pi) x [0, pi].

A field is a truncated double series

    u(t, x) = sum_{l=0}^{Lt} sum_{j=1}^{Lx} u_{lj} cos(l t) sin(j x),

the natural basis for functions that are even and 2pi-periodic in time and
satisfy Dirichlet conditions at x = 0, pi.  Coefficients are stored as a dense
(Lt+1, Lx) array, row l, column j-1.

Every sample of a field is taken on the torus [0, 2pi) x [0, 2pi), where a
sine series in x is its own odd extension.  Each sampling and every
projection off it run by a plan (_Sampling), made once per coefficient
shape, class, degrees, projected rows and columns (_sampling, a bounded
cache) and read by every later call of that key: it holds the one
decision of the path, from the size of the work (_layout), the grid, the
table slices and the scatter slices.  The class is read off exact zeros at
every call and is part of the key.  Each path is a pair of executors that
tests no size:

- dense (_dense_values, _dense_coeffs), every frame of an odd f among
  them: the products are folded onto the fundamental domain of the
  symmetries they share, read off exact zeros and parity
  (_symmetry_class): T -> -T always; rows of one parity give the half
  shift T -> T + pi, columns of one parity X -> X + pi, and polynomials of
  odd or even powers only X -> -X.  A product is sampled on one node of
  each orbit (_axis_fold), weighted by the orbit's size, and only the
  harmonics the class allows are read, the others being exact zeros:
  about a sixteenth of the torus for every frame of an odd f.  Each step
  is two chained matrix products with cached cos/sin tables on the nodes
  (_trig_table), in at most DENSE_MAX_BLOCKS row blocks of at most
  DENSE_MAX_MADDS multiply-adds each, so that OpenBLAS keeps one thread;
- scipy.fft (_fft_values, _fft_coeffs) over the whole torus, the trivial
  class, wherever a product would be larger, as on the even-f frames
  whose x axis grows with the level: its n log n cost the cubic cost of
  the products would outrun, and it runs on one thread at any size.

A field is a finite trig polynomial, so the samples are exact, and
sup_norm reads its maximum off them.  Products of fields (needed for
polynomial nonlinearities) leave the sine class -- even powers pick up
cosine content in x whose sine-basis expansion is an infinite series -- so
they are sampled on a grid of _grid(d) = next_fast_len(2d + 1) nodes along
each axis (the fast multiple of 4 at least that where the axis has a half
shift), d the product's degree there, their exact cos/sin torus
coefficients are read off (_torus_cos_sin), and those are projected back
onto the sine basis in closed form.  The coefficients `apply_polynomials`
returns are the true L2 projections, with no aliasing, for any polynomial
nonlinearity.  A caller that samples fields of one shape many times, as
the Newton of a level does, holds the plans (plan_polynomials,
plan_poly_matrix) and runs them on raw coefficient arrays
(planned_polynomials, planned_poly_matrix); a matrix plan holds its
gather tables too, which no cache keeps.  The planned executors take a
stack of fields of one shape and class (leading axes) as one sampling:
numpy's matmul makes one BLAS call per field, and scipy.fft transforms
each alike, so each field keeps the bits it has alone.
"""

import functools

import numpy as np
from scipy import fft as sfft

from .errors import ResowaveError

__all__ = [
    "SpectralField",
    "eval_field",
    "omega_norm",
    "sup_norm",
    "inner_h1",
    "inner_l2",
    "diagonal_of",
    "zero_diagonal",
    "apply_nonlinearity",
    "apply_polynomials",
    "integrate_poly",
    "plan_polynomials",
    "planned_polynomials",
    "plan_poly_matrix",
    "planned_poly_matrix",
    "temporal_weights",
]


class SpectralField:
    """Immutable coefficient table u_{lj} for cos(l t) sin(j x)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=float, copy=True, order="C")
        if arr.ndim != 2:
            raise ResowaveError(f"coefficient array must be 2-d, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ResowaveError("need at least one spatial mode (Lx >= 1)")
        if not np.all(np.isfinite(arr)):
            raise ResowaveError("non-finite coefficient")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @property
    def lt(self):
        return self.coeffs.shape[0] - 1

    @property
    def lx(self):
        return self.coeffs.shape[1]

    def padded(self, lt, lx):
        """Coefficients zero-extended to shape (lt+1, lx)."""
        if lt < self.lt or lx < self.lx:
            raise ResowaveError("padding must not truncate")
        out = np.zeros((lt + 1, lx))
        out[: self.lt + 1, : self.lx] = self.coeffs
        return out

    def __add__(self, other):
        lt = max(self.lt, other.lt)
        lx = max(self.lx, other.lx)
        return SpectralField(self.padded(lt, lx) + other.padded(lt, lx))

    def __sub__(self, other):
        lt = max(self.lt, other.lt)
        lx = max(self.lx, other.lx)
        return SpectralField(self.padded(lt, lx) - other.padded(lt, lx))

    def __repr__(self):
        return f"SpectralField(lt={self.lt}, lx={self.lx})"


def temporal_weights(lt):
    """Parseval weights c_l: 2 for the constant-in-t row, 1 above."""
    c = np.ones(lt + 1)
    c[0] = 2.0
    return c


# ---------------------------------------------------------------------------
# sampling

# A sampling and its projections run as chains of two matrix products with
# cached trig tables when _layout finds each chain at most DENSE_MAX_BLOCKS
# row blocks in which every product stays at or below DENSE_MAX_MADDS
# multiply-adds (m n k), and on scipy.fft otherwise.  2^18 is the size up
# to which OpenBLAS runs a GEMM on one thread (its SMP_THRESHOLD_MIN 65536
# times the default GEMM_MULTITHREAD_THRESHOLD 4); above it a second thread
# may wake and spin through the rest of the pass.  On a 2-core x86 host
# with OpenBLAS 0.3.31 (CPU time, best of five), on the 17 x 16 level-1
# frame of u^3: P f(U) takes 92 us against 194 us through the FFTs, its
# certificates (two blocks) 252 against 364 us and sup_norm (two blocks)
# 66 against 149 us.  With more blocks the products stop winning on fields
# whose x axis grows: u^2 of a 5 x 96 field took 247 us with up to four
# blocks and 389 us with up to eight, against 199 us through the FFTs.
DENSE_MAX_MADDS = 2**18
DENSE_MAX_BLOCKS = 2
# the matrix product every dense sampling and projection runs through
_matmul = np.matmul


def _grid(d, shift=None):
    """The torus length for trig degree d: the fast FFT length at least 2d + 1,
    a multiple of 4 on an axis with a half shift (shift not None), whose
    fold then keeps a quarter of it (_axis_fold)."""
    if shift is None:
        return sfft.next_fast_len(2 * d + 1, real=True)
    return 4 * sfft.next_fast_len(-(-(2 * d + 1) // 4), real=True)


# The class a sampling is folded on: the signs (t_shift, t_reflect,
# x_shift, x_reflect) that every sampled product takes under T -> T + pi,
# T -> -T, X -> X + pi and X -> -X, None for a map that is not a symmetry.
# The full torus is the trivial class.
_TRIVIAL = (None, None, None, None)


def _symmetry_class(c, polys):
    """The class of the products poly(u) of the field u of coefficients c,
    read off exact zeros and parity.

    u is even in t and odd in x.  T -> T + pi maps it to -u (u) when every
    even (odd) row of c is zero, X -> X + pi when every column of even (odd)
    j is.  A map that keeps u keeps every poly(u); one that maps u to -u
    maps poly(u) to -poly(u) (poly(u)) when every poly has odd (even) powers
    only, and is no symmetry of a mixed-parity poly.  It is read at every
    call and is part of the key of the sampling's plan (_sampling).
    """
    even = odd = False
    for p in polys:
        p = np.asarray(p).tolist()
        even, odd = even or any(p[0::2]), odd or any(p[1::2])
    parity = -1 if odd and not even else 1 if not odd else None

    def image(sign):            # the sign of poly(u) where u takes sign
        return 1 if sign == 1 else None if sign is None else parity

    rows = -1 if not np.count_nonzero(c[0::2]) else 1 if not np.count_nonzero(c[1::2]) else None
    cols = (-1 if not np.count_nonzero(c[:, 1::2]) else
            1 if not np.count_nonzero(c[:, 0::2]) else None)
    return image(rows), 1, image(cols), image(-1)


@functools.lru_cache(maxsize=32)
def _axis_fold(n, shift, reflect):
    """The fundamental domain of a torus axis of nodes 2 pi i/n, i < n.

    shift and reflect are the signs a sampled product takes under i -> i +
    n/2 and i -> -i (mod n), None for a map that is not a symmetry (the
    shift also when n is odd).  Returns (nodes, weights), read-only: nodes
    lists the least node of each orbit of the maps, but for orbits that a
    map of sign -1 fixes, where every product of the class is zero; weights
    holds the orbit sizes, 2 on self-paired nodes and 4 inside when both
    maps hold, so a sum over the axis is the weighted sum over nodes.
    """
    i = np.arange(n)
    maps = [(i, 1)]
    if reflect is not None:
        maps.append(((-i) % n, reflect))
    if shift is not None and n % 2 == 0:
        maps.append(((i + n // 2) % n, shift))
        if reflect is not None:
            maps.append(((n // 2 - i) % n, shift * reflect))
    images = np.array([m for m, _ in maps])
    signs = np.array([s for _, s in maps])
    zero = np.any((images == i) & (signs[:, None] < 0), axis=0)
    nodes = np.flatnonzero((images.min(axis=0) == i) & ~zero)
    weights = 1.0 + np.count_nonzero(np.diff(np.sort(images[:, nodes], axis=0), axis=0), axis=0)
    for table in (nodes, weights):
        table.flags.writeable = False
    return nodes, weights


def _harmonics(deg, shift, reflect):
    """(cos, sin): the slices of l = 0..deg at which a product of an axis
    class can have cos(l s) and sin(l s) content: the l of one parity under
    a half shift (even l for +1), no sine under reflect +1, no cosine
    under -1.  Without a half shift the sines start at the zero sin(0 s),
    so an axis with neither map keeps [cos | sin] of every l = 0..deg."""
    start, step = (0, 1) if shift is None else (0, 2) if shift > 0 else (1, 2)
    none = slice(0, 0)
    return (none if reflect == -1 else slice(start, deg + 1, step),
            none if reflect == 1 else slice(step if shift == 1 else start, deg + 1, step))


@functools.lru_cache(maxsize=64)
def _trig_table(n, deg, weighted, fold):
    """[cos | sin](2 pi i l/n) at the nodes i of fold's domain (_axis_fold),
    columns l = 0..deg, read-only.

    fold is an axis's (shift, reflect).  The phase is gathered from 2 pi
    m/n at m = i l mod n, so each entry is rounded once.  weighted reads
    cos/sin coefficients off samples of the fold's class: it keeps the
    columns of the harmonics the class can have (_harmonics), [cos | sin],
    and scales column l by 1/n at l = 0 and 2/n above and each row by its
    fold weight.  Only dense plans build tables, a factor of a chain has at
    most DENSE_MAX_BLOCKS DENSE_MAX_MADDS entries and a table is at most
    two factors, so each table is at most 8 MB and the 64 cached ones at
    most 512 MB; a plan holds views of the tables it reads (_Sampling).
    The keys hold the fold, so a run keeps more and smaller tables than on
    the full torus: the 36 that the criterion-6 branch builds hold 0.15 MB
    in all.
    """
    nodes, weights = _axis_fold(n, *fold)
    phase = np.arange(n) * (2.0 * np.pi / n)
    m = np.outer(nodes, np.arange(deg + 1)) % n
    cos, sin = np.cos(phase)[m], np.sin(phase)[m]
    if weighted:
        w = np.full(deg + 1, 2.0 / n)
        w[0] = 1.0 / n
        c, s = _harmonics(deg, *fold)
        # the fold weights are powers of two, so each entry is rounded once
        cos, sin = cos[:, c] * (weights[:, None] * w[c]), sin[:, s] * (weights[:, None] * w[s])
    table = np.concatenate([cos, sin], axis=1)
    table.flags.writeable = False
    return table


def _plan(m, k, p, n):
    """The rows per block to form an (m, k) @ (k, p) @ (p, n) chain dense, or None.

    The chain is (a b) c in blocks of rows of a, each GEMM at most
    DENSE_MAX_MADDS multiply-adds; None when that takes more than
    DENSE_MAX_BLOCKS blocks.
    """
    rows = min(m, DENSE_MAX_MADDS // max(p * max(k, n), 1))
    return rows if rows >= 1 and m <= DENSE_MAX_BLOCKS * rows else None


def _layout(shape, grid, cls, tops, d_x):
    """The one size decision of a sampling of a field of shape (lt+1, lx) on
    the (nt, nx) = grid torus folded by the class cls, and of the
    projections of rows 0..top, each top of tops, and columns 0..d_x off it.
    It runs when a plan is made (_sampling), once per key.

    None, for the trivial class or a chain over DENSE_MAX_BLOCKS (_plan):
    all run on scipy.fft over the whole torus.  Else the dense plan (rows,
    (cx, sx, na), projections): the sampling's rows per block, the slices of
    the harmonics mu kept (_harmonics) and the number of cosines among
    them, and per top (ct, m, rows), its m harmonics l kept and rows per
    block, or None where the class keeps no l.
    """
    if cls == _TRIVIAL:
        return None
    it, ix = _axis_fold(grid[0], *cls[:2])[0].size, _axis_fold(grid[1], *cls[2:])[0].size
    cx, sx = _harmonics(d_x, *cls[2:])
    na, nb = len(range(d_x + 1)[cx]), len(range(d_x + 1)[sx])
    plans, projections = [_plan(it, *shape, ix)], []
    for top in tops:
        ct = _harmonics(top, *cls[:2])[0]
        m = len(range(top + 1)[ct])
        if m:
            plans.append(_plan(m, it, ix, na + nb))
        projections.append((ct, m, plans[-1]) if m else None)
    return None if None in plans else (plans[0], (cx, sx, na), projections)


def _chain(a, b, c, rows):
    """(a @ b) @ c in blocks of `rows` rows of a (_plan), for b a matrix or a
    stack of them (leading axes): numpy's matmul makes one BLAS call per
    matrix of the stack, so each keeps the bits it has alone."""
    if rows >= a.shape[0]:
        return _matmul(_matmul(a, b), c)
    out = np.empty(b.shape[:-2] + (a.shape[0], c.shape[1]))
    for i in range(0, a.shape[0], rows):
        _matmul(_matmul(a[i : i + rows], b), c, out=out[..., i : i + rows, :])
    return out


# the most sampling plans the cache keeps (_sampling): the criterion-6
# branch makes 16, and 21 with the quadratic offsets, whose tables hold
# 0.2 MB in all
SAMPLING_PLANS = 32


class _Sampling:
    """The plan of one sampling of the fields of one shape whose products
    fall in one class, and of the projections off it: what _layout decides
    and every table its executors read, made once (_sampling).

    grids is (grid, whole): the class's torus and the whole one.  dense is
    the path: the class's domain of grid, in blocks of rows, with the value
    tables t_table and x_table and, per projection, (weighted t table, rows
    per block, the row slice and the x slices and cosine count of _layout)
    or None where the class keeps no row; x_weights is the weighted x table
    all projections share.  Else scipy.fft over the whole torus, and grid
    is whole.  Every plan keeps the rows 0..top projected, top of tops, and
    the columns 0..d_x; out_lts and out_lx are the sine projection's rows
    per poly and columns (_sine_projection, with the plan's K), None where
    the torus coefficients are read.  A plan holds views of its tables,
    read-only, so it is shared by every call of its key.
    """

    __slots__ = ("dense", "grid", "rows", "t_table", "x_table", "x_weights",
                 "projections", "tops", "d_x", "out_lts", "out_lx", "K")

    def __init__(self, shape, cls, grids, d_x, tops, out):
        lt, lx = shape[0] - 1, shape[1]
        grid, whole = grids
        layout = _layout(shape, grid, cls, tops, d_x)
        self.tops, self.d_x = tops, d_x
        self.dense = layout is not None
        self.grid = grid if self.dense else whole
        self.out_lts, self.out_lx = (None, None) if out is None else out
        self.K = None if out is None else _half_projection_matrix(d_x, self.out_lx)
        if self.dense:
            nt, nx = grid
            self.rows, (cx, sx, na), projections = layout
            self.t_table = _trig_table(nt, lt, False, cls[:2])[:, : lt + 1]
            self.x_table = _trig_table(nx, lx, False, cls[2:])[:, lx + 2 :].T
            self.x_weights = _trig_table(nx, d_x, True, cls[2:])
            self.projections = [
                None if p is None else
                (_trig_table(nt, top, True, cls[:2])[:, : p[1]].T, p[2], p[0], cx, sx, na)
                for top, p in zip(tops, projections)]


@functools.lru_cache(maxsize=SAMPLING_PLANS)
def _sampling(shape, cls, degrees, d_x, tops, out, bounds):
    """The _Sampling of a field of shape (lt+1, lx) whose products fall in
    the class cls (_symmetry_class), the one place a sampling is decided.

    degrees (deg_t, deg_x) are the trig degrees the samples resolve, on
    _grid(deg) nodes an axis (the class's length on the dense path), or
    None for sup_norm's grid, the power of two above 4 lt and 8 lx + 4, at
    least 128 and 256.  tops holds the rows 0..top projected for each poly,
    d_x the columns, and out (out_lts, out_lx) the sine projection, or None.
    bounds is (DENSE_MAX_MADDS, DENSE_MAX_BLOCKS), which _layout reads: in
    the key, so that a plan made under other bounds is never read.  A plan
    holds 3 + len(tops) tables on the dense path, each at most 8 MB
    (_trig_table).
    """
    if degrees is None:
        lt, lx = shape[0] - 1, shape[1]
        grid = (max(1 << (4 * lt).bit_length(), 128), max(8 * lx + 4, 256))
        return _Sampling(shape, cls, (grid, grid), d_x, tops, out)
    whole = _grid(degrees[0]), _grid(degrees[1])
    return _Sampling(shape, cls, ((_grid(degrees[0], cls[0]), _grid(degrees[1], cls[2])), whole),
                     d_x, tops, out)


def _dense_values(c, plan):
    """Samples of the field of coefficients c (or of each of a stack) at the
    nodes t_i, x_k of the plan's class domain: cos(l t_i) @ c @ sin(j x_k),
    in blocks of the plan's rows.  Exact for nt > 2 lt and nx >= 2 lx."""
    return _chain(plan.t_table, c, plan.x_table, plan.rows)


def _x_values(rows, nx):
    """Samples of the sine rows sum_j rows[..., j-1] sin(j x) at x = 2pi k/nx, k < nx.

    sin(j x) is the imaginary part of e^{ijx}, so one inverse real FFT of the
    spectrum -i nx/2 rows samples the odd extension over the whole torus in
    x.  Exact for nx >= 2 lx; each row of a stack keeps the bits it has alone.
    """
    spec = np.zeros(rows.shape[:-1] + (nx // 2 + 1,), dtype=complex)
    spec[..., 1 : rows.shape[-1] + 1] = (-0.5j * nx) * rows
    return sfft.irfft(spec, n=nx, axis=-1)


def _fft_values(c, nt, nx):
    """Samples of the field of coefficients c (or of each of a stack) at t =
    2pi i/nt and x = 2pi k/nx over the whole torus: one inverse real FFT
    over the cosine rows in t, then _x_values.  Exact for nt > 2 lt and nx
    >= 2 lx."""
    spec = np.zeros(c.shape[:-2] + (nt // 2 + 1, c.shape[-1]))
    spec[..., 0, :] = c[..., 0, :] * nt
    spec[..., 1 : c.shape[-2], :] = c[..., 1:, :] * (nt / 2.0)
    return _x_values(sfft.irfft(spec, n=nt, axis=-2), nx)


def _values(plan, c):
    """Samples of the field of coefficients c (or of each of a stack) on the
    plan's path: a sampling."""
    return _dense_values(c, plan) if plan.dense else _fft_values(c, *plan.grid)


def _poly_at(vals, poly):
    """poly(vals) by Horner's rule, accumulated in place in one array.

    The same operations in the same order as numpy.polynomial's evaluation,
    so the same bits, without a temporary per coefficient.
    """
    poly = np.asarray(poly, dtype=float)
    if poly.size == 1:
        return np.full_like(vals, poly[0])
    out = vals * poly[-1]
    for c in poly[-2:0:-1].tolist():
        out += c
        out *= vals
    out += poly[0]
    return out


def eval_field(u, t, x):
    """Dense evaluation at arbitrary points; t and x broadcast as an outer grid."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ls = np.arange(u.lt + 1)
    js = np.arange(1, u.lx + 1)
    ct = np.cos(np.outer(t, ls))          # (nt, lt+1)
    sx = np.sin(np.outer(js, x))          # (lx, nx)
    return ct @ u.coeffs @ sx


# ---------------------------------------------------------------------------
# norms, inner products, projections


def inner_h1(u, v):
    lt = max(u.lt, v.lt)
    lx = max(u.lx, v.lx)
    a = u.padded(lt, lx)
    b = v.padded(lt, lx)
    cl = temporal_weights(lt)[:, None]
    wj = np.arange(1, lx + 1)[None, :] ** 2 + np.arange(lt + 1)[:, None] ** 2
    return 0.5 * np.pi**2 * float(np.sum(cl * a * b * wj))


def inner_l2(u, v):
    lt = max(u.lt, v.lt)
    lx = max(u.lx, v.lx)
    a = u.padded(lt, lx)
    b = v.padded(lt, lx)
    cl = temporal_weights(lt)[:, None]
    return 0.5 * np.pi**2 * float(np.sum(cl * a * b))


def sup_norm(u):
    """Max |u| over torus samples (a lower bound of the true sup).

    The grid is at least twice the Nyquist rate in t (a power of two) and
    four times the degree in x, with floors (nt >= 128, nx >= 256) so small
    fields are still sampled finely; nx is a multiple of 4 so the midline
    x = pi/2 (where single-mode fields peak) is always a node.  Both lengths
    are multiples of 4, so where that sampling runs dense (_layout) it is
    taken on the fundamental domain of u's own class (_symmetry_class of
    the identity), whose other nodes carry the same |u| or zero: a quarter
    of the grid at most, about a sixteenth for an odd f's frame field.  The
    grid is the plan's (_sampling, degrees None).
    """
    c = u.coeffs
    plan = _sampling(c.shape, _symmetry_class(c, [[0.0, 1.0]]), None, 0, (), None,
                     (DENSE_MAX_MADDS, DENSE_MAX_BLOCKS))
    return float(np.max(np.abs(_values(plan, c))))


def omega_norm(u, omega):
    """|u|_omega = sup|u| + sqrt(|omega - 1|) ||u||_H1 from above, read off coefficients.

    sup|u| is bounded by sum |u_lj|, so no field is sampled.
    """
    return float(np.sum(np.abs(u.coeffs))) + np.sqrt(abs(omega - 1.0)) * np.sqrt(inner_h1(u, u))


def diagonal_of(u):
    """Coefficients u_{jj}, j = 1..min(lt, lx)."""
    return np.diagonal(u.coeffs[1:]).copy()


def zero_diagonal(u):
    """Copy of u with the resonant diagonal u_{jj} pinned to zero."""
    c = u.coeffs.copy()
    np.fill_diagonal(c[1:], 0.0)
    return SpectralField(c)


# ---------------------------------------------------------------------------
# polynomial nonlinearities, exact projection


def _poly_degree(poly):
    nz = np.asarray(poly, dtype=float).nonzero()[0]
    return int(nz[-1]) if nz.size else 0


def _torus_cos_sin(plan, c, polys):
    """Exact torus coefficients (A, B) of each poly(u) of the field u of
    coefficients c, from one sample of u by the plan (_sampling); of each
    field of a stack c, with the stack's leading axes.

    poly(u) = sum_l cos(l t) [ sum_mu A[l,mu] cos(mu x) + B[l,mu] sin(mu x) ],
    l <= d_t and mu <= d_x, sampled on the plan's grid, which resolves
    those degrees; for each poly the rows l = 0..top of its entry of the
    plan's tops and its columns mu = 0..d_x are returned, with exact zeros
    where the products' class has no content, and None for an A or B it
    makes zero.
    """
    vals = _values(plan, c)
    if plan.dense:
        return [_dense_coeffs(_poly_at(vals, p), plan, top, projection)
                for p, top, projection in zip(polys, plan.tops, plan.projections)]
    return [_fft_coeffs(_poly_at(vals, p), top, plan.d_x) for p, top in zip(polys, plan.tops)]


def _dense_coeffs(vals, plan, top, projection):
    """Samples on the dense plan's class domain (or a stack of them) ->
    cos/sin coefficients (A, B), rows 0..top, columns 0..d_x: weighted
    cos(l t_i) @ vals @ [cos | sin](mu x_k) on the harmonics the projection
    keeps; the rest are exact zeros, and an A or B with none is None."""
    if projection is None:
        return None, None
    wt, rows, ct, cx, sx, na = projection
    AB = _chain(wt, vals, plan.x_weights, rows)
    shape = vals.shape[:-2] + (top + 1, plan.d_x + 1)
    A = B = None
    if na:
        A = np.zeros(shape)
        A[..., ct, cx] = AB[..., :na]
    if AB.shape[-1] > na:
        B = np.zeros(shape)
        B[..., ct, sx] = AB[..., na:]
        B[..., 0] = 0.0
    return A, B


def _fft_coeffs(vals, top, d_x):
    """Samples over the whole (nt, nx) torus (or a stack of them) -> cos/sin
    coefficients (A, B), rows 0..top, columns 0..d_x: real FFTs in t, then in
    x over the rows kept.  Each field of a stack keeps the bits it has alone."""
    nt, nx = vals.shape[-2:]
    # time direction: even in t, cosine rows are the real part of the rfft
    spec_t = sfft.rfft(vals, axis=-2)
    rows = np.empty(vals.shape[:-2] + (top + 1, nx))
    rows[..., 0, :] = spec_t[..., 0, :].real / nt
    rows[..., 1:, :] = 2.0 * spec_t[..., 1 : top + 1, :].real / nt
    # space direction: the rows sample the 2pi torus in x
    spec_x = sfft.rfft(rows, axis=-1) / nx
    A = 2.0 * spec_x[..., : d_x + 1].real
    A[..., 0] = spec_x[..., 0].real
    B = -2.0 * spec_x[..., : d_x + 1].imag
    B[..., 0] = 0.0
    return A, B


@functools.lru_cache(maxsize=64)
def _half_projection_matrix(d_x, out_lx):
    """K[mu, j-1] with b_j = B_j + sum_mu A_mu K[mu, j-1].

    From int_0^pi cos(mu x) sin(j x) dx = 2 j/(j^2 - mu^2) when mu + j is odd
    (zero otherwise), so the sine-basis coefficient of cos(mu x) is
    (2/pi) * 2 j/(j^2 - mu^2).  The matrix is cached and shared by every
    caller, so it is returned read-only.
    """
    mu = np.arange(d_x + 1)[:, None]
    j = np.arange(1, out_lx + 1)[None, :]
    odd = (mu + j) % 2 == 1
    K = np.zeros((d_x + 1, out_lx))
    np.divide(4.0 * j / np.pi, (j**2 - mu**2), out=K, where=odd)
    K[~odd] = 0.0
    K.flags.writeable = False
    return K


def plan_polynomials(shape, cls, polys, out_lt=None, out_lx=None):
    """The plan (_sampling) of apply_polynomials(u, polys, out_lt, out_lx) for
    the fields u of shape (lt+1, lx) whose products fall in the class cls
    (_symmetry_class): run it with planned_polynomials."""
    lt, lx = shape[0] - 1, shape[1]
    r = max(_poly_degree(p) for p in polys)
    d_t, d_x = r * lt, r * lx
    out_lx = d_x if out_lx is None else out_lx
    lts = tuple(d_t if rows is None else rows
                for rows in (out_lt if isinstance(out_lt, list) else [out_lt] * len(polys)))
    d_x = max(d_x, out_lx)
    return _sampling(shape, cls, (max(d_t, lt, 1), max(d_x, lx, 1)), d_x,
                     tuple(min(top, d_t) for top in lts), (lts, out_lx),
                     (DENSE_MAX_MADDS, DENSE_MAX_BLOCKS))


def planned_polynomials(plan, c, polys):
    """The sine-basis coefficient arrays of each poly(u), u the field of
    coefficients c, by the plan of plan_polynomials, from one sampling.

    c may be a stack of fields of the plan's shape and class (leading axes),
    sampled as one, and each array then carries the stack's axes; each field
    keeps the bits it has alone.
    """
    return [_sine_projection(A, B, lt, plan.out_lx, plan.K, c.shape[:-2])
            for lt, (A, B) in zip(plan.out_lts, _torus_cos_sin(plan, c, polys))]


def apply_polynomials(u, polys, out_lt=None, out_lx=None):
    """Exact sine-basis coefficients of each poly(u) up to (out_lt, out_lx).

    Each poly is an ascending coefficient array [c0, c1, ...], all evaluated
    at the same samples of u; the defaults are the full degree (r lt, r lx),
    r the largest.  out_lt may also be a list, one entry (None or a row
    count) per poly, and only those rows are formed.  The returned
    coefficients are the true L2 projections of poly(u) onto cos(l t)
    sin(j x): finite and exact in time, the exact half-interval projection
    of the torus expansion in space (even powers of u generate cosine
    content in x whose sine series is infinite; out_lx selects how much of
    it to keep).  The sampling is planned once per shape and class
    (plan_polynomials).
    """
    c = u.coeffs
    plan = plan_polynomials(c.shape, _symmetry_class(c, polys), polys, out_lt, out_lx)
    return [SpectralField(p) for p in planned_polynomials(plan, c, polys)]


def apply_nonlinearity(u, poly, out_lt=None, out_lx=None):
    """Exact sine-basis coefficients of poly(u): apply_polynomials of one polynomial."""
    return apply_polynomials(u, [poly], out_lt, out_lx)[0]


def _sine_projection(A, B, out_lt, out_lx, K, lead=()):
    """Exact sine-basis coefficients up to (out_lt, out_lx) from the torus
    coefficients of its rows l < len(A) <= out_lt + 1; the rows above are
    zero, and so is the part of an A or B that is None.  K is
    _half_projection_matrix(d_x, out_lx), d_x + 1 the columns of A.  lead
    holds the axes of a stack that A and B carry in front."""
    coeffs = np.zeros(lead + (max(out_lt, 1) + 1, out_lx))
    if B is not None:
        coeffs[..., : B.shape[-2], :] = B[..., 1 : out_lx + 1]
    if A is not None:
        coeffs[..., : A.shape[-2], :] += A @ K
    return coeffs


def _interval_integral(A, B):
    """int_0^pi of row 0 of the torus coefficients, A0 + sum_mu [A_mu cos(mu
    x) + B_mu sin(mu x)], mu = 1, 2, ..., None for zero.

    The cosines integrate to zero and sin(mu x) to 2/mu for odd mu, so only
    the mean A0 and the odd sine coefficients enter.
    """
    total = 0.0 if A is None else np.pi * A[0, 0]
    if B is not None:
        mu = np.arange(1, B.shape[1], 2)
        total += 2.0 * np.sum(B[0, mu] / mu)
    return float(total)


def integrate_poly(u, poly):
    """Exact integral of poly(u) over the domain [0,2pi) x (0,pi)."""
    c = u.coeffs
    r, lt, lx = _poly_degree(poly), c.shape[0] - 1, c.shape[1]
    d_x = max(r * lx, 1)
    plan = _sampling(c.shape, _symmetry_class(c, [poly]), (max(r * lt, lt, 1), max(d_x, lx)),
                     d_x, (0,), None, (DENSE_MAX_MADDS, DENSE_MAX_BLOCKS))
    ((A, B),) = _torus_cos_sin(plan, c, [poly])
    return 2.0 * np.pi * _interval_integral(A, B)


def multiply_poly_project(u, poly, z, out_lt=None, out_lx=None):
    """Exact projection of poly(u) * z without truncating poly(u) first.

    poly(u) leaves the sine class, so projecting it and then multiplying would
    lose the tail; sampling poly(u) and z on a common dealiased grid keeps the
    product projection exact.  The oracle of planned_poly_matrix, it runs
    on scipy.fft alone over the whole torus, sharing no fold or dense chain.
    """
    r = _poly_degree(poly)
    d_t = r * u.lt + z.lt
    d_x = r * u.lx + z.lx
    out_lt, out_lx = d_t if out_lt is None else out_lt, d_x if out_lx is None else out_lx
    d = max(d_x, out_lx, 1)
    grid = _grid(max(d_t, 1)), _grid(d)
    vals = _poly_at(_fft_values(u.coeffs, *grid), poly)
    vals *= _fft_values(z.coeffs, *grid)
    A, B = _fft_coeffs(vals, min(out_lt, d_t), d)
    K = _half_projection_matrix(d, out_lx)
    return SpectralField(_sine_projection(A, B, out_lt, out_lx, K))


def _odd_projection(d_x, lx, j):
    """Kd[mu, (j', j)] = (K[|mu - j|, j'] - K[mu + j, j'])/2 at mu <= d_x, K
    = _half_projection_matrix(d_x + lx, lx) on the columns j: the
    projection of the sine part of poly(u) in planned_poly_matrix."""
    K = _half_projection_matrix(d_x + lx, lx)[:, j - 1]
    mu = np.arange(d_x + 1)[:, None]
    return (0.5 * (K[np.abs(mu - j[None, :])] - K[mu + j[None, :]])).reshape(d_x + 1, j.size**2)


def plan_poly_matrix(shape, cls, poly, rows, cols):
    """The plan of the dense matrix of z -> P[poly(u) z] on the entries rows x
    cols of the truncation of the fields u of shape (lt+1, lx) whose poly(u)
    falls in the class cls (_symmetry_class): (sampling, tables, odd), the
    _sampling of poly(u) on the rows t <= 2 lt of the slabs, its tables, and
    whether poly has an odd-degree term.  Run it with planned_poly_matrix.

    rows and cols are integer arrays of rows l <= lt and columns 1 <= j <=
    lx.  The matrix's rows and columns index the entries (rows[r], cols[i]),
    r-major, in the order given; column by column it is the exact projection
    multiply_poly_project computes at u's truncation, read on those entries.
    Writing poly(u) = sum_r cos(r t) sum_mu [A cos(mu x) + B sin(mu x)] and
    halving every index above zero (A^_0 = A_0, A^_r = A_r/2), the time
    direction couples l, l' through A^_{|l-l'|} + A^_{l+l'} (the second
    term only for l >= 1), and the cosine part in x through A^_{|j-j'|} -
    A^_{j+j'}.  The sine part turns sin(j' x) into cosine content, projected
    with _half_projection_matrix; it vanishes unless poly has an odd-degree
    term, because u is odd in x.  So entry ((l, j), (l', j')) is X[|l - l'|]
    + X[l + l'] of the slabs X[t, j, j'], built on cols: the block of the
    rows l = a_r, l' = a_s is X[|a_r - a_s|] + X[a_r + a_s], read by one
    gather over the pairs of rows.

    The tables, built here and read-only, are (half_t, diff, tsum, Kd,
    toeplitz, hankel): the half weights of the rows t <= 2 lt of the slabs;
    the column maps |j - j'| and j + j'; the odd-term projection
    _odd_projection when odd, else None; and the (R, C, R) gather indices,
    R = len(rows), C = len(cols): the Toeplitz |a_r - a_s| C + k and the
    Hankel (a_r + a_s) C + k, or the zero slab's (2 lt + 1) C + k in the
    rows a_r = 0.  They hold 8 (2 lt + 1 + (2 + (d_x + 1) odd) C^2 + 2 R^2
    C) bytes: 9.5 KB and 55 KB on the level-1 frames of u^3 and u^2 at lt =
    lx = 16, 8.2 MB on every entry of lt = lx = 63 for an even f (4032
    unknowns, the largest level-1 frame under search.MAX_UNKNOWNS).  The
    Newton of a level holds its plans (search._Frame), so a Jacobian samples
    poly(u) for the slabs and gathers them.
    """
    lt, lx = shape[0] - 1, shape[1]
    poly = np.asarray(poly, dtype=float)
    r = _poly_degree(poly)
    # resolve the full degree of poly(u), not only the rows and columns used,
    # so that no higher harmonic aliases onto them
    d_x = max(2 * lx, r * lx)
    odd = bool(np.any(poly[1::2] != 0.0))
    a, j = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    ac, k = a * j.size, np.arange(j.size)[:, None]
    tables = (np.where(np.arange(2 * lt + 1) == 0, 1.0, 0.5)[:, None],
              np.abs(j[:, None] - j[None, :]), j[:, None] + j[None, :],
              _odd_projection(d_x, lx, j) if odd else None,
              np.abs(ac - ac[:, None])[:, None] + k,
              np.where(a == 0, (2 * lt + 1) * j.size, ac + ac[:, None])[:, None] + k)
    for table in tables:
        if table is not None:
            table.flags.writeable = False
    sampling = _sampling(shape, cls, (max(2 * lt, r * lt, 1), d_x), d_x, (2 * lt,), None,
                         (DENSE_MAX_MADDS, DENSE_MAX_BLOCKS))
    return sampling, tables, odd


def planned_poly_matrix(plan, c, poly):
    """The matrix of plan_poly_matrix at the field of coefficients c: one
    sampling of poly(u) for the slabs, then the gather.

    c may be a stack of fields of the plan's shape and class (leading
    axes), sampled as one, and the matrices carry the stack's axes; each
    keeps the bits it has alone.  A matrix is returned in Fortran order, the
    layout LAPACK factors, which saves np.linalg.solve a transpose in its
    copy.
    """
    sampling, (half_t, diff, tsum, Kd, toeplitz, hankel), odd = plan
    lead, lt, R, C = c.shape[:-2], c.shape[-2] - 1, toeplitz.shape[0], diff.shape[0]
    ((A, B),) = _torus_cos_sin(sampling, c, [poly])
    # XT[t, j', j] = X[t, j, j'] (the cosine part is symmetric) for t <= 2
    # lt, then the zero slab t = 2 lt + 1; it is -0.0, which added to any x
    # gives x bit for bit, the sign of a zero too
    XT = np.empty(lead + (2 * lt + 2, C, C))
    if A is None:
        XT[..., :-1, :, :] = 0.0
    else:
        Ah = A * half_t                   # every |l - l'| and l + l'
        Ah[..., 1:] *= 0.5
        np.subtract(Ah.take(diff, axis=-1), Ah.take(tsum, axis=-1), out=XT[..., :-1, :, :])
    XT[..., -1, :, :] = -0.0
    if odd and B is not None:
        XT[..., :-1, :, :] += ((B * half_t) @ Kd).reshape(lead + (-1, C, C))
    # the matrix transposed, row (r, i) the entry (a_r, j_i): out[s, k, r,
    # i] = X[|a_r - a_s|, i, k] + X[a_r + a_s, i, k] (the zero slab in the
    # rows a_r = 0), for each (s, k, r) the row t C + k of XT in C columns
    slab_rows = XT.reshape(lead + (-1, C))
    out = np.take(slab_rows, toeplitz, axis=-2)
    out += np.take(slab_rows, hankel, axis=-2)
    return out.reshape(lead + (R * C, R * C)).swapaxes(-1, -2)
