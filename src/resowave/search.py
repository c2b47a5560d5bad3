"""Construction of solution branches: maximize the effective G, then Newton.

The pipeline per dilation level n:

  1. maximize the (q+1)-homogeneous effective G over the unit H^1 sphere of
     reflection-even gcd-1 kernel vectors, odd j only (one safeguarded
     Newton iteration per restart on the sphere, run until the tangential
     gradient or the move on the sphere is at rounding level); G, its
     gradient and its Hessian come from 1D moments and sine and cosine
     coefficients of the powers of the profile eta, the quadratic form's
     Hessian from the complex step of its exact gradient.  Except in the
     quadratic-form cases G does not depend on n, so one maximization
     seeds every level of a branch (LevelMaximizer);
  2. turn the maximum m and mu = |eps| n^2 into the amplitude t* and the
     predicted critical level of the reduced functional;
  3. refine the dilated initial guess t* L_n y* by damped Newton on the
     truncated Galerkin system, kernel and range entries together, from
     w = 0, or where G carries the quadratic form from the range equation's
     first iterate w_1 = L^-1 P_W f(t* L_n y*), off by O(eps) and not O(|v|);
     its kernel rows are -grad Phi_eps and its range rows the range
     equation, so a zero is a critical point v with its w(v).  Each step
     assembles the Jacobian (the wave symbol plus multiplication by f'(u))
     and solves it densely.  The unknowns are the product of the kept rows
     and kept columns of the level's frame (_Frame.lattice): a class of
     fields that holds the guess and that f maps into itself, so the rest
     stays an exact zero and the Jacobian is assembled on the class alone.
     The reflection x -> pi - x keeps the fields even under it (odd m) for
     every f, and these hold y* and so the guess at every odd-f level and
     at the odd even-f levels; for odd f, whose f also keeps the
     checkerboard k + m even fixed by the shift (t, x) -> (t + pi, x + pi)
     of the frame's torus, that leaves the entries with k and m odd, solved
     by one LU.  For even f the solve eliminates the rows k even and then
     the Schur complement on the rows k odd;
  4. assemble u = v + w(v) with its certificates: the Galerkin residual,
     Phi_eps and the energy drift over the level's period, read off one
     evaluation of f and F/u, the sup of the samples, the minimal period.

Steps 3 and 4 run in the level's dilation frame (_Frame), an index map onto
the rows l = n k and, for odd f, the columns j = n m of the level's own field.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import fields, frequency, kernel, nonlinearity, psolve, reduced
from .errors import ConfigError, ConvergenceError, ResonanceError, ResowaveError

__all__ = [
    "SearchDiagnostics",
    "NewtonReport",
    "SolutionRecord",
    "BranchResult",
    "maximize_U",
    "LevelMaximizer",
    "branch_prediction",
    "initial_guess",
    "level_truncation",
    "refine",
    "galerkin_residual",
    "temporal_support_index",
    "involution_partner",
    "build_solution",
    "partner_record",
    "solve_level",
    "solve_branch",
]

RECORD_VERSION = 1
_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)
# the scaled Galerkin residual a converged refinement must reach; a step at
# rounding level with a larger residual does not count as converged
GTOL = 1e-12
_NEWTON_MAX_ITER = 40
# the energy drift across a period that an accepted record may show
DRIFT_TOL = 1e-9
# the Galerkin residual an accepted record may show; GTOL holds converged
# records near 1e-12, so this bar only refuses an unconverged field
RESIDUAL_TOL = 1e-8
# maximize_U: the least curvature a Newton step assumes, relative to the
# row's largest; the longest step on the unit sphere; the evaluations one
# restart may take
HESS_FLOOR = 1e-8
MAX_STEP = 0.5
MAX_EVALUATIONS = 400
# level_truncation: the most Newton unknowns a level may have; the dense
# Jacobian at the cap is 128 MiB and one solve of it takes about a second
MAX_UNKNOWNS = 4096
# maximize_U: the largest sphere and restart count.  At both, u^3 takes
# 1.6 s and 112 MB peak RSS, u^2 47 s and 305 MB (2-core x86 host)
MAX_DIM = 256
MAX_RESTARTS = 64
# maximize_U: the most Hessian entries, rows times (dim/2)^2, of one stacked
# evaluation; the live rows of a round are evaluated in chunks under it.  The
# form's complex-step Hessian takes memory ~ dim^2 per row, and this keeps
# u^2 near 300 MB peak RSS at any restart count: 292 MB with 16 rows at dim
# 128, 305 MB with 4 at dim 256
MAX_HESS_ENTRIES = 2**16


@dataclass
class SearchDiagnostics:
    m_hat: float              # max of the effective G on the unit sphere
    y_star: object            # the sign-normalized maximizer
    restarts: int
    best_restart: int
    iterations: int           # evaluations of the best restart: its draw and every trial
    grad_norm: float          # tangential gradient norm at the maximizer
    restart_values: tuple
    predicted_level: float = None
    predicted_amplitude: float = None


@dataclass
class NewtonReport:
    iterations: int
    converged: bool
    grad_norm: float
    # always 0 since each step is a direct dense solve; kept because the
    # benchmark tracer (perfbench/tracer.py) reads it
    krylov_fails: int = 0
    damped: int = 0


@dataclass
class SolutionRecord:
    """One catalogued periodic solution with its certificates.

    The serialized document carries every field in declaration order but
    outside_theorem, which is in-memory bookkeeping for forced runs below
    the covered dilation range.
    """

    version: int
    omega: float
    eps: float
    gamma: float
    n: int
    q: int
    case: str
    xi: np.ndarray            # kernel coefficients, dilation zeros included
    w_coeffs: np.ndarray      # range-part coefficient matrix
    h1: float
    sup: float
    energy: float
    residual: float
    phi: float
    predicted_level: float
    accepted: bool
    outside_theorem: bool = False

    def as_document(self):
        doc = {name: getattr(self, name) for name in _DOCUMENT_FIELDS}
        for name in _ARRAY_FIELDS:
            doc[name] = np.asarray(doc[name], dtype=float).tolist()
        return doc

    @classmethod
    def from_document(cls, doc):
        if not isinstance(doc, dict):
            raise ResowaveError(f"a record is a JSON object, got {type(doc).__name__}")
        extra = set(doc) - set(_DOCUMENT_FIELDS)
        if extra:
            raise ResowaveError(f"unknown record fields: {sorted(extra)}")
        missing = set(_DOCUMENT_FIELDS) - set(doc)
        if missing:
            raise ResowaveError(f"missing record fields: {sorted(missing)}")
        data = dict(doc)
        for name, least in _INT_FIELDS.items():
            value = data[name]
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ResowaveError(f"record field {name!r} must be an integer >= {least}, "
                                    f"got {value!r}")
        for name in _FLOAT_FIELDS:
            value = data[name]
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):     # not a number, or an int past float
                finite = False
            if not finite:
                raise ResowaveError(f"record field {name!r} must be a finite number, "
                                    f"got {value!r}")
            data[name] = float(value)
        if data["version"] != RECORD_VERSION:
            raise ResowaveError(f"record field 'version' = {data['version']}: this reader "
                                f"knows version {RECORD_VERSION} only")
        lo, hi = frequency.OMEGA_RANGE
        if not lo <= data["omega"] <= hi:
            raise ResowaveError(f"record field 'omega' = {data['omega']} outside [{lo}, {hi}]")
        if data["case"] not in nonlinearity.CASES:
            raise ResowaveError(f"record field 'case' must be one of {nonlinearity.CASES}, "
                                f"got {data['case']!r}")
        if not isinstance(data["accepted"], bool):
            raise ResowaveError(f"record field 'accepted' must be true or false, "
                                f"got {data['accepted']!r}")
        for name, ndim in _ARRAY_FIELDS.items():
            try:
                data[name] = np.asarray(data[name], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ResowaveError(f"record field {name!r} is not a numeric array") from exc
            if data[name].ndim != ndim:
                raise ResowaveError(f"record field {name!r} must be {ndim}-d, "
                                    f"got shape {data[name].shape}")
            if not np.all(np.isfinite(data[name])):   # json reads NaN and Infinity
                raise ResowaveError(f"record field {name!r} has a non-finite entry")
        if data["w_coeffs"].shape[1] < 1:
            raise ResowaveError("record field 'w_coeffs' must have at least one column")
        # a level-n record has its kernel entries at j = n, 2n, ... of xi
        if data["n"] > len(data["xi"]):
            raise ResowaveError(f"record field 'n' = {data['n']} exceeds the "
                                f"{len(data['xi'])} entries of 'xi'")
        return cls(**data)


# the document's keys, in order: every record field but outside_theorem
_DOCUMENT_FIELDS = tuple(
    fd.name for fd in dataclasses.fields(SolutionRecord) if fd.name != "outside_theorem"
)
# the array fields and their dimensions
_ARRAY_FIELDS = {"xi": 1, "w_coeffs": 2}
# the integer fields and their least values, and the float fields
_INT_FIELDS = {"version": 1, "n": 1, "q": 2}
_FLOAT_FIELDS = ("omega", "eps", "gamma", "h1", "sup", "energy", "residual", "phi",
                 "predicted_level")


@dataclass
class BranchResult:
    records: list
    failures: list            # (n, reason) pairs for non-fatal per-n failures


# ---------------------------------------------------------------------------
# step 1: the constrained maximization


def _newton_steps(z, grad, hess, sd):
    """Tangential gradient norms and safeguarded Newton steps on the unit sphere.

    z = sd xi, sd = sqrt(D), puts the H^1 sphere on the unit sphere; grad
    and hess are G's at xi.  On the tangent space z^perp (the Householder
    basis Q that maps z to -+e_1) the Hessian of the Lagrangian,
    Q^T (H_z - (z . g_z) I) Q, is made negative definite row by row: its
    eigenvalues become -max(|lambda|, HESS_FLOOR max|lambda|).  The step
    solves that system against the tangential gradient, so it goes uphill,
    and is shortened to MAX_STEP where it is longer.  Rows never mix.
    """
    gz = grad / sd
    lam = reduced._dot(z, gz)
    tang = gz - lam[:, None] * z
    u = z.copy()
    u[:, 0] += np.where(z[:, 0] < 0.0, -1.0, 1.0)
    Q = np.eye(len(sd))[:, 1:] - (2.0 / reduced._dot(u, u))[:, None, None] * u[:, :, None] * u[:, None, 1:]
    A = np.swapaxes(Q, 1, 2) @ (hess / np.outer(sd, sd)) @ Q
    ev, V = np.linalg.eigh(A - lam[:, None, None] * np.eye(len(sd) - 1))
    mod = np.maximum(np.abs(ev), HESS_FLOOR * np.max(np.abs(ev), axis=1, initial=0.0)[:, None])
    QV = Q @ V
    step = (QV @ (reduced._vecmat(tang, QV) / mod)[:, :, None])[:, :, 0]
    length = np.sqrt(reduced._dot(step, step))
    with np.errstate(over="ignore"):  # an overflow is inf, which the caller refuses
        tnorm = np.sqrt(reduced._dot(tang, tang))
    return tnorm, step * np.minimum(1.0, MAX_STEP / np.maximum(length, MAX_STEP))[:, None]


def _check_sphere(who, dim, restarts):
    """Refuse a sphere or a restart count above MAX_DIM or MAX_RESTARTS."""
    if not (1 <= dim <= MAX_DIM and 1 <= restarts <= MAX_RESTARTS):
        raise ConfigError(f"{who} needs 1 <= dim <= MAX_DIM = {MAX_DIM} and 1 <= restarts "
                          f"<= MAX_RESTARTS = {MAX_RESTARTS}, got {dim} and {restarts}")


def maximize_U(recipe, dim, seed=0, restarts=16):
    """Maximum of the effective G over the unit H^1 sphere of the
    reflection-even kernel vectors in dimension dim.

    Returns (y_star, m_hat, diagnostics) with y_star sign-normalized, of
    length dim.  The scale invariance U(v) = G(v)/|v|^(q+1) makes this
    equivalent to maximizing U; m_hat is what the amplitude and level
    formulas consume.  The coordinates are xi_j at the odd j <= dim (the
    recipe's y), the vectors even under x -> pi - x, and every even entry
    of y_star is an exact zero.  G is even under the reflection, so by the
    principle of symmetric criticality a critical point on that sphere is
    one on the whole sphere; that the maximum is the whole sphere's is
    checked against an unrestricted ascent in the tests.  With dim <= 2 the
    sphere is the point +-e_1.
    Each restart, drawn with coefficients of size 1/j^2, is one safeguarded
    Newton iteration on the sphere (_newton_steps), its step retracted by
    normalizing.  A trial gains when its value is higher or, where the
    value cannot resolve a gain, equal to rounding with a smaller
    tangential gradient; a trial that does not gain is halved.  A restart
    ends when the tangential gradient is at most 1e-13 max(1, |G|), when
    the halved move on the sphere is below rounding, or after
    MAX_EVALUATIONS evaluations.  The restarts advance in lock-step rounds
    of stacked recipe.hess calls (value, gradient and Hessian at the trial
    point of every live row), each of at most MAX_HESS_ENTRIES Hessian
    entries, so the working set does not grow with restarts; rows do not
    mix, so each restart takes the steps it takes alone.  Every
    restart reaches the same maximum to rounding, so the best restart is
    the first whose value is within 1e-12 relative of the largest: the
    winner does not turn on the last bit.  Raises when the best value is
    not positive (no branch on this side) or G, its gradient, its Hessian
    or the gradient's norm is not finite.
    """
    _check_sphere("maximize_U", dim, restarts)

    def finite(*arrays):
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ResowaveError("effective G is not finite; a coefficient is out of range")
        return arrays

    def evaluate(z):
        # an overflow is inf and inf - inf is nan, which finite refuses
        with np.errstate(over="ignore", invalid="ignore"):
            chunks = [recipe.hess(z[i : i + chunk] / sd) for i in range(0, len(z), chunk)]
            value, grad, hess = finite(*(np.concatenate(parts) for parts in zip(*chunks)))
        return (value, *finite(*_newton_steps(z, grad, hess, sd)))

    def unit(z):
        return z / np.sqrt(reduced._dot(z, z))[:, None]

    j = np.arange(1, dim + 1, 2)
    sd = np.pi * j  # the H^1 norm is |sd y|
    chunk = max(1, MAX_HESS_ENTRIES // j.size**2)
    rng = np.random.default_rng(seed)
    z = unit(rng.standard_normal((restarts, j.size)) / j)
    val, tnorm, step = evaluate(z)
    t, iters = np.ones(restarts), np.ones(restarts, dtype=int)
    live = tnorm > 1e-13 * np.maximum(1.0, np.abs(val))
    while True:
        # a halved move below rounding on the unit sphere ends the restart
        live &= (iters < MAX_EVALUATIONS) & (t * np.sqrt(reduced._dot(step, step)) > 1e-16)
        r = np.flatnonzero(live)
        if not r.size:
            break
        cand = unit(z[r] + t[r, None] * step[r])
        cval, ctnorm, cstep = evaluate(cand)
        iters[r] += 1
        up = (cval > val[r]) | ((cval >= val[r] - 4.0 * _EPS * np.abs(val[r])) & (ctnorm < tnorm[r]))
        k = r[up]
        z[k], val[k], tnorm[k], step[k], t[k] = cand[up], cval[up], ctnorm[up], cstep[up], 1.0
        live[k] = tnorm[k] > 1e-13 * np.maximum(1.0, np.abs(val[k]))
        t[r[~up]] *= 0.5
    best = int(np.flatnonzero(val >= np.max(val) - 1e-12 * np.abs(np.max(val)))[0])
    if val[best] <= 0.0:
        raise ResowaveError("effective G is nonpositive on the sphere; "
                            "branch infeasible on this side")
    xi = np.zeros(dim)
    xi[::2] = z[best] / sd
    y = kernel.normalize_sign(kernel.KernelVector(xi))
    diag = SearchDiagnostics(
        m_hat=float(val[best]),
        y_star=y,
        restarts=restarts,
        best_restart=best,
        iterations=int(iters[best]),
        grad_norm=float(tnorm[best]),
        restart_values=tuple(val.tolist()),
    )
    return y, diag.m_hat, diag


class LevelMaximizer:
    """The maximizer (y*, m, diagnostics) that seeds each level of a branch.

    One instance serves one f on both sides of omega = 1, at any omega,
    since G does not depend on it.  Each maximum is kept under what G
    depends on: the side for a recipe whose G does not depend on the level
    (n_invariant), maximized with seed itself, and the side and n for the
    quadratic-form recipes, which carry the 1/n^2 transport, maximized with
    seed + 1000 n.  Each key is maximized once, at the first call that asks
    for it, and every later call reuses that (y*, m), or the refusal when G
    has no positive value there; so a scan maximizes each level once, not
    at every frequency.  Every call returns its own copy of the
    diagnostics, because initial_guess writes into them.
    A sphere or restart count above its cap raises ConfigError here, once,
    and not at every level of a branch.
    """

    def __init__(self, dim, seed=0, restarts=16):
        _check_sphere("LevelMaximizer", dim, restarts)
        self.dim = dim
        self.seed = seed
        self.restarts = restarts
        self._found = {}          # (side,) or (side, n) -> (y*, m, diagnostics) or the refusal

    def __call__(self, recipe):
        key = (recipe.side,) if recipe.n_invariant else (recipe.side, recipe.n)
        if key not in self._found:
            seed = self.seed if recipe.n_invariant else self.seed + 1000 * recipe.n
            try:
                self._found[key] = maximize_U(recipe, self.dim, seed=seed, restarts=self.restarts)
            except ResowaveError as exc:
                self._found[key] = exc
        found = self._found[key]
        if isinstance(found, ResowaveError):
            raise found
        y, m, diag = found
        return y, m, dataclasses.replace(diag)


# ---------------------------------------------------------------------------
# step 2: amplitude and level predictions


def branch_prediction(m_value, q, eps, n):
    """Amplitude t*, critical level, and H^1 size of the level-n solution.

    For psi(t) = (mu/2) t^2 - m t^(q+1) with mu = |eps| n^2 the nontrivial
    critical point and its value are explicit; the H^1 prediction is n t*
    because the dilation multiplies the norm of a unit vector by n.  Raises
    unless m > 0 and t* and the level are finite (an extreme coefficient).
    """
    if m_value <= 0.0:
        raise ResowaveError("effective G must be positive along the branch")
    mu = abs(eps) * n * n
    t_star = (mu / ((q + 1) * m_value)) ** (1.0 / (q - 1))
    try:
        level = 0.5 * (q - 1) * m_value * t_star ** (q + 1)
    except OverflowError:
        level = math.inf
    if not math.isfinite(level):  # also when t* is infinite
        raise ResowaveError("amplitude or level is not finite; a coefficient is out of range")
    return t_star, level, n * t_star


def initial_guess(y_star, m_value, recipe, ctx, diagnostics=None):
    """Dilated, amplitude-scaled starting vector t* L_n y* for the Newton."""
    t_star, level, _ = branch_prediction(m_value, recipe.q, ctx.eps, recipe.n)
    if diagnostics is not None:
        diagnostics.predicted_amplitude = t_star
        diagnostics.predicted_level = level
    scaled = kernel.KernelVector(t_star * y_star.xi)
    return kernel.rescale(scaled, recipe.n), level


# ---------------------------------------------------------------------------
# step 3: Newton refinement of the truncated Galerkin system


@dataclass(frozen=True)
class _Frame:
    """The lattice of level n: frame entry (k, m) is the mode (l, j) = (n k, d m).

    A level-n field is u(t, x) = U(n t, d x), with d = n when f has no
    even-order term and d = 1 otherwise (an even power leaves the sine class
    in x).  So F_u(n k, d m) is F(U) with the level's f and the symbol j^2 -
    omega^2 l^2 read at (n k, d m), and F_u has no other nonzero entry.
    The Newton unknowns are the product of the kept rows k (odd_rows: k odd
    only) and the kept columns m (odd_cols: m odd only), a class of fields
    that holds the guess and that U -> P f(U) maps into itself, so that a
    Newton step leaves every other entry an exact zero.  F(U) has no entry
    outside the class for U in it, so a zero of the kept rows is a zero of
    the whole Galerkin system.
    """
    n: int
    d: int
    f: object     # the level's nonlinearity
    odd_rows: bool = False
    odd_cols: bool = False

    def symbol(self, lt, lx, omega):
        """j^2 - omega^2 l^2 at the modes (n k, d m) of the (lt+1, lx) frame."""
        l = self.n * np.arange(lt + 1, dtype=float)[:, None]
        return (self.d * np.arange(1, lx + 1, dtype=float)) ** 2 - omega**2 * l**2

    def kernel(self, u, lx):
        """The diagonal j = n k = d m <= lx of the dilated frame field u."""
        xi = np.zeros(lx)
        k = np.arange(1, lx // self.n + 1)
        xi[self.n * k - 1] = u.coeffs[k, (self.n // self.d) * k - 1]
        return kernel.KernelVector(xi)

    def lattice(self, lt, lx):
        """The Newton unknowns of the (lt+1, lx) frame: (rows, cols, flat).

        rows lists the kept rows k, the even ones first, and cols the kept
        columns m, ascending; the unknowns are the entries (rows[r],
        cols[i]), r-major, at the flat indices k lx + m - 1 of flat.  An LU
        eliminates in this order, so the order is part of the results, and
        a solve can eliminate the rows k even before the odd ones at a
        single boundary.
        """
        k = np.arange(lt + 1)
        rows = k[1::2] if self.odd_rows else np.concatenate([k[0::2], k[1::2]])
        cols = np.arange(1, lx + 1, 2 if self.odd_cols else 1)
        return rows, cols, (rows[:, None] * lx + cols - 1).ravel()


def _dilation_frame(f, n, v=None):
    """The frame of level n of f: d = n for f without even-order terms, else
    d = 1.

    The frame keeps only the reflection-even columns m odd, the fields even
    under X -> pi - X, when every kernel entry j of the guess v sits at an
    odd frame column j/d; without v, when the guess t* L_n y* of a
    reflection-even y* does, whose kernel starts at j = n.  That is every
    level for odd f and the odd levels for even f.  f(U) is even under the
    reflection when U is, for every f.  For odd f, whose f(U) also keeps
    the checkerboard k + m even (the fields fixed by the frame's shift (T,
    X) -> (T + pi, X + pi)), the reflection-even frame keeps the rows k odd
    only as well.  Otherwise every frame entry is kept.
    """
    odd = not np.any(f.poly[::2])
    d = n if odd else 1
    j = np.flatnonzero(v.xi) + 1 if v is not None else np.array([n])
    reflection = bool(np.all(j // d % 2 == 1))
    return _Frame(n, d, f, odd and reflection, reflection)


def level_truncation(ctx, f, n, reach, lt=None, lx=None, v=None):
    """The truncation (lt, lx) of dilation level n, checked before any work.

    reach is the length of the level's guess: len(v) for a guess v, else n
    dim for t* L_n y*, and a refusal names it so.  The keys given must
    satisfy reach <= lx <= lt <= ctx.L; a missing lt is min(L, max(2 reach,
    16, lx)) and a missing lx is lt, which keeps the chain.  The Newton
    unknowns are counted from the shape and parity class of the level's
    frame (_dilation_frame, of v when it is given): the rows k <= lt/n,
    only the odd ones with odd_rows, times the columns m <= lx/d, only the
    odd ones with odd_cols.  Raises ResonanceError on a resonant context,
    then ConfigError naming the first key out of order, or when the
    unknowns are more than MAX_UNKNOWNS.
    """
    if ctx.gamma <= 0.0:
        raise ResonanceError(omega=ctx.omega)
    chain = [("n * dim" if v is None else "len(v)", reach), ("lx", lx), ("lt", lt), ("lmax", ctx.L)]
    chain = [c for c in chain if c[1] is not None]
    for (low_name, low), (key, val) in zip(chain, chain[1:]):
        if val < low:
            raise ConfigError(f"config key {key!r} must be >= {low_name} = {low}, got {val!r}")
    lt = min(ctx.L, max(2 * reach, 16, lx or 0)) if lt is None else lt
    lx = lt if lx is None else lx
    frame = _dilation_frame(f, n, v)
    rows, cols = lt // n + 1, lx // frame.d
    unknowns = (rows // 2 if frame.odd_rows else rows) * ((cols + 1) // 2 if frame.odd_cols else cols)
    if unknowns > MAX_UNKNOWNS:
        raise ConfigError(f"refinement truncation lt={lt}, lx={lx} has {unknowns} Newton "
                          f"unknowns, above MAX_UNKNOWNS = {MAX_UNKNOWNS}")
    return lt, lx


def _galerkin_F(u, ctx, frame):
    """F(u) = symbol * u + P f(u) on the frame field u: the level's F at the frame's modes."""
    fu = fields.apply_nonlinearity(u, frame.f.poly, out_lt=u.lt, out_lx=u.lx)
    return fu.coeffs + frame.symbol(u.lt, u.lx, ctx.omega) * u.coeffs


def _range_resonance(frame, keep, lx, sym, rows):
    """Refuse a range unknown (n k != d m) with |symbol| < RESONANCE_TOL whose
    row of the matrix rows, one row per unknown in frame.lattice order, is
    nonzero.

    Raises ResonanceError naming the mode and omega^2 l^2 - j^2 of the first
    such unknown, row-major, as psolve.apply_L_inv does; else returns the
    mask of the range unknowns that are not resonant.
    """
    l, j = divmod(keep, lx)
    l, j = frame.n * l, frame.d * (j + 1)
    small = np.abs(sym) < psolve.RESONANCE_TOL
    resonant = np.flatnonzero((l != j) & small)
    present = resonant[np.any(rows[resonant] != 0.0, axis=1)]
    if present.size:
        e = present[np.argmin(keep[present])]   # the lowest mode, row-major
        raise ResonanceError(int(l[e]), int(j[e]), -sym[e])
    return (l != j) & ~small


def _galerkin_jacobian(u, ctx, frame):
    """The Jacobian diag(symbol) + M of _galerkin_F on the unknowns, in
    frame.lattice order.

    M is the matrix of z -> P[f'(u) z] on the kept rows and columns of the
    frame; the entries the frame drops are not unknowns and have no row or
    column.  A resonant range unknown with a nonzero row of M raises
    ResonanceError (_range_resonance).
    """
    lt, lx = u.lt, u.lx
    rows, cols, keep = frame.lattice(lt, lx)
    sym = frame.symbol(lt, lx, ctx.omega).ravel()[keep]
    J = fields.multiply_poly_matrix(u, frame.f.fprime, rows, cols)
    _range_resonance(frame, keep, lx, sym, J)
    J[np.diag_indices_from(J)] += sym
    return J


def _newton_solve(J, rhs, split):
    """x with J x = rhs: block elimination over the unknowns [:split] and
    [split:] when both are nonempty, else one LU of J.

    refine splits at the boundary of the frame rows k even and k odd
    (_Frame.lattice lists the even rows first).  With J = [[A, B],
    [C, D]] in those classes, one LU of A gives A^-1 [B, rhs[:split]], one
    LU of the Schur complement D - C A^-1 B gives x[split:], and x[:split]
    follows.  The coupling blocks B and C are kept, so the step is exact
    for any J; only the factored sizes shrink.
    """
    if not 0 < split < len(rhs):
        return np.linalg.solve(J, rhs)
    A, B = J[:split, :split], J[:split, split:]
    C, D = J[split:, :split], J[split:, split:]
    Y = np.linalg.solve(A, np.column_stack([B, rhs[:split]]))
    x2 = np.linalg.solve(D - C @ Y[:, :-1], rhs[split:] - C @ Y[:, -1])
    return np.concatenate([Y[:, -1] - Y[:, :-1] @ x2, x2])


def refine(v0, ctx, f, lt=None, lx=None):
    """Damped Newton on the truncated Galerkin system, from the dilated guess.

    The unknowns are the entries of the (lt, lx) truncation that the level's
    dilation frame keeps (_Frame), kernel (l = j) and range alike.  The
    residual is (pi^2/2) F(u), F(u) = (j^2 - omega^2 l^2) u + P f(u); its
    kernel rows are exactly -grad Phi_eps and its range rows the range
    equation, so a zero is a critical point v with its w(v).  The Newton
    starts from u = v0 (w = 0), except where G carries the quadratic form
    (reduced._uses_qform: n2, and n3 with b < 0).  There the leading term
    of the reduced functional is built from the range equation's first
    iterate w_1(v) = L^-1 P_W f(v), and w = 0 is off by O(|v|); so the
    range unknowns (n k != d m) are set to -P f(v0)/symbol, read off the
    guess's F, and the Newton starts from v0 + w_1(v0), off by O(eps).
    That range step is the first sweep of psolve.solve_P: it leaves the
    kernel entries as they are, costs one more evaluation of F, is not
    counted as an iteration, and refuses a resonant range unknown with a
    nonzero entry of P f(v0) as the Jacobian does (_range_resonance).
    Elsewhere w_1(v0) is the size of the guess's own error in the kernel
    and saves no step.  The Newton runs on the frame field, written once at
    its modes (n k, d m), the rest exact zeros, where it reads F unscaled:
    the certified range is l = n k <= lt <= L.  The unknowns are the product of
    the rows and columns the frame keeps (_Frame.lattice, read off v0 by
    _dilation_frame): for odd f the entries k and m odd, fixed by the
    frame's torus shift and even under X -> pi - X; for even f every entry,
    or at odd levels those with m odd; every entry for a guess that is not
    reflection-even.  A Newton step moves no other entry, which stays an
    exact zero, and the residual is measured on every entry.  Each step
    assembles the Jacobian on the unknowns once (_galerkin_jacobian) and
    solves it densely (_newton_solve) split at the count of unknowns in the
    rows k even: one LU where the unknowns have one row parity (odd f),
    else block elimination, the rows k even and then the Schur complement
    on the rows k odd.  So at a 17 x 16 level-1 frame no LU
    reaches the 100 or so unknowns from which numpy's OpenBLAS wakes a
    second thread that spins through the rest of the pass: 64 for odd f,
    72 and 64 for even f.  Each line-search trial costs one
    apply_nonlinearity.  The iteration stops when the last full step was
    at rounding level and the residual is at most GTOL; the second test is
    a safety check, since a settled step with a large residual is not a
    solution.  When an iterate's kernel part, read off the frame field
    (_Frame.kernel), leaves the contraction domain (psolve.contraction_domain
    above psolve.DOMAIN_RHO) the refinement aborts rather than report a
    solution the existence argument does not cover.  The guard reads
    coefficients only and runs once per iterate; it reads the guess before
    F is first evaluated, so a refused guess samples nothing, takes no range
    step and leaves an empty trace.  The truncation is level_truncation's
    for the guess v0 (reach len(v0)): defaults, the chain len(v0) <= lx <=
    lt <= ctx.L and the MAX_UNKNOWNS cap, which raise ConfigError, and a
    resonant context, which raises ResonanceError, before anything is
    sampled.
    """
    n = kernel.minimal_time_period_index(v0)
    lt, lx = level_truncation(ctx, f, n, len(v0), lt, lx, v0)
    frame = _dilation_frame(f, n, v0)
    k = np.arange(1, len(v0) // n + 1)   # v0's entries j = n k, at frame column j/d
    c = np.zeros((lt // n + 1, lx // frame.d))
    c[k, (n // frame.d) * k - 1] = v0.xi[n * k - 1]
    u = fields.SpectralField(c)
    trace = []

    def guard(u):
        if psolve.contraction_domain(frame.kernel(u, lx), ctx, f) > psolve.DOMAIN_RHO:
            raise ConvergenceError("iterate left the contraction domain during refinement",
                                   trace=tuple(trace))

    guard(u)
    rows, cols, keep = frame.lattice(u.lt, u.lx)
    # the lattice lists the unknowns of the rows k even first
    split = int(np.count_nonzero(rows % 2 == 0)) * cols.size
    scale = 0.5 * np.pi**2
    F = _galerkin_F(u, ctx, frame)
    if reduced._uses_qform(f):
        # the range unknowns, zero in u, read P f(v0) off F: start at v0 + w_1(v0)
        sym = frame.symbol(u.lt, u.lx, ctx.omega).ravel()[keep]
        fv = F.flat[keep]
        safe = _range_resonance(frame, keep, u.lx, sym, fv[:, None])
        c.flat[keep[safe]] = -fv[safe] / sym[safe]
        u = fields.SpectralField(c)
        F = _galerkin_F(u, ctx, frame)
    gnorm = scale * float(np.linalg.norm(F))
    report = NewtonReport(iterations=0, converged=False, grad_norm=np.inf)
    settled = False

    for it in range(_NEWTON_MAX_ITER + 1):
        report.iterations = it
        report.grad_norm = gnorm
        trace.append(gnorm)
        if gnorm <= GTOL and settled:
            report.converged = True
            break
        if it == _NEWTON_MAX_ITER:
            raise ConvergenceError("Newton refinement did not converge", trace=tuple(trace))
        if it:
            guard(u)

        J = _galerkin_jacobian(u, ctx, frame)
        delta = np.zeros(F.shape)
        try:
            delta.flat[keep] = _newton_solve(J, -F.flat[keep], split)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Newton Jacobian", trace=tuple(trace)) from exc

        t = 1.0
        while t >= 1e-6:
            u_c = fields.SpectralField(u.coeffs + t * delta)
            F_c = _galerkin_F(u_c, ctx, frame)
            gn_c = scale * float(np.linalg.norm(F_c))
            if gn_c < gnorm * (1.0 - 1e-4 * t) or gn_c <= GTOL:
                u, F, gnorm = u_c, F_c, gn_c
                if t < 1.0:
                    report.damped += 1
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "Newton refinement stalled without reaching the tolerance",
                trace=tuple(trace + [gnorm]),
            )
        step = float(np.max(np.abs(t * delta)))
        # Newton converges quadratically, so a full step below sqrt(machine
        # eps) relative leaves an error at rounding level behind it
        settled = t == 1.0 and step <= _SQRT_EPS * float(np.max(np.abs(u.coeffs)))

    w = np.zeros((lt + 1, lx))
    w[::n, frame.d - 1 :: frame.d] = u.coeffs
    np.fill_diagonal(w[1:], 0.0)
    return frame.kernel(u, lx), fields.SpectralField(w), report


# ---------------------------------------------------------------------------
# step 4: assembly and certification


def _certify(U, ctx, frame):
    """Residual, Phi_eps, probe energies and drift of u(t, x) = U(n t, d x), from one sampling.

    f and g = F/u (F(0) = 0) are projected exactly on the columns m <= lx,
    f on the rows k <= lt that the residual and Phi read and g on every row
    k <= r lt it reaches (r = deg f).  As U lies in the truncation, int F(U)
    = <P g(U), U>, so each certificate is exact, read at u's modes (n k, d
    m).  The residual is _galerkin_F's, Phi_eps = (eps/2) |v|_H1^2 +
    (1/2)<P f(u), w> - <P g(u), u> with v on the entries n k = d m, and the
    energy at the frame probe T = 2 pi k/9 (t = T/n: over the level's
    period) is (pi/4) sum_m [(omega n)^2 b_m^2 + (d m)^2 a_m^2 + 2 a_m g_m],
    with a, b the sine coefficients of U, U_T there and g_m = sum_k P
    g(U)[k, m] cos(k T).
    """
    lt, lx = U.lt, U.lx
    fu, gu = (p.coeffs for p in fields.apply_polynomials(
        U, [frame.f.poly, frame.f.primitive[1:]], out_lt=[lt, None], out_lx=lx))
    u = U.coeffs
    R = fu[: lt + 1] + frame.symbol(lt, lx, ctx.omega) * u
    cl = fields.temporal_weights(lt)[:, None]
    res = float(np.sqrt(0.5 * np.pi**2 * np.sum(cl * R * R)))
    j2 = (frame.d * np.arange(1, lx + 1, dtype=float)) ** 2
    v = np.where(frame.n * np.arange(lt + 1)[:, None] == frame.d * np.arange(1, lx + 1), u, 0.0)
    phi = 0.5 * np.pi**2 * float(np.sum(
        cl * (ctx.eps * j2 * v * v + 0.5 * fu[: lt + 1] * (u - v) - gu[: lt + 1] * u)))
    phase = np.outer(2.0 * np.pi * np.arange(9) / 9, np.arange(gu.shape[0]))  # k T
    cos = np.cos(phase)
    a = cos[:, : lt + 1] @ u
    b = (np.sin(phase[:, : lt + 1]) * -np.arange(lt + 1)) @ u
    energies = 0.25 * np.pi * np.sum((ctx.omega * frame.n) ** 2 * b * b
                                     + j2 * a * a + 2.0 * a * (cos @ gu), axis=1)
    return res, phi, energies, float(np.ptp(energies) / max(np.max(np.abs(energies)), 1e-30))


def galerkin_residual(v, w, ctx, f):
    """Weighted l2 norm of the equation residual on the solve truncation."""
    return _certify(kernel.embed(v) + w, ctx, _Frame(1, 1, f))[0]


def _support_index(c, n=1):
    """n times the gcd of the rows k >= 1 of c above 1e-9 of its largest entry."""
    peak = np.max(np.abs(c), axis=1)
    rows = np.flatnonzero(peak[1:] > 1e-9 * peak.max()) + 1
    return n * int(np.gcd.reduce(rows)) if rows.size else 0


def temporal_support_index(v, w):
    """Largest n with all temporal frequencies of v + w in n Z; rows below
    1e-9 of the largest coefficient count as empty."""
    return _support_index((kernel.embed(v) + w).coeffs)


def involution_partner(u):
    """The companion solution u(t + pi, pi - x), in coefficients (-1)^(l+j+1)."""
    l = np.arange(u.lt + 1)[:, None]
    j = np.arange(1, u.lx + 1)[None, :]
    # + 0.0 turns the flipped zeros -0.0 back into 0.0, so a double application keeps every bit
    return fields.SpectralField(u.coeffs * (-1.0) ** (l + j + 1) + 0.0)


def build_solution(v, w, ctx, f, recipe, predicted_level, newton=None,
                   outside_theorem=False):
    """Assemble the certified record for a refined critical point.

    Of recipe only n, q and case are read, so a record serves as well; the
    certificates, sup and the support index are read off the level's frame
    field.  Acceptance
    asks a residual at most RESIDUAL_TOL, a drift at most DRIFT_TOL, and a
    critical level of the predicted size: a level a thousand times below it
    means the refinement found the trivial solution.
    """
    frame = _dilation_frame(f, recipe.n)
    u = (kernel.embed(v) + w).coeffs
    if np.count_nonzero(u[:: frame.n, frame.d - 1 :: frame.d]) < np.count_nonzero(u):
        frame = _Frame(1, 1, f)  # an entry off the frame: certify the whole field
    U = fields.SpectralField(u[:: frame.n, frame.d - 1 :: frame.d])
    res, phi_val, energies, drift = _certify(U, ctx, frame)
    n_obs = _support_index(U.coeffs, frame.n)
    accepted = (
        res <= RESIDUAL_TOL
        and drift <= DRIFT_TOL
        and (newton is None or newton.converged)
        and n_obs == recipe.n
        and abs(phi_val) >= 1e-3 * abs(predicted_level)
    )
    return SolutionRecord(
        version=RECORD_VERSION,
        omega=float(ctx.omega),
        eps=float(ctx.eps),
        gamma=float(ctx.gamma),
        n=int(recipe.n),
        q=int(recipe.q),
        case=recipe.case,
        xi=v.xi.copy(),
        w_coeffs=w.coeffs.copy(),
        h1=float(v.h1()),
        sup=fields.sup_norm(U),
        energy=float(energies[0]),
        residual=res,
        phi=float(phi_val),
        predicted_level=float(predicted_level),
        accepted=bool(accepted),
        outside_theorem=bool(outside_theorem),
    )


def partner_record(record, f):
    """Record of the companion solution u(t + pi, pi - x).

    The involution flips kernel coefficients and the odd checkerboard of the
    range part; all certificates are recomputed from the transformed pair, so
    applying this twice reproduces the original record bit for bit.
    """
    v = kernel.KernelVector(np.asarray(record.xi, dtype=float))
    w = fields.SpectralField(np.asarray(record.w_coeffs, dtype=float))
    u = kernel.embed(v) + w
    pu = involution_partner(u)
    pv = kernel.KernelVector(fields.diagonal_of(pu)[: len(v)])
    pw = fields.zero_diagonal(pu)
    # carry omega, eps, gamma through unchanged so a double application
    # restores every field of the original record exactly
    ctx = frequency.FrequencyContext(
        omega=record.omega, eps=record.eps, gamma=record.gamma,
        L=max(w.lt, 2),
    )
    return build_solution(
        pv, pw, ctx, f, record, record.predicted_level,
        outside_theorem=record.outside_theorem,
    )


def solve_level(ctx, f, n, maximizer, lt=None, lx=None):
    """The certified record of dilation level n: steps 1-4 of the pipeline.

    The side of omega = 1 is the one ctx.omega is on; maximizer is the
    LevelMaximizer shared by every level of f.  The truncation is sized
    first, by level_truncation with reach n * maximizer.dim, so a level it
    refuses (ConfigError; ResonanceError at gamma = 0) is never maximized,
    and refine gets the resolved (lt, lx).  Admissibility is the caller's to
    check, and g_recipe refuses a side the case does not bifurcate to.  A
    level below the case's minimal index is flagged outside_theorem.  Raises
    ResowaveError (ConvergenceError when the refinement fails).
    """
    lt, lx = level_truncation(ctx, f, n, n * maximizer.dim, lt, lx)
    recipe = reduced.g_recipe(f, 1 if ctx.omega > 1.0 else -1, n=n)
    y_star, m_val, diag = maximizer(recipe)
    v0, level = initial_guess(y_star, m_val, recipe, ctx, diag)
    v, w, rep = refine(v0, ctx, f, lt=lt, lx=lx)
    return build_solution(v, w, ctx, f, recipe, level, newton=rep,
                          outside_theorem=n < frequency.minimal_n(f))


def solve_branch(ctx, f, n_max=None, C=frequency.DEFAULT_C, dim=8, seed=0,
                 restarts=16, force_n_min=None):
    """One record per admissible dilation level; deterministic under seed.

    Levels run from the case's minimal n (or force_n_min, flagging records
    below the covered range) to n_max or the admissibility cap.  A forced
    level below the minimal n needs no admissibility check of its own: a
    nonzero cap means the minimal level passes the side and smallness
    tests, and neither gets harder as n decreases.  Each level is one
    solve_level with the LevelMaximizer of the branch: one maximization,
    drawn from seed, serves every level unless G carries the quadratic
    form, whose levels are maximized one by one with seed + 1000 n.
    Per-level failures are collected, not fatal, a level whose truncation
    level_truncation refuses among them, with the message a single level
    gets and without a maximization; a dim or restarts above its cap is no
    level's failure and raises ConfigError once.  A zero non-resonance
    margin admits no level (frequency.admissible), so no level runs.
    """
    cap = frequency.max_admissible_n(ctx, f, C=C)
    n_max = cap if n_max is None else min(n_max, cap)
    start = frequency.minimal_n(f) if force_n_min is None else force_n_min
    maximizer = LevelMaximizer(dim, seed=seed, restarts=restarts)
    records = []
    failures = []
    for n in range(start, n_max + 1):
        try:
            records.append(solve_level(ctx, f, n, maximizer))
        except ResowaveError as exc:
            failures.append((n, str(exc)))
    return BranchResult(records=records, failures=failures)
