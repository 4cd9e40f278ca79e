"""Leapfrog time integration with boundary elimination.

The semi-discrete system is M u'' + D u' + K u = 0 with the normal-trace
values g prescribed on the boundary dofs.  The lumped rule's points are
the mass-block nodes, so the lumped damping form is D = Lambda M with
Lambda = diag(d) holding the coefficient at each dof's node
(``DofMap.nodal_values``).  Lambda is constant on a mass block, so it
commutes with M, and on the free dofs

    M_FF (u'' + d u') + K_FF u = -f,    f = K_FB g + M_FB (g'' + d_B g')

Time derivatives of g are replaced by centered differences so the whole
scheme is second order.  With the load l^n = K_FF u^n + f^n one step is

    u^{n+1} = (2 u^n - (1 - d tau/2) u^{n-1} - tau^2 M_FF^{-1} l^n)
              / (1 + d tau/2)

with d the per-dof vector of the coefficient at each dof's node (a
constant damping is the field of that one value).
f^n is [K_FB | M_FB] [g; g'' + d_B g'] (``Constraint.boundary``), taken
over the touched rows only: the free dofs coupled to a boundary dof (736
of 6,016 on structured-quad level 2).  The other rows of the load are
K_FF u itself.  Zero data (a sound-hard boundary) gives f = +0.0.
g does not depend on u: it is evaluated, and f formed in one product,
for CHUNK time levels at once.  That window, (trace, tau, n0, G, F)
tagged by the solver's boundary trace, rides on the state a step
returns, and a step adds its row of f to K_FF u.

``advance`` is the one stepping loop (``step`` is ``advance`` by one).
It builds only the state it returns, so a run advances straight to each
state it reads; each step allocates its new level, and no level buffers
rotate.  Both products go through ``assembly._matvec``, which skips the
Python of scipy's ``@``, a sixth of a small mesh's step.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import BlockSolver, DofMap, _matvec, cell_forms, constrain


# max |u| beyond which a step counts as blown up
BLOWUP = 1e8

# time levels of boundary data evaluated, and forced, per window refill
CHUNK = 64

# stable_tau's safety factor, also the one a given tau is certified
# against
SAFETY = 0.9


def _zero_field(points: np.ndarray, t) -> np.ndarray:
    """The boundary data of a sound-hard boundary."""
    return np.zeros_like(points)


class InstabilityError(RuntimeError):
    """Raised when the iterate blows up; ``cause`` names what to reduce
    (the time step, or damping * tau when the damped start blew up)."""

    def __init__(self, step: int, norm: float, cause: str = "the time step"):
        super().__init__(
            f"non-finite or exploding solution (max |u| = {norm:.3e}) at "
            f"step {step}; reduce {cause}")
        self.step = step
        self.norm = norm


def _check_blowup(u: np.ndarray, step: int,
                  cause: str = "the time step") -> None:
    """Raise InstabilityError if max |u| exceeds BLOWUP or is not finite.

    max and min bound |u| exactly and make no temporary, which np.abs
    would; a NaN makes both NaN and fails the comparison.
    """
    nrm = max(u.max(), -u.min())
    if not nrm <= BLOWUP:
        raise InstabilityError(step, float(nrm), cause)


@dataclass(frozen=True)
class WaveState:
    """Two consecutive free-dof snapshots, their boundary values and
    ``K_FF @ u_prev`` (never None); ``t`` is the time of u_curr.
    ``window``, read by ``LeapfrogSolver.advance`` alone, is the forcing
    window (trace, tau, step formed at, G, F) or None."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    t: float
    tau: float
    n: int
    g_prev: np.ndarray
    g_curr: np.ndarray
    Ku_prev: np.ndarray
    window: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class EnergySample:
    kinetic: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


class LeapfrogSolver:
    """Explicit leapfrog stepper for the damped wave system.

    ``mass`` is the lumped mass matrix; the inverse of its free-dof
    block is built here, once, and serves every tau.  ``damping`` is a
    constant or a callable coefficient field ``d(points) -> (n,)``; a
    constant is the field of that one value.  The field is taken at the
    mass-block nodes, so d is a per-dof vector in the explicit update.
    ``boundary_data`` is ``g(points, t) -> (n, 2)`` giving the full
    vector field whose normal trace is prescribed, or None for a
    sound-hard boundary: the zero field, taken on the same trace.  It is
    pointwise: ``t`` holds one time per row of ``points``, so one call
    covers many time levels.

    The solver sets no attribute after ``__init__``: the forcing of
    CHUNK levels rides on the state a step returns.  A state whose
    window is missing, of another trace or tau, or used up, refills it.
    """

    def __init__(self, dofmap: DofMap, mass, stiffness, damping=0.0,
                 boundary_data=None):
        self.dofmap = dofmap
        self.con = constrain(dofmap, mass, stiffness)
        if not callable(damping):
            damping = lambda points, c=float(damping): c
        d = dofmap.nodal_values(damping)
        self._d_free, self._d_con = d[dofmap.free_idx], d[dofmap.con_idx]
        if not np.all((d >= 0) & (d < np.inf)):
            raise ValueError("damping must be nonnegative and finite")
        self._damped = bool(np.any(d))
        self._g = dofmap.boundary_trace(
            _zero_field if boundary_data is None else boundary_data)
        self._msolve = BlockSolver(self.con.M_FF, dofmap)

    def _embed(self, free_part, con_part) -> np.ndarray:
        out = np.empty(self.dofmap.ndof)
        out[self.dofmap.free_idx] = free_part
        out[self.dofmap.con_idx] = con_part
        return out

    def full(self, state: WaveState) -> np.ndarray:
        """Full coefficients of u_curr: free part plus boundary values."""
        return self._embed(state.u_curr, state.g_curr)

    # -- stepping -------------------------------------------------------

    def _forcing(self, G: np.ndarray, tau: float) -> np.ndarray:
        """Rows of f on the touched rows at each interior level of the
        boundary values ``G`` (one level a row)."""
        gm, g0, gp = G[:-2], G[1:-1], G[2:]
        w = [g0, (gp - 2.0 * g0 + gm) / tau**2]
        if self._damped:
            gdot = (gp - gm) / (2.0 * tau)
            w[1] += self._d_con * gdot
        return (self.con.boundary @ np.concatenate(w, axis=1).T).T

    def start(self, u0: np.ndarray, v0: np.ndarray, tau: float) -> WaveState:
        """Second-order Taylor start at t = 0 from full coefficient vectors."""
        if not 0 < tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        if tau * tau < np.finfo(float).tiny:
            raise ValueError("tau must be at least 1.5e-154 (tau^2 underflows "
                             f"below it), got {tau}")
        free = self.dofmap.free_idx
        uf = np.asarray(u0, dtype=float)[free]
        vf = np.asarray(v0, dtype=float)[free]
        G = self._g(np.array([-tau, 0.0, tau]))
        Ku = self.con.K_FF @ uf
        load = Ku.copy()    # Ku is kept as the state's Ku_prev
        load[self.con.rows] += self._forcing(G, tau)[0]
        # the start is explicit in d: u1 grows like d tau^2 |v0| / 2, and
        # may overflow on the way, while the step is stable in d
        with np.errstate(over="ignore", invalid="ignore"):
            if self._damped:
                load = load + self._d_free * (self.con.M_FF @ vf)
            u1 = uf + tau * vf - 0.5 * tau**2 * self._msolve.solve(load)
        cause = "the time step"
        if self._damped:
            cause = f"damping * tau = {np.max(self._d_free) * tau:.3g}"
        _check_blowup(u1, 1, cause)
        return WaveState(u_prev=uf, u_curr=u1, t=tau, tau=tau, n=1,
                         g_prev=G[1], g_curr=G[2], Ku_prev=Ku)

    def step(self, state: WaveState) -> WaveState:
        return self.advance(state, 1)

    def advance(self, state: WaveState, n_steps: int) -> WaveState:
        """The state ``n_steps`` steps after ``state``, the only one built.

        Each step allocates its new level and the load goes to one buffer
        allocated by the call: no input, and no state returned before, is
        written.
        """
        if n_steps < 1:
            return state
        con, tau, n, t = self.con, state.tau, state.n, state.t
        u_prev, u = state.u_prev, state.u_curr
        g_prev, g_curr = state.g_prev, state.g_curr
        n0, G, F = n - CHUNK, None, None    # used up: refill
        w = state.window
        if w is not None and w[0] is self._g and w[1] == tau:
            n0, G, F = w[2:]
        load = np.empty(len(u))
        if self._damped:
            a, b = (1.0 - self._d_free * tau / 2.0,
                    1.0 + self._d_free * tau / 2.0)
        for i in range(n_steps):
            k = n - n0
            if not 0 <= k < CHUNK:
                # cumsum adds in sequence, as the steps' t + tau do
                ts = np.cumsum(np.r_[t, np.full(CHUNK, tau)])[1:]
                G = np.vstack([g_prev, g_curr, self._g(ts)])
                n0, k, F = n, 0, self._forcing(G, tau)
            g_prev, g_curr, t = g_curr, G[k + 2], t + tau
            _matvec(con.K_FF, u, load)
            if i == n_steps - 1:
                Ku = load.copy()    # Ku_prev holds no forcing
            load[con.rows] += F[k]
            u_next = self._msolve.solve(load)
            u_next *= -tau**2
            u_next += u
            u_next += u
            if self._damped:
                u_next -= a * u_prev
                u_next /= b
            else:
                u_next -= u_prev
            n += 1
            _check_blowup(u_next, n)
            u_prev, u = u, u_next
        return WaveState(u_prev=u_prev, u_curr=u, t=t, tau=tau, n=n,
                         g_prev=g_prev, g_curr=g_curr, Ku_prev=Ku,
                         window=(self._g, tau, n0, G, F))

    def reverse(self, state: WaveState) -> WaveState:
        """Swap the two levels; further steps retrace the trajectory.

        Exact (up to round-off) for zero damping and time-symmetric
        boundary data.  The boundary values stay with the times.
        """
        return replace(state, u_prev=state.u_curr, u_curr=state.u_prev,
                       Ku_prev=self.con.K_FF @ state.u_curr)

    # -- velocity reconstruction ----------------------------------------

    def centered_velocity(self, older: WaveState, newer: WaveState) -> np.ndarray:
        """Centered-difference velocity at ``older.t`` as full coefficients.

        ``newer`` must be the successor state of ``older``.
        """
        if newer.n != older.n + 1:
            raise ValueError("states are not consecutive")
        return self._embed(newer.u_curr - older.u_prev,
                           newer.g_curr - older.g_prev) / (2.0 * older.tau)

    def final_velocity(self, u_prev2: np.ndarray, state: WaveState) -> np.ndarray:
        """One-sided second-order velocity at ``state.t``.

        ``u_prev2`` is the free-dof vector two steps back.
        """
        g2 = self._g(np.array([state.t - 2.0 * state.tau]))[0]
        return self._embed(
            3.0 * state.u_curr - 4.0 * state.u_prev + u_prev2,
            3.0 * state.g_curr - 4.0 * state.g_prev + g2) / (2.0 * state.tau)

    # -- diagnostics ----------------------------------------------------

    def energy(self, state: WaveState) -> EnergySample:
        """Discrete energy at the midpoint of the stored level pair.

        Conserved exactly by the undamped scheme and nonincreasing for
        d >= 0, which the test suite exercises.
        """
        v = (state.u_curr - state.u_prev) / state.tau
        # numpy's pairwise sum, not a BLAS dot whose rounding depends on
        # the thread count
        kin = 0.5 * float(np.sum(v * (self.con.M_FF @ v)))
        pot = 0.5 * float(np.sum(state.u_curr * state.Ku_prev))
        return EnergySample(kinetic=kin, potential=pot)


def stable_tau(dofmap: DofMap, forms=None) -> float:
    """Safe leapfrog step ``SAFETY * 2 / sqrt(lam)``.

    ``lam`` is the largest cell eigenvalue max_e lambda_max(K_e, M_e), an
    upper bound on lambda_max(K_FF, M_FF) (Irons & Treharne 1971; Fried
    1972).  K and the lumped M are sums of cell matrices with every M_e
    SPD, so each Rayleigh quotient x'Kx / x'Mx = sum_e x_e'K_e x_e /
    sum_e x_e'M_e x_e is at most that maximum; restricting to free dofs
    only lowers it.  Any ``SAFETY`` < 1 is stable by construction.  The
    eigenvalue is taken per distinct cell from ``forms`` or ``cell_forms``.
    """
    lam = 0.0
    for M, K, _ in cell_forms(dofmap) if forms is None else forms:
        Linv = np.linalg.inv(np.linalg.cholesky(M))
        A = Linv @ K @ np.swapaxes(Linv, 1, 2)
        lam = max(lam, float(np.linalg.eigvalsh(A)[:, -1].max()))
    return SAFETY * 2.0 / np.sqrt(lam)


def within_stable_tau(dofmap: DofMap, tau: float, forms=None) -> bool:
    """True if ``tau`` is proven below ``stable_tau(dofmap)`` without an
    eigen-solve; False means not proven, not unstable.

    ``tau`` is below the limit when every cell has lambda_max(K_e, M_e) <
    (2 SAFETY / tau)^2, that is when every ``c M_e - tau^2 K_e`` is
    positive definite.  One batched Cholesky per group shows it, with
    ``c`` the square of ``2 SAFETY`` less a relative margin of 1e-8, far
    above round-off.  A tau that is not positive and finite, or whose
    pencil overflows, is not proven.  ``forms`` as for ``stable_tau``.
    """
    if not 0 < tau < np.inf:
        return False
    c = (2.0 * SAFETY) ** 2 * (1.0 - 1e-8)
    t2 = tau * tau    # inf, not OverflowError, for a huge tau
    with np.errstate(over="ignore", invalid="ignore"):
        for M, K, _ in cell_forms(dofmap) if forms is None else forms:
            A = c * M - t2 * K
            # numpy's Cholesky may factor a NaN pivot without raising
            if not np.isfinite(A).all():
                return False
            try:
                np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                return False
    return True
