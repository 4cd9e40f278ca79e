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

for no, constant or field damping alike, d a number or a per-dof vector.
f^n is [K_FB | M_FB] [g; g'' + d_B g'] (``Constraint.boundary``), taken
over the touched rows only: the free dofs coupled to a boundary dof (736
of 6,016 on structured-quad level 2).  The other rows of the load are
K_FF u itself.
g does not depend on u: it is evaluated, and f formed in one product,
for CHUNK time levels at once, and a step adds its row of f to K_FF u.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import BlockSolver, DofMap, cell_forms, constrain


# max |u| beyond which a step counts as blown up
BLOWUP = 1e8

# time levels of boundary data evaluated, and forced, per window refill
CHUNK = 64

# stable_tau's safety factor, also the one a given tau is certified
# against
SAFETY = 0.9


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

    The common case reads u twice and makes no temporary: max and min
    bound |u| exactly, and a NaN makes both comparisons false.  (A BLAS
    dot would read it once, but a threaded BLAS can stall every step on
    a busy host.)
    """
    if len(u) and not (u.max() <= BLOWUP and u.min() >= -BLOWUP):
        nrm = float(np.max(np.abs(u)))
        if not np.isfinite(nrm) or nrm > BLOWUP:
            raise InstabilityError(step, nrm, cause)


@dataclass(frozen=True)
class WaveState:
    """Two consecutive free-dof snapshots, their boundary values and the
    step's ``K_FF @ u_prev`` (or None); ``t`` is the time of u_curr."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    t: float
    tau: float
    n: int
    g_prev: np.ndarray
    g_curr: np.ndarray
    Ku_prev: np.ndarray | None = None


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
    field is taken at the mass-block nodes, so both kinds take the same
    explicit update, d a number or a per-dof vector.  ``boundary_data``
    is ``g(points, t) -> (n, 2)`` giving the full vector field whose
    normal trace is prescribed, or None for a sound-hard boundary.  It
    is pointwise: ``t`` holds one time per row of ``points``, so one
    call covers many time levels.

    The boundary forcing comes from a window of CHUNK levels ahead of
    the last state a step returned.  A state with another tau, or not
    holding the window's last boundary row, refills it from that state.
    """

    def __init__(self, dofmap: DofMap, mass, stiffness, damping=0.0,
                 boundary_data=None):
        self.dofmap = dofmap
        self.con = constrain(dofmap, mass, stiffness)
        if callable(damping):
            d = dofmap.nodal_values(damping)
            self._d_free, self._d_con = d[dofmap.free_idx], d[dofmap.con_idx]
        else:
            d = self._d_free = self._d_con = float(damping)
        if not np.all((d >= 0) & (d < np.inf)):
            raise ValueError("damping must be nonnegative and finite")
        self._damped = bool(np.any(d))
        self._forced = boundary_data is not None
        if self._forced:
            self._g = dofmap.boundary_trace(boundary_data)
        else:
            n_con = len(dofmap.con_idx)
            self._g = lambda ts: np.zeros((len(ts), n_con))
        self._msolve = BlockSolver(self.con.M_FF, dofmap)
        # (tau, level times, boundary values, forcing rows) and the
        # index and boundary row of the next step out of the window
        self._window = None
        self._k, self._handed = CHUNK, None

    def _embed(self, free_part, con_part) -> np.ndarray:
        out = np.empty(self.dofmap.ndof)
        out[self.dofmap.free_idx] = free_part
        out[self.dofmap.con_idx] = con_part
        return out

    def full(self, state: WaveState) -> np.ndarray:
        """Full coefficients of u_curr: free part plus boundary values."""
        return self._embed(state.u_curr, state.g_curr)

    # -- stepping -------------------------------------------------------

    def _forcing(self, G: np.ndarray, tau: float):
        """Rows of f on the touched rows at each interior level of the
        boundary values ``G`` (one level a row); None without data."""
        if not self._forced:
            return None
        gm, g0, gp = G[:-2], G[1:-1], G[2:]
        w = [g0, (gp - 2.0 * g0 + gm) / tau**2]
        if self._damped:
            gdot = (gp - gm) / (2.0 * tau)
            w[1] += self._d_con * gdot
        return (self.con.boundary @ np.concatenate(w, axis=1).T).T

    def _loaded(self, Ku: np.ndarray, F, k: int) -> np.ndarray:
        """``K_FF u + f`` with f the forcing row ``F[k]``, or ``Ku``
        itself when there is no boundary data."""
        if F is None:
            return Ku
        # a fresh array: Ku is kept as the next state's Ku_prev
        load = Ku.copy()
        load[self.con.rows] += F[k]
        return load

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
        F = self._forcing(G, tau)
        Ku = self.con.K_FF @ uf
        load = self._loaded(Ku, F, 0)
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
        tau = state.tau
        if (self._k == CHUNK or state.g_curr is not self._handed
                or self._window[0] != tau):
            # cumsum adds in sequence: the times of repeated t + tau steps
            ts = np.cumsum(np.r_[state.t, np.full(CHUNK, tau)])[1:]
            G = np.vstack([state.g_prev, state.g_curr, self._g(ts)])
            self._window = (tau, ts.tolist(), G, self._forcing(G, tau))
            self._k = 0
        _, ts, G, F = self._window
        k = self._k
        t, g_next = ts[k], G[k + 2]
        self._k, self._handed = k + 1, g_next
        Ku = self.con.K_FF @ state.u_curr
        load = self._loaded(Ku, F, k)
        u_next = self._msolve.solve(load)
        u_next *= -tau**2
        u_next += state.u_curr
        u_next += state.u_curr
        if self._damped:
            d = self._d_free
            u_next -= (1.0 - d * tau / 2.0) * state.u_prev
            u_next /= 1.0 + d * tau / 2.0
        else:
            u_next -= state.u_prev
        _check_blowup(u_next, state.n + 1)
        return WaveState(u_prev=state.u_curr, u_curr=u_next, t=t, tau=tau,
                         n=state.n + 1, g_prev=state.g_curr, g_curr=g_next,
                         Ku_prev=Ku)

    def advance(self, state: WaveState, n_steps: int,
                on_step=None) -> WaveState:
        for _ in range(n_steps):
            state = self.step(state)
            if on_step is not None:
                on_step(state)
        return state

    def reverse(self, state: WaveState) -> WaveState:
        """Swap the two levels; further steps retrace the trajectory.

        Exact (up to round-off) for zero damping and time-symmetric
        boundary data.  The boundary values stay with the times.
        """
        return replace(state, u_prev=state.u_curr, u_curr=state.u_prev,
                       Ku_prev=None)

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
        con = self.con
        v = (state.u_curr - state.u_prev) / state.tau
        # numpy's pairwise sum, not a BLAS dot whose rounding depends on
        # the thread count
        kin = 0.5 * float(np.sum(v * (con.M_FF @ v)))
        Ku = (con.K_FF @ state.u_prev if state.Ku_prev is None
              else state.Ku_prev)
        pot = 0.5 * float(np.sum(state.u_curr * Ku))
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
