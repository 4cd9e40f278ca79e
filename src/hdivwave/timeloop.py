"""Leapfrog time integration with boundary elimination.

The semi-discrete system on free dofs reads

    M_FF u'' + D_FF u' + K_FF u = -(K_FB g + M_FB g'' + D_FB g')

with g the prescribed normal-trace values on the boundary dofs.  Time
derivatives of g are replaced by centered differences so the whole
scheme is second order.  One step solves

    (M_FF + tau/2 D_FF) u^{n+1} = tau^2 (r^n - K_FF u^n)
        + M_FF (2 u^n - u^{n-1}) + tau/2 D_FF u^{n-1}

which stays block diagonal because the damping matrix inherits the
lumped mass sparsity.  Zero or constant damping d needs no M_FF product:

    u^{n+1} = (2 u^n - (1 - d tau/2) u^{n-1}
               + tau^2 M_FF^{-1} (r^n - K_FF u^n)) / (1 + d tau/2)
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    BlockDiagMass,
    BlockSolver,
    DofMap,
    assemble_damping,
    constrain,
    element_matrices,
)


class InstabilityError(RuntimeError):
    """Raised when the iterate blows up (time step too large)."""

    def __init__(self, step: int, norm: float):
        super().__init__(
            f"non-finite or exploding solution (max |u| = {norm:.3e}) at "
            f"step {step}; reduce the time step")
        self.step = step
        self.norm = norm


@dataclass(frozen=True)
class WaveState:
    """Two consecutive free-dof snapshots; ``t`` is the time of u_curr."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    t: float
    tau: float
    n: int


@dataclass(frozen=True)
class EnergySample:
    kinetic: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


class LeapfrogSolver:
    """Explicit leapfrog stepper for the damped wave system.

    ``damping`` is a constant or a callable coefficient field;
    ``boundary_data`` is ``g(points, t) -> (n, 2)`` giving the full
    vector field whose normal trace is prescribed, or None for a
    sound-hard boundary.
    """

    def __init__(self, dofmap: DofMap, mass: BlockDiagMass, stiffness,
                 damping=0.0, boundary_data=None, blowup: float = 1e8):
        self.dofmap = dofmap
        self.mass = mass
        self.con = constrain(dofmap, mass, stiffness)
        self.boundary_data = boundary_data
        self.blowup = blowup
        if callable(damping):
            D = assemble_damping(dofmap, damping)
            free, conidx = dofmap.free_idx, dofmap.con_idx
            self.D_FF = D[free][:, free].tocsr()
            self.D_FB = D[free][:, conidx].tocsr()
            self.d_const = None
            self._D_full = D
        else:
            d = float(damping)
            if d < 0:
                raise ValueError("damping must be nonnegative")
            self.d_const = d
            self.D_FF = None
            self.D_FB = None
            self._D_full = None
        self._msolve = mass.solver
        self._asolve: BlockSolver | None = None
        self._asolve_tau: float | None = None
        self._gcache: dict[float, np.ndarray] = {}

    # -- boundary values ------------------------------------------------

    def _g(self, t: float) -> np.ndarray:
        if self.boundary_data is None:
            return np.zeros(len(self.dofmap.con_idx))
        if t not in self._gcache:
            if len(self._gcache) > 8:
                self._gcache.clear()
            self._gcache[t] = self.dofmap.constrained_values(
                self.boundary_data, t)
        return self._gcache[t]

    def embed(self, u_free: np.ndarray, t: float) -> np.ndarray:
        """Full coefficient vector: free part plus boundary values."""
        out = np.zeros(self.dofmap.ndof)
        out[self.dofmap.free_idx] = u_free
        out[self.dofmap.con_idx] = self._g(t)
        return out

    def full(self, state: WaveState) -> np.ndarray:
        return self.embed(state.u_curr, state.t)

    # -- stepping -------------------------------------------------------

    def _rhs(self, t: float, tau: float) -> np.ndarray:
        """Boundary forcing r^n for the step centered at time t."""
        con = self.con
        g0 = self._g(t)
        gm = self._g(t - tau)
        gp = self._g(t + tau)
        r = -(con.K_FB @ g0)
        r -= con.M_FB @ ((gp - 2.0 * g0 + gm) / tau**2)
        gdot = (gp - gm) / (2.0 * tau)
        if self.D_FB is not None:
            r -= self.D_FB @ gdot
        elif self.d_const:
            r -= self.d_const * (con.M_FB @ gdot)
        return r

    def _damped_solver(self, tau: float) -> BlockSolver:
        if self._asolve is None or self._asolve_tau != tau:
            self._asolve = BlockSolver(
                self.mass, extra_csr=(tau / 2.0) * self._D_full)
            self._asolve_tau = tau
        return self._asolve

    def start(self, u0: np.ndarray, v0: np.ndarray, tau: float,
              t0: float = 0.0) -> WaveState:
        """Second-order Taylor start from full coefficient vectors."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        self._gcache.clear()
        free = self.dofmap.free_idx
        uf = np.asarray(u0, dtype=float)[free]
        vf = np.asarray(v0, dtype=float)[free]
        con = self.con
        r0 = self._rhs(t0, tau)
        acc = r0 - con.K_FF @ uf
        if self.D_FF is not None:
            acc -= self.D_FF @ vf
        elif self.d_const:
            acc -= self.d_const * (con.M_FF @ vf)
        a0 = self._msolve.solve(acc)
        u1 = uf + tau * vf + 0.5 * tau**2 * a0
        return WaveState(u_prev=uf, u_curr=u1, t=t0 + tau, tau=tau, n=1)

    def step(self, state: WaveState) -> WaveState:
        con = self.con
        tau = state.tau
        r = self._rhs(state.t, tau) - con.K_FF @ state.u_curr
        if self.D_FF is not None:
            b = tau**2 * r
            b += con.M_FF @ (2.0 * state.u_curr - state.u_prev)
            b += (tau / 2.0) * (self.D_FF @ state.u_prev)
            u_next = self._damped_solver(tau).solve(b)
        else:
            d = self.d_const
            u_next = 2.0 * state.u_curr - (1.0 - d * tau / 2.0) * state.u_prev
            u_next += tau**2 * self._msolve.solve(r)
            if d:
                u_next /= 1.0 + d * tau / 2.0
        nrm = float(np.max(np.abs(u_next))) if len(u_next) else 0.0
        if not np.isfinite(nrm) or nrm > self.blowup:
            raise InstabilityError(state.n + 1, nrm)
        return WaveState(u_prev=state.u_curr, u_curr=u_next,
                         t=state.t + tau, tau=tau, n=state.n + 1)

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
        boundary data.
        """
        return replace(state, u_prev=state.u_curr, u_curr=state.u_prev)

    # -- velocity reconstruction ----------------------------------------

    def centered_velocity(self, older: WaveState, newer: WaveState) -> np.ndarray:
        """Centered-difference velocity at ``older.t`` as full coefficients.

        ``newer`` must be the successor state of ``older``.
        """
        if newer.n != older.n + 1:
            raise ValueError("states are not consecutive")
        tau = older.tau
        vf = (newer.u_curr - older.u_prev) / (2.0 * tau)
        out = np.zeros(self.dofmap.ndof)
        out[self.dofmap.free_idx] = vf
        out[self.dofmap.con_idx] = \
            (self._g(older.t + tau) - self._g(older.t - tau)) / (2.0 * tau)
        return out

    def final_velocity(self, u_prev2: np.ndarray, state: WaveState) -> np.ndarray:
        """One-sided second-order velocity at ``state.t``.

        ``u_prev2`` is the free-dof vector two steps back.
        """
        tau = state.tau
        vf = (3.0 * state.u_curr - 4.0 * state.u_prev + u_prev2) / (2.0 * tau)
        out = np.zeros(self.dofmap.ndof)
        out[self.dofmap.free_idx] = vf
        g0 = self._g(state.t)
        g1 = self._g(state.t - tau)
        g2 = self._g(state.t - 2.0 * tau)
        out[self.dofmap.con_idx] = (3.0 * g0 - 4.0 * g1 + g2) / (2.0 * tau)
        return out

    # -- diagnostics ----------------------------------------------------

    def energy(self, state: WaveState) -> EnergySample:
        """Discrete energy at the midpoint of the stored level pair.

        Conserved exactly by the undamped scheme and nonincreasing for
        d >= 0, which the test suite exercises.
        """
        con = self.con
        v = (state.u_curr - state.u_prev) / state.tau
        kin = 0.5 * float(v @ (con.M_FF @ v))
        pot = 0.5 * float(state.u_curr @ (con.K_FF @ state.u_prev))
        return EnergySample(kinetic=kin, potential=pot)


def stable_tau(dofmap: DofMap, safety: float = 0.9) -> float:
    """Safe leapfrog step ``safety * 2 / sqrt(lam)``.

    ``lam`` is the largest cell eigenvalue max_e lambda_max(K_e, M_e), an
    upper bound on lambda_max(K_FF, M_FF) (Irons & Treharne 1971; Fried
    1972).  K and the lumped M are sums of cell matrices with every M_e
    SPD, so each Rayleigh quotient x'Kx / x'Mx = sum_e x_e'K_e x_e /
    sum_e x_e'M_e x_e is at most that maximum; restricting to free dofs
    only lowers it.  Any ``safety`` < 1 is stable by construction.
    """
    lam = 0.0
    for g in dofmap.groups:
        M, K = element_matrices(g)
        Linv = np.linalg.inv(np.linalg.cholesky(M))
        A = Linv @ K @ np.swapaxes(Linv, 1, 2)
        lam = max(lam, float(np.linalg.eigvalsh(A)[:, -1].max()))
    return safety * 2.0 / np.sqrt(lam)
