"""Concave games on spectrahedra: players, payoff gradients, equilibrium diagnostics.

An action profile is a plain tuple/list of Hermitian arrays, one per player.
Player APIs take 0-based indices into `players`; the 1-based `PlayerSpec.pid`
is only a display label for traces and reports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .spectral import (
    DomainError,
    Spectrahedron,
    hermitize,
    nuclear_norm,
    trace_inner,
)

VIOLATION_TOL = 1e-9

ActionProfile = tuple


@dataclass(frozen=True)
class PlayerSpec:
    pid: int
    domain: Spectrahedron


class GameModel(ABC):
    """N-player game with individually concave utilities and exact payoff gradients.

    A game defines `utility(i, actions)` and one gradient formula,
    `gradient_stack(i, actions)`: player i's exact payoff gradients for a stack
    of profiles, in the convention d/dt u(X + tZ) = tr(Z V). There `actions[j]`
    stacks player j's actions as an (S, d, d) array, and entry s of the result
    depends on profile s only. `payoff_gradient(i, actions)`, the gradient at
    one profile, is its stack of one; a subclass may not redefine it. Oracles
    that draw random numbers (an unbiased minibatch estimate, say) override
    `stochastic_gradient`; by default it is the exact gradient.
    Implementations must be reentrant (no mutable state across calls).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "payoff_gradient" in vars(cls):
            raise TypeError(f"{cls.__name__} defines payoff_gradient; define gradient_stack "
                            "instead (payoff_gradient is its stack of one)")

    def __init__(self, domains):
        self.players = tuple(PlayerSpec(i + 1, d) for i, d in enumerate(domains))
        if not self.players:
            raise ValueError("a game needs at least one player")

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def domains(self) -> tuple[Spectrahedron, ...]:
        return tuple(p.domain for p in self.players)

    @abstractmethod
    def utility(self, i: int, actions) -> float: ...

    @abstractmethod
    def gradient_stack(self, i: int, actions) -> np.ndarray: ...

    def payoff_gradient(self, i: int, actions) -> np.ndarray:
        """Player i's exact gradient at one profile: `gradient_stack` on a stack of one."""
        return self.gradient_stack(i, [np.asarray(a)[None] for a in actions])[0]

    def stochastic_gradient(self, i: int, actions, rng: np.random.Generator) -> np.ndarray:
        return self.payoff_gradient(i, actions)

    def gradient_profile(self, actions) -> list[np.ndarray]:
        return [self.payoff_gradient(i, actions) for i in range(self.n_players)]

    def require_feasible(self, actions) -> None:
        if len(actions) != self.n_players:
            raise DomainError(f"profile has {len(actions)} actions for {self.n_players} players")
        for spec, x in zip(self.players, actions):
            spec.domain.require_member(x, name=f"action of player {spec.pid}")

    def sample_profile(self, rng: np.random.Generator):
        return tuple(p.domain.sample(rng) for p in self.players)

    def center_profile(self):
        return tuple(p.domain.center() for p in self.players)


@dataclass
class StabilityReport:
    """Sampled certificate for a stability condition; not a proof.

    `worst_value` is the largest sampled value of the tested expression (which
    should be <= 0 for the condition to hold); `violations` counts samples
    exceeding VIOLATION_TOL.
    """

    check: str
    samples: int
    rng_seed: int
    violations: int = 0
    worst_value: float = float("-inf")
    hessian_max_quadform: float | None = None
    radius: float | None = None

    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "samples": self.samples,
            "rng_seed": self.rng_seed,
            "violations": self.violations,
            "worst_value": self.worst_value,
            "passed": self.passed(),
        }
        if self.hessian_max_quadform is not None:
            out["hessian_max_quadform"] = self.hessian_max_quadform
        if self.radius is not None:
            out["radius"] = self.radius
        return out


def nash_residual(game: GameModel, actions) -> float:
    """Worst unilateral first-order improvement over exact linear maximization.

    For each player the best linear response value on the spectrahedron is
    A * max(lambda_max(V), 0); the residual is the largest gap to the current
    payoff inner product. Zero (up to tolerance) iff the profile satisfies the
    first-order equilibrium conditions.
    """
    game.require_feasible(actions)
    worst = 0.0
    for i, spec in enumerate(game.players):
        v = game.payoff_gradient(i, actions)
        top = float(np.linalg.eigvalsh(hermitize(v))[-1])
        gap = spec.domain.trace_bound * max(top, 0.0) - trace_inner(actions[i], v)
        worst = max(worst, gap)
    return worst


def check_monotonicity(game: GameModel, samples: int, seed: int = 0) -> StabilityReport:
    """Sample feasible pairs and test monotonicity tr[(X'-X)(V(X')-V(X))] <= 0."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = StabilityReport(check="monotonicity", samples=samples, rng_seed=seed)
    for _ in range(samples):
        xa = game.sample_profile(rng)
        xb = game.sample_profile(rng)
        va = game.gradient_profile(xa)
        vb = game.gradient_profile(xb)
        val = sum(trace_inner(xb[i] - xa[i], vb[i] - va[i]) for i in range(game.n_players))
        report.worst_value = max(report.worst_value, val)
        if val > VIOLATION_TOL:
            report.violations += 1
    return report


def _sample_near(game: GameModel, xstar, radius: float, rng: np.random.Generator):
    if radius <= 0:
        return tuple(np.array(x, dtype=complex) for x in xstar)
    dirs = [p.domain.sample_direction(rng) for p in game.players]
    total = sum(nuclear_norm(d) for d in dirs)
    t = radius * rng.random() / max(total, 1e-300)
    return tuple(
        p.domain.project(x + t * d) for p, x, d in zip(game.players, xstar, dirs)
    )


def check_variational_stability(
    game: GameModel, xstar, radius: float, samples: int, seed: int = 0
) -> StabilityReport:
    """Test tr[(X - X*) V(X)] <= 0 on samples within nuclear distance `radius` of X*."""
    game.require_feasible(xstar)
    rng = np.random.default_rng(seed)
    report = StabilityReport(
        check="variational_stability", samples=samples, rng_seed=seed, radius=radius
    )
    for _ in range(samples):
        x = _sample_near(game, xstar, radius, rng)
        v = game.gradient_profile(x)
        val = sum(trace_inner(x[i] - xstar[i], v[i]) for i in range(game.n_players))
        report.worst_value = max(report.worst_value, val)
        if val > VIOLATION_TOL:
            report.violations += 1
    return report


def hessian_quadratic_form(game: GameModel, actions, direction, eps: float = 1e-5) -> float:
    """Symmetrised directional curvature tr(Z (V(X+eZ) - V(X-eZ)))/(2e).

    Shrinks eps up to three times if the perturbed profiles leave the domain,
    then raises.
    """
    game.require_feasible(actions)
    for attempt in range(4):
        up = tuple(x + eps * z for x, z in zip(actions, direction))
        dn = tuple(x - eps * z for x, z in zip(actions, direction))
        feasible = all(
            p.domain.contains(u) and p.domain.contains(d)
            for p, u, d in zip(game.players, up, dn)
        )
        if feasible:
            vu = game.gradient_profile(up)
            vd = game.gradient_profile(dn)
            return sum(
                trace_inner(direction[i], vu[i] - vd[i]) for i in range(game.n_players)
            ) / (2.0 * eps)
        eps /= 10.0
    raise DomainError("perturbed profile infeasible even after shrinking eps 3 times")


def check_hessian_definiteness(
    game: GameModel, samples: int, seed: int = 0, eps: float = 1e-5
) -> StabilityReport:
    """Sample quadratic forms of the game curvature; all negative supports D(X) < 0.

    Sample points are pulled 2% toward the domain centers so the +/- eps
    perturbations stay feasible.
    """
    rng = np.random.default_rng(seed)
    report = StabilityReport(check="hessian", samples=samples, rng_seed=seed)
    worst = float("-inf")
    for _ in range(samples):
        raw = game.sample_profile(rng)
        x = tuple(
            0.98 * xi + 0.02 * p.domain.center() for xi, p in zip(raw, game.players)
        )
        z = tuple(p.domain.sample_direction(rng) for p in game.players)
        q = hessian_quadratic_form(game, x, z, eps=eps)
        worst = max(worst, q)
        if q > VIOLATION_TOL:
            report.violations += 1
    report.worst_value = worst
    report.hessian_max_quadform = worst
    return report


def finite_diff_gradient_check(
    game: GameModel, i: int, actions, directions, eps: float = 1e-6
) -> float:
    """Worst relative error between tr(Z V_i) and central differences of the utility."""
    v = game.payoff_gradient(i, actions)
    worst = 0.0
    for z in directions:
        up = list(actions)
        dn = list(actions)
        up[i] = actions[i] + eps * z
        dn[i] = actions[i] - eps * z
        fd = (game.utility(i, tuple(up)) - game.utility(i, tuple(dn))) / (2.0 * eps)
        ref = trace_inner(z, v)
        worst = max(worst, abs(fd - ref) / max(abs(ref), abs(fd), 1e-12))
    return worst


class ZeroGame(GameModel):
    """Degenerate game with identically zero utilities."""

    def utility(self, i, actions) -> float:
        return 0.0

    def gradient_stack(self, i, actions) -> np.ndarray:
        return np.zeros(np.shape(actions[i]), dtype=complex)


class LinearGame(GameModel):
    """Decoupled linear utilities u_i = tr(C_i X_i)."""

    def __init__(self, payoff_matrices, trace_bounds=None):
        self._c = tuple(hermitize(np.asarray(c, dtype=complex)) for c in payoff_matrices)
        if trace_bounds is None:
            trace_bounds = [1.0] * len(self._c)
        super().__init__(
            Spectrahedron(c.shape[0], a) for c, a in zip(self._c, trace_bounds)
        )

    def utility(self, i, actions) -> float:
        return trace_inner(self._c[i], actions[i])

    def gradient_stack(self, i, actions) -> np.ndarray:
        return np.repeat(self._c[i][None], len(actions[i]), axis=0)


class BilinearGame(GameModel):
    """Two scalar players with u_i = x_i (x_j - threshold).

    threshold = 0 is the anti-monotone coupling toy; threshold in (0,1) is a
    coordination game with stable equilibria at (0,0) and (1,1) plus an
    unstable interior one at (t,t).
    """

    def __init__(self, threshold: float = 0.0):
        self.threshold = float(threshold)
        super().__init__([Spectrahedron(1, 1.0), Spectrahedron(1, 1.0)])

    def utility(self, i, actions) -> float:
        xi = float(actions[i][0, 0].real)
        xj = float(actions[1 - i][0, 0].real)
        return xi * (xj - self.threshold)

    def gradient_stack(self, i, actions) -> np.ndarray:
        return (actions[1 - i].real - self.threshold).astype(complex)
