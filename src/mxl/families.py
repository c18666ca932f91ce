"""Three concrete game families: contention MAC, metric learning, energy efficiency.

Each family implements the GameModel interface; synthetic data generators stand
in for the full-scale setups (Gaussian feature clusters, block-fading complex
Gaussian channels with log-spaced pathloss).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .games import GameModel
from .spectral import DomainError, Spectrahedron, hermitize

FIXTURE_VERSION = 1


# ---------------------------------------------------------------------------
# Contention-based medium access
# ---------------------------------------------------------------------------


class MacGame(GameModel):
    """Scalar channel-access game on [0,1]^N.

    Utilities are u_i = U(x_i) - x_i * q_i(x_-i) with the conditional collision
    contention q_i = 1 - prod_{j != i} (1 - x_j). `utility_kind` is either
    "quadratic" (U(x) = b x - c/2 x^2) or "log" (U(x) = a log(1 + x)).
    """

    def __init__(self, n_players: int = 2, utility_kind: str = "quadratic",
                 b: float = 1.0, c: float = 2.0, a: float = 1.0):
        if utility_kind not in ("quadratic", "log"):
            raise ValueError(f"unknown utility kind {utility_kind!r}")
        self.utility_kind = utility_kind
        self.b, self.c, self.a = float(b), float(c), float(a)
        super().__init__([Spectrahedron(1, 1.0) for _ in range(n_players)])

    def _levels(self, actions) -> np.ndarray:
        return np.array([float(x[0, 0].real) for x in actions])

    def _base_utility(self, x: float) -> float:
        if self.utility_kind == "quadratic":
            return self.b * x - 0.5 * self.c * x * x
        return self.a * np.log1p(x)

    def _base_slope(self, x: float) -> float:
        if self.utility_kind == "quadratic":
            return self.b - self.c * x
        return self.a / (1.0 + x)

    @staticmethod
    def _contention_of(i: int, levels):
        """1 - prod_{j != i}(1 - x_j), in player order, over per-player levels or level stacks."""
        free = 1.0
        for j, x in enumerate(levels):
            if j != i:
                free = free * (1.0 - x)
        return 1.0 - free

    def contention(self, i: int, actions) -> float:
        return float(self._contention_of(i, self._levels(actions)))

    def utility(self, i, actions) -> float:
        x = self._levels(actions)
        return self._base_utility(x[i]) - x[i] * self.contention(i, actions)

    def gradient_stack(self, i, actions) -> np.ndarray:
        x = [a[:, 0, 0].real for a in actions]
        g = self._base_slope(x[i]) - self._contention_of(i, x)
        return g.astype(complex)[:, None, None]

    def symmetric_equilibrium(self) -> float:
        """Symmetric first-order point U'(x) = q(x) solved by bisection."""
        def foc(x):
            q = 1.0 - (1.0 - x) ** (self.n_players - 1)
            return self._base_slope(x) - q

        lo, hi = 0.0, 1.0
        if foc(lo) <= 0:
            return 0.0
        if foc(hi) >= 0:
            return 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if foc(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def scalar_profile(values) -> tuple:
    """Wrap scalar access levels as 1x1 Hermitian actions."""
    return tuple(np.array([[float(v)]], dtype=complex) for v in values)


# ---------------------------------------------------------------------------
# Metric learning with a trace cap
# ---------------------------------------------------------------------------


def smooth_hinge(t: np.ndarray, delta: float = 0.1) -> np.ndarray:
    """Differentiable hinge: 0 below 0, quadratic ramp on [0, delta], affine above."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= 0.0, 0.0, np.where(t <= delta, t * t / (2 * delta), t - delta / 2))


def smooth_hinge_slope(t: np.ndarray, delta: float = 0.1) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(t <= 0.0, 0.0, np.where(t <= delta, t / delta, 1.0))


def make_cluster_dataset(n_features: int, n_points: int, n_classes: int = 2,
                         spread: float = 0.6, seed: int = 0):
    """Gaussian class clusters around fixed-norm centers; returns (points, labels)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, n_features))
    centers *= 1.5 / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    labels = np.arange(n_points) % n_classes
    points = centers[labels] + spread * rng.standard_normal((n_points, n_features))
    return points, labels


def similarity_triples(labels) -> np.ndarray:
    """All (anchor, similar, dissimilar) index triples induced by the labels."""
    labels = np.asarray(labels)
    idx = np.arange(labels.size)
    triples = []
    for a in idx:
        same = idx[(labels == labels[a]) & (idx != a)]
        diff = idx[labels != labels[a]]
        for j in same:
            for k in diff:
                triples.append((a, j, k))
    if not triples:
        raise ValueError("labels induce no (similar, dissimilar) triples")
    return np.array(triples, dtype=np.int64)


def mahalanobis_gaps(x: np.ndarray, points: np.ndarray, triples: np.ndarray,
                     margin: float) -> np.ndarray:
    """d_X(a,j) - d_X(a,k) - margin for each triple."""
    da = points[triples[:, 0]] - points[triples[:, 1]]
    dk = points[triples[:, 0]] - points[triples[:, 2]]
    xr = np.asarray(x).real
    return np.einsum("ti,ij,tj->t", da, xr, da) - np.einsum("ti,ij,tj->t", dk, xr, dk) - margin


def metric_objective(x: np.ndarray, points: np.ndarray, triples: np.ndarray,
                     margin: float, delta: float = 0.1) -> float:
    """Hinge-penalised triple loss plus the Frobenius pull toward the identity."""
    gaps = mahalanobis_gaps(x, points, triples, margin)
    reg = float(np.linalg.norm(np.asarray(x).real - np.eye(x.shape[0])) ** 2)
    return float(np.sum(smooth_hinge(gaps, delta))) + reg


def metric_gradient(x: np.ndarray, points: np.ndarray, triples: np.ndarray,
                    margin: float, delta: float = 0.1) -> np.ndarray:
    """Gradient of metric_objective in X (minimisation sense)."""
    gaps = mahalanobis_gaps(x, points, triples, margin)
    slopes = smooth_hinge_slope(gaps, delta)
    grad = 2.0 * (np.asarray(x).real - np.eye(x.shape[0]))
    active = np.nonzero(slopes)[0]
    if active.size:
        da = points[triples[active, 0]] - points[triples[active, 1]]
        dk = points[triples[active, 0]] - points[triples[active, 2]]
        w = slopes[active]
        grad = grad + np.einsum("t,ti,tj->ij", w, da, da) - np.einsum("t,ti,tj->ij", w, dk, dk)
    return grad.astype(complex)


class MetricLearningProblem(GameModel):
    """Single optimizer learning a trace-capped PSD precision matrix.

    The objective is the expectation over uniformly drawn minibatches of
    triples; the exact gradient is the scaled full-batch gradient and the
    stochastic oracle is exactly unbiased for it.
    """

    def __init__(self, points, labels, margin: float = 0.2, trace_cap: float | None = None,
                 batch_size: int = 16, delta: float = 0.1):
        self.points = np.asarray(points, dtype=float)
        self.labels = np.asarray(labels)
        self.margin = float(margin)
        self.delta = float(delta)
        self.batch_size = int(batch_size)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.triples = similarity_triples(self.labels)
        d = self.points.shape[1]
        cap = float(trace_cap) if trace_cap is not None else d / 2.0
        super().__init__([Spectrahedron(d, cap)])

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    def _scale(self) -> float:
        # expectation over a size-|W| uniform minibatch scales the triple sum
        return self.batch_size / self.n_triples

    def full_objective(self, x) -> float:
        return metric_objective(x, self.points, self.triples, self.margin, self.delta)

    def expected_objective(self, x) -> float:
        gaps = mahalanobis_gaps(x, self.points, self.triples, self.margin)
        reg = float(np.linalg.norm(np.asarray(x).real - np.eye(x.shape[0])) ** 2)
        return self._scale() * float(np.sum(smooth_hinge(gaps, self.delta))) + reg

    def utility(self, i, actions) -> float:
        return -self.expected_objective(actions[0])

    def _gradient(self, x) -> np.ndarray:
        full = metric_gradient(x, self.points, self.triples, self.margin, self.delta)
        reg = 2.0 * (np.asarray(x).real - np.eye(x.shape[0])).astype(complex)
        return -(self._scale() * (full - reg) + reg)

    def gradient_stack(self, i, actions) -> np.ndarray:
        return np.stack([self._gradient(x) for x in actions[0]])

    def stochastic_gradient(self, i, actions, rng: np.random.Generator) -> np.ndarray:
        """Utility-sense gradient of a uniformly drawn minibatch of triples."""
        batch = rng.integers(0, self.n_triples, size=self.batch_size)
        return -metric_gradient(actions[0], self.points, self.triples[batch], self.margin,
                                self.delta)


# ---------------------------------------------------------------------------
# Energy efficiency in multi-carrier MIMO interference networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSet:
    """Per-link, per-subcarrier channel matrices.

    links[j, i, s] is the (n_rx, n_tx) channel from transmitter j to receiver i
    on subcarrier s; gains[j, i] is the average power of its entries.
    """

    links: np.ndarray
    gains: np.ndarray
    seed: int

    @property
    def n_users(self) -> int:
        return self.links.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.links.shape[2]

    @property
    def n_rx(self) -> int:
        return self.links.shape[3]

    @property
    def n_tx(self) -> int:
        return self.links.shape[4]

    def to_json(self) -> str:
        payload = {
            "version": FIXTURE_VERSION,
            "kind": "channels",
            "seed": self.seed,
            "dims": list(self.links.shape),
            "gains": self.gains.tolist(),
            "entries_re": self.links.real.tolist(),
            "entries_im": self.links.imag.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChannelSet":
        payload = json.loads(text)
        if payload.get("version") != FIXTURE_VERSION or payload.get("kind") != "channels":
            raise ValueError("not a recognised channel fixture")
        re, im, gains = (np.array(payload[key], dtype=float)
                         for key in ("entries_re", "entries_im", "gains"))
        if not all(np.isfinite(a).all() for a in (re, im, gains)):
            raise ValueError("channel fixture has non-finite entries or gains")
        return cls(links=re + 1j * im, gains=gains, seed=int(payload["seed"]))


def _fading(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def synth_channels(n_users: int, n_tx: int, n_rx: int, n_subcarriers: int,
                   pathloss_spread: float = 1.0, seed: int = 0) -> ChannelSet:
    """Synthetic block-fading channels with log-spaced per-link pathloss.

    Entries are i.i.d. complex Gaussian scaled so E[tr(H H^dag)] = n_tx * n_rx *
    gain, with per-link gains log-uniform over `pathloss_spread` decades
    (spread 0 means unit gain everywhere). Deterministic per seed.
    """
    if min(n_users, n_tx, n_rx, n_subcarriers) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    gains = 10.0 ** (pathloss_spread * (rng.random((n_users, n_users)) - 0.5))
    links = _fading(rng, (n_users, n_users, n_subcarriers, n_rx, n_tx))
    links = links * np.sqrt(gains)[:, :, None, None, None]
    return ChannelSet(links=links, gains=gains, seed=seed)


def transform_q_to_x(q: np.ndarray, pc: float, pmax: float) -> np.ndarray:
    """Fractional-program change of variables mapping covariances into the unit set."""
    q = hermitize(np.asarray(q, dtype=complex))
    tr_q = float(np.trace(q).real)
    w = np.linalg.eigvalsh(q)
    if w[0] < -1e-10 or tr_q > pmax + 1e-10:
        raise DomainError("covariance must be PSD with trace <= pmax")
    kappa = (pc + pmax) / pmax
    return kappa * q / (pc + tr_q)


def transform_x_to_q(x: np.ndarray, pc: float, pmax: float) -> np.ndarray:
    """Inverse change of variables; exact round trip with transform_q_to_x."""
    x = hermitize(np.asarray(x, dtype=complex))
    tau = float(np.trace(x).real)
    w = np.linalg.eigvalsh(x)
    if w[0] < -1e-10 or tau > 1.0 + 1e-10:
        raise DomainError("argument must be PSD with trace <= 1")
    kappa = (pc + pmax) / pmax
    tr_q = tau * pc / (kappa - tau)
    return x * (pc + tr_q) / kappa


class EeGame(GameModel):
    """Energy-efficiency game in transformed coordinates.

    Each user controls a block-diagonal unit-trace-bounded matrix (one block per
    subcarrier). Utilities equal the physical energy efficiency (achievable rate
    over circuit-plus-radiated power) of the inverse-transformed covariances;
    interference enters through the received covariance I + sum_j H Q_j H^dag.
    """

    def __init__(self, channels: ChannelSet, pmax: float = 2.0, pc: float = 0.1):
        if pmax <= 0 or pc <= 0:
            raise ValueError("pmax and pc must be positive")
        self.channels = channels
        self.pmax = float(pmax)
        self.pc = float(pc)
        m, s = channels.n_tx, channels.n_subcarriers
        self._domain = Spectrahedron(m * s, 1.0, blocks=(m,) * s)
        super().__init__([self._domain] * channels.n_users)

    # -- helpers ------------------------------------------------------------

    def _blocks(self, x) -> list[np.ndarray]:
        x = np.asarray(x)
        return [x[sl, sl] for sl in self._domain.slices]

    def _prefactors(self, tau: float) -> tuple[float, float]:
        d = self.pc + (1.0 - tau) * self.pmax
        phi = d / (self.pc * (self.pc + self.pmax))
        psi = self.pc * self.pmax / d
        return phi, psi

    def _mui(self, i: int, actions) -> list[np.ndarray]:
        """Interference-plus-noise covariance per subcarrier at receiver i."""
        n_rx = self.channels.n_rx
        w = [np.eye(n_rx, dtype=complex) for _ in range(self.channels.n_subcarriers)]
        for j in range(self.n_players):
            if j == i:
                continue
            qj = transform_x_to_q(actions[j], self.pc, self.pmax)
            for s, qs in enumerate(self._blocks(qj)):
                h = self.channels.links[j, i, s]
                w[s] = w[s] + h @ qs @ h.conj().T
        return w

    # -- GameModel interface --------------------------------------------------

    def _received(self, i: int, actions, psi: float):
        """Per subcarrier at receiver i: (H, K = H X_s H^dag, A = W + psi K), and the
        sum of log det A - log det W over subcarriers.

        A channel large enough to overflow leaves W or A non-finite, which fails
        the definiteness check with DomainError; numpy's warnings about that
        overflow are silenced here only.
        """
        out, total = [], 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for s, (w, xs) in enumerate(zip(self._mui(i, actions), self._blocks(actions[i]))):
                h = self.channels.links[i, i, s]
                k = h @ xs @ h.conj().T
                a = w + psi * k
                sign_a, logdet_a = np.linalg.slogdet(a)
                sign_w, logdet_w = np.linalg.slogdet(w)
                if not (sign_a.real > 0 and sign_w.real > 0):
                    raise DomainError("received covariance lost definiteness")
                total += float(logdet_a.real - logdet_w.real)
                out.append((h, k, a))
        return out, total

    def utility(self, i, actions) -> float:
        phi, psi = self._prefactors(float(np.trace(np.asarray(actions[i])).real))
        return phi * self._received(i, actions, psi)[1]

    def _gradient(self, i: int, actions) -> np.ndarray:
        """Player i's payoff gradient at one profile."""
        tau = float(np.trace(np.asarray(actions[i])).real)
        phi, psi = self._prefactors(tau)
        d = self.pc + (1.0 - tau) * self.pmax
        phi_slope = -self.pmax / (self.pc * (self.pc + self.pmax))
        psi_slope = self.pc * self.pmax * self.pmax / (d * d)

        received, log_sum = self._received(i, actions, psi)
        dim = self._domain.dim
        grad = np.zeros((dim, dim), dtype=complex)
        trace_sum = 0.0
        for sl, (h, k, a) in zip(self._domain.slices, received):
            a_inv_h = np.linalg.solve(a, h)
            trace_sum += float(np.trace(np.linalg.solve(a, k)).real)
            grad[sl, sl] = phi * psi * (h.conj().T @ a_inv_h)
        scalar = phi_slope * log_sum + phi * psi_slope * trace_sum
        grad = grad + scalar * np.eye(dim, dtype=complex)
        return hermitize(grad)

    def gradient_stack(self, i, actions) -> np.ndarray:
        return np.stack([self._gradient(i, [a[s] for a in actions])
                         for s in range(len(actions[i]))])

    # -- physical-coordinate oracles ------------------------------------------

    def throughput(self, i: int, q_profile) -> float:
        """Achievable rate of user i at covariance profile Q (nats)."""
        x_like = [transform_q_to_x(q, self.pc, self.pmax) for q in q_profile]
        mui = self._mui(i, x_like)
        total = 0.0
        qi = np.asarray(q_profile[i])
        for s, w in enumerate(mui):
            h = self.channels.links[i, i, s]
            qs = self._blocks(qi)[s]
            a = w + h @ qs @ h.conj().T
            total += float(np.linalg.slogdet(a)[1].real - np.linalg.slogdet(w)[1].real)
        return total

    def energy_efficiency(self, i: int, q_profile) -> float:
        """Rate over total consumed power, evaluated directly in covariances."""
        qi = np.asarray(q_profile[i])
        return self.throughput(i, q_profile) / (self.pc + float(np.trace(qi).real))


def uniform_baseline(game: EeGame):
    """Half-power covariances spread evenly over antennas and subcarriers."""
    dim = game._domain.dim
    q = (game.pmax / 2.0) / dim * np.eye(dim, dtype=complex)
    x = transform_q_to_x(q, game.pc, game.pmax)
    return tuple(x.copy() for _ in range(game.n_players))
