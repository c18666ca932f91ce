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
from .spectral import DomainError, Spectrahedron, _dagger, hermitize, ordered_sum

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

    def utility_stack(self, i, actions) -> np.ndarray:
        x = [a[:, 0, 0].real for a in actions]
        return self._base_utility(x[i]) - x[i] * self._contention_of(i, x)

    def gradient_stack(self, i, actions) -> np.ndarray:
        x = [a[:, 0, 0].real for a in actions]
        g = self._base_slope(x[i]) - self._contention_of(i, x)
        return g.astype(complex)[:, None, None]


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


def metric_gradient(x: np.ndarray, points: np.ndarray, triples: np.ndarray,
                    margin: float, delta: float = 0.1) -> np.ndarray:
    """Gradient in X (minimisation sense) of the hinge-penalised triple loss plus the
    Frobenius pull toward the identity, sum_t hinge(gap_t) + ||X - I||_F^2."""
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

    def expected_objective(self, x) -> float:
        gaps = mahalanobis_gaps(x, self.points, self.triples, self.margin)
        reg = float(np.linalg.norm(np.asarray(x).real - np.eye(x.shape[0])) ** 2)
        return self._scale() * float(np.sum(smooth_hinge(gaps, self.delta))) + reg

    def utility_stack(self, i, actions) -> np.ndarray:
        return np.array([-self.expected_objective(x) for x in actions[0]])

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


def _feasible_covariance(q: np.ndarray, pmax: float) -> np.ndarray:
    """Hermitian part of a covariance; DomainError unless it is PSD with trace <= pmax."""
    q = hermitize(np.asarray(q, dtype=complex))
    if np.linalg.eigvalsh(q)[0] < -1e-10 or np.trace(q).real > pmax + 1e-10:
        raise DomainError("covariance must be PSD with trace <= pmax")
    return q


def transform_q_to_x(q: np.ndarray, pc: float, pmax: float) -> np.ndarray:
    """Fractional-program change of variables mapping covariances into the unit set."""
    q = _feasible_covariance(q, pmax)
    return (pc + pmax) / pmax * q / (pc + float(np.trace(q).real))


def transform_x_to_q(x: np.ndarray, pc: float, pmax: float) -> np.ndarray:
    """Inverse change of variables, over (..., d, d) stacks; exact round trip with transform_q_to_x."""
    x = hermitize(np.asarray(x, dtype=complex))
    return _x_to_q(x, x.trace(axis1=-2, axis2=-1).real[..., None, None], pc, pmax)


def _x_to_q(x: np.ndarray, tau, pc: float, pmax: float) -> np.ndarray:
    """transform_x_to_q of Hermitian matrices x, or of their diagonal blocks, where tau holds
    each whole matrix's trace shaped to broadcast against x; DomainError unless every
    matrix in x is PSD and every trace is at most 1."""
    if (np.linalg.eigvalsh(x)[..., 0] < -1e-10).any() or (tau > 1.0 + 1e-10).any():
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
    Utility and gradient are one array formula each over profile stacks and
    subcarriers, in a per-subcarrier loop's operation order and so bit for bit its values.
    Every evaluation first maps each player's subcarrier blocks to covariance blocks
    (`_covariance_blocks`, which checks each block, not the whole matrix), once per
    profile stack: `gradient_stacks` shares them between all receivers it evaluates.
    The conjugate-transposed links are taken once per game.
    """

    def __init__(self, channels: ChannelSet, pmax: float = 2.0, pc: float = 0.1):
        if pmax <= 0 or pc <= 0:
            raise ValueError("pmax and pc must be positive")
        self.channels = channels
        self.pmax = float(pmax)
        self.pc = float(pc)
        m, s = channels.n_tx, channels.n_subcarriers
        self._domain = Spectrahedron(m * s, 1.0, blocks=s)
        self._links_dagger = _dagger(channels.links)  # [j, i] is _dagger(channels.links[j, i])
        super().__init__([self._domain] * channels.n_users)

    # -- helpers ------------------------------------------------------------

    def _covariance_blocks(self, x) -> np.ndarray:
        """Subcarrier blocks of transform_x_to_q(X) for an (..., d, d) stack X.

        Only the blocks enter the game, so only they are checked (DomainError unless
        every block is PSD and every trace is at most 1), by eigenvalues per block.
        """
        x = np.asarray(x, dtype=complex)
        tau = np.trace(x, axis1=-2, axis2=-1).real[..., None, None, None]
        return _x_to_q(hermitize(self._domain.diagonal_blocks(x)), tau, self.pc, self.pmax)

    def _prefactors(self, tau):
        d = self.pc + (1.0 - tau) * self.pmax
        phi = d / (self.pc * (self.pc + self.pmax))
        psi = self.pc * self.pmax / d
        return phi, psi

    def _mui(self, i: int, covariances) -> np.ndarray:
        """(..., n_sub, n_rx, n_rx) stack of I + sum_{j != i} H Q_j H^dag at receiver i, in
        player order, from each player's (..., n_sub, m, m) covariance blocks."""
        w = np.eye(self.channels.n_rx, dtype=complex)
        for j, q in enumerate(covariances):
            if j != i:
                w = w + self.channels.links[j, i] @ q @ self._links_dagger[j, i]
        return w

    # -- GameModel interface --------------------------------------------------

    def _received(self, i: int, x, covariances, psi):
        """Per profile and subcarrier at receiver i, whose action stack is x: H,
        K = H X_s H^dag, A = W + psi K, and per profile the sum of log det A - log det W
        over subcarriers.

        A channel large enough to overflow leaves W or A non-finite, which fails
        the definiteness check with DomainError; numpy's warnings about that
        overflow are silenced here only.
        """
        h = self.channels.links[i, i]
        with np.errstate(over="ignore", invalid="ignore"):
            w = self._mui(i, covariances)
            k = h @ self._domain.diagonal_blocks(x) @ self._links_dagger[i, i]
            a = w + psi[:, None, None, None] * k
            sign_a, logdet_a = np.linalg.slogdet(a)
            sign_w, logdet_w = np.linalg.slogdet(w)
            if not ((sign_a.real > 0).all() and (sign_w.real > 0).all()):
                raise DomainError("received covariance lost definiteness")
        return h, k, a, ordered_sum(logdet_a.real - logdet_w.real)

    def utility_stack(self, i, actions) -> np.ndarray:
        covariances = [self._covariance_blocks(x) for x in actions]
        phi, psi = self._prefactors(np.trace(actions[i], axis1=-2, axis2=-1).real)
        return phi * self._received(i, actions[i], covariances, psi)[-1]

    def gradient_stack(self, i, actions) -> np.ndarray:
        return self.gradient_stacks(actions, (i,))[0]

    def gradient_stacks(self, actions, players) -> list[np.ndarray]:
        covariances = [self._covariance_blocks(x) for x in actions]
        return [self._gradient(i, actions[i], covariances) for i in players]

    def _gradient(self, i: int, x, covariances) -> np.ndarray:
        """Receiver i's gradient stack at its action stack x, from all covariance blocks."""
        tau = np.trace(x, axis1=-2, axis2=-1).real
        phi, psi = self._prefactors(tau)
        d = self.pc + (1.0 - tau) * self.pmax
        phi_slope = -self.pmax / (self.pc * (self.pc + self.pmax))
        psi_slope = self.pc * self.pmax * self.pmax / (d * d)

        h, k, a, log_sum = self._received(i, x, covariances, psi)
        trace_sum = ordered_sum(np.trace(np.linalg.solve(a, k), axis1=-2, axis2=-1).real)
        # h[None] has a's ndim, so numpy 1.x also solves it as matrices, not as vectors
        blocks = ((phi * psi)[:, None, None, None]
                  * (self._links_dagger[i, i] @ np.linalg.solve(a, h[None])))
        scalar = phi_slope * log_sum + phi * psi_slope * trace_sum
        eye = np.eye(self.channels.n_tx, dtype=complex)
        return self._domain.block_diagonal(hermitize(blocks + scalar[:, None, None, None] * eye))

    # -- physical-coordinate oracles ------------------------------------------

    def throughput(self, i: int, q_profile) -> float:
        """Achievable rate of user i at covariance profile Q (nats); DomainError if Q is infeasible."""
        blocks = [self._domain.diagonal_blocks(_feasible_covariance(q, self.pmax))
                  for q in q_profile]
        w = self._mui(i, blocks)
        a = w + self.channels.links[i, i] @ blocks[i] @ self._links_dagger[i, i]
        return float(ordered_sum(np.linalg.slogdet(a)[1].real - np.linalg.slogdet(w)[1].real))

    def energy_efficiency(self, i: int, q_profile) -> float:
        """Rate over total consumed power, evaluated directly in covariances."""
        return self.throughput(i, q_profile) / (self.pc + float(np.trace(q_profile[i]).real))


def uniform_baseline(game: EeGame):
    """Half-power covariances spread evenly over antennas and subcarriers."""
    dim = game._domain.dim
    q = (game.pmax / 2.0) / dim * np.eye(dim, dtype=complex)
    x = transform_q_to_x(q, game.pc, game.pmax)
    return tuple(x.copy() for _ in range(game.n_players))
