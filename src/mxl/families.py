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
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
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
        if (not isinstance(payload, dict) or payload.get("version") != FIXTURE_VERSION
                or payload.get("kind") != "channels"):
            raise ValueError("not a recognised channel fixture")
        if missing := {"seed", "dims", "gains", "entries_re", "entries_im"} - set(payload):
            raise ValueError(f"channel fixture misses {sorted(missing)}")
        re, im, gains = (np.array(payload[key], dtype=float)
                         for key in ("entries_re", "entries_im", "gains"))
        if (re.ndim != 5 or im.shape != re.shape or min(re.shape) < 1 or re.shape[1] != re.shape[0]
                or gains.shape != re.shape[:2] or payload["dims"] != list(re.shape)):
            raise ValueError("channel fixture entries must share one (users, users, subcarriers, "
                             "rx, tx) shape of sizes >= 1 that dims repeats, with gains (users, users)")
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


def _x_to_q(x: np.ndarray, tau, pc: float, pmax: float, checked: bool = True) -> np.ndarray:
    """transform_x_to_q of Hermitian matrices x, or of their diagonal blocks, where tau holds
    each whole matrix's trace shaped to broadcast against x; DomainError unless every
    matrix in x is PSD and every trace is at most 1 (not checked with `checked=False`)."""
    if checked and ((np.linalg.eigvalsh(x)[..., 0] < -1e-10).any() or (tau > 1.0 + 1e-10).any()):
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
    Every evaluation is one pass over a leading receiver axis: one covariance mapping
    of all players' subcarrier blocks (`_covariance_blocks`, which checks the blocks,
    not the whole matrices), then one `_received` for all listed receivers at once,
    whose interference sums take one product per interferer step, and one log-det,
    solve and gradient assembly for the whole (P, S, n_sub, ...) stack. Each
    receiver's values are those of a per-receiver, per-subcarrier loop bit for bit, as
    each keeps its operation order. That pass is `evaluate_stacks`, and
    `gradient_stacks`, `utility_stack` and `gradient_stack` read their parts of it;
    `throughput` is `_received` with one receiver. The conjugate-transposed links are
    taken once per game.
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

    def _covariance_blocks(self, actions, checked: bool = True):
        """(x, tau, q) for every player's (S, d, d) stack: the (N, S, n_sub, m, m) subcarrier
        blocks x, the (N, S) traces tau of the whole matrices, and the blocks q of
        transform_x_to_q(X).

        Only the blocks enter the game, so only they are checked (DomainError unless
        every block is PSD and every trace is at most 1), by one eigvalsh over them all.
        With `checked=False` X is taken as exactly Hermitian and feasible: its blocks are
        neither checked nor hermitized, which leaves such blocks' bits as they are.
        """
        x = np.array([self._domain.diagonal_blocks(a) for a in actions], dtype=complex)
        tau = np.array([np.trace(a, axis1=-2, axis2=-1).real for a in actions])
        return x, tau, _x_to_q(hermitize(x) if checked else x, tau[..., None, None, None],
                               self.pc, self.pmax, checked)

    def _prefactors(self, tau):
        d = self.pc + (1.0 - tau) * self.pmax
        phi = d / (self.pc * (self.pc + self.pmax))
        psi = self.pc * self.pmax / d
        return phi, psi

    def _received(self, players, x, q, psi):
        """Per receiver in `players`, profile and subcarrier, with the receivers' own blocks
        x (P, S, n_sub, m, m), every player's covariance blocks q (N, S, n_sub, m, m) and
        psi (P, S): H, K = H X_s H^dag, A = W + psi K with W = I + sum_{j != i} H Q_j H^dag,
        and per receiver and profile the sum of log det A - log det W over subcarriers.

        Step k of the interference adds, for every receiver i at once, player
        j = k + (k >= i), so each receiver sums its interferers in player order.
        A channel large enough to overflow leaves W or A non-finite, which fails
        the definiteness check with DomainError; numpy's warnings about that
        overflow are silenced here only.
        """
        i = np.asarray(players, dtype=np.intp)
        links, dagger = self.channels.links, self._links_dagger
        h = links[i, i][:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.eye(self.channels.n_rx, dtype=complex)
            for step in range(len(q) - 1):
                j = step + (step >= i)
                w = w + links[j, i][:, None] @ q[j] @ dagger[j, i][:, None]
            k = h @ x @ dagger[i, i][:, None]
            a = w + psi[..., None, None, None] * k
            sign_a, logdet_a = np.linalg.slogdet(a)
            sign_w, logdet_w = np.linalg.slogdet(w)
            if not ((sign_a.real > 0).all() and (sign_w.real > 0).all()):
                raise DomainError("received covariance lost definiteness")
        return h, k, a, ordered_sum(logdet_a.real - logdet_w.real)

    # -- GameModel interface --------------------------------------------------

    def utility_stack(self, i, actions) -> np.ndarray:
        return self.evaluate_stacks(actions, (i,))[1][0]

    def gradient_stack(self, i, actions) -> np.ndarray:
        return self.gradient_stacks(actions, (i,))[0]

    def gradient_stacks(self, actions, players, checked: bool = True) -> np.ndarray:
        return self.evaluate_stacks(actions, players, checked)[0]

    def evaluate_stacks(self, actions, players, checked: bool = True):
        """The listed receivers' gradients, one (P, S, d, d) array, and utilities
        phi * log_sum, one (P, S) array, from one pass."""
        players = list(players)
        x, tau, q = self._covariance_blocks(actions, checked)
        tau = tau[players]
        phi, psi = self._prefactors(tau)
        d = self.pc + (1.0 - tau) * self.pmax
        phi_slope = -self.pmax / (self.pc * (self.pc + self.pmax))
        psi_slope = self.pc * self.pmax * self.pmax / (d * d)

        h, k, a, log_sum = self._received(players, x[players], q, psi)
        trace_sum = ordered_sum(np.trace(np.linalg.solve(a, k), axis1=-2, axis2=-1).real)
        # h has a's ndim, so numpy 1.x also solves it as matrices, not as vectors
        dagger = self._links_dagger[players, players][:, None]
        blocks = (phi * psi)[..., None, None, None] * (dagger @ np.linalg.solve(a, h))
        scalar = phi_slope * log_sum + phi * psi_slope * trace_sum
        eye = np.eye(self.channels.n_tx, dtype=complex)
        v = self._domain.block_diagonal(hermitize(blocks + scalar[..., None, None, None] * eye))
        return v, phi * log_sum

    # -- physical-coordinate oracles ------------------------------------------

    def throughput(self, i: int, q_profile) -> float:
        """Achievable rate of user i at covariance profile Q (nats); DomainError if Q is
        infeasible or a channel large enough to overflow makes W or A lose definiteness."""
        q = np.array([self._domain.diagonal_blocks(_feasible_covariance(c, self.pmax))
                      for c in q_profile])[:, None]
        # psi = 1, so A = W + 1.0 * K: the same bits as W + K
        return float(self._received([i], q[[i]], q, np.ones((1, 1)))[-1][0, 0])

    def energy_efficiency(self, i: int, q_profile) -> float:
        """Rate over total consumed power, evaluated directly in covariances."""
        return self.throughput(i, q_profile) / (self.pc + float(np.trace(q_profile[i]).real))


def uniform_baseline(game: EeGame):
    """Half-power covariances spread evenly over antennas and subcarriers."""
    dim = game._domain.dim
    q = (game.pmax / 2.0) / dim * np.eye(dim, dtype=complex)
    x = transform_q_to_x(q, game.pc, game.pmax)
    return tuple(x.copy() for _ in range(game.n_players))
