"""Helpers shared by the test modules."""

import numpy as np

from mxl.families import EeGame, MacGame, MetricLearningProblem, mahalanobis_gaps, smooth_hinge
from mxl.games import BilinearGame, LinearGame, ZeroGame
from mxl.solver import AsyncSchedule, NonFiniteGradientError, inject_noise, relative_sigma
from mxl.spectral import (
    OFF_BLOCK_TOL,
    DomainError,
    _entropy_of,
    block_noise,
    exp_projection,
    hermitize,
)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix with E||.||_F^2 = scale^2 * dim."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) * (scale / (2.0 * np.sqrt(dim)))


def concavity_violations(game, i: int, samples: int, seed: int = 0, tol: float = 1e-9) -> int:
    """Random midpoint test of player i's own-action concavity; returns the violation count."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(samples):
        base = list(game.sample_profile(rng))
        a = game.players[i].domain.sample(rng)
        b = game.players[i].domain.sample(rng)
        vals = []
        for x in (a, b, (a + b) / 2):
            base[i] = x
            vals.append(game.utility(i, tuple(base)))
        if vals[2] < (vals[0] + vals[1]) / 2 - tol:
            bad += 1
    return bad


def block_slices(domain) -> list:
    """Index ranges of a domain's diagonal blocks, for the per-block reference loops."""
    m = domain.dim // domain.blocks
    return [slice(k * m, (k + 1) * m) for k in range(domain.blocks)]


# The per-matrix spectral formulas that the stacked ones replaced, kept as references:
# every row of a stacked evaluation must equal them bit for bit.

def ref_log_conjugate_from_eigs(w: np.ndarray) -> float:
    m = max(0.0, float(w[-1]))
    return m + float(np.log(np.exp(-m) + np.sum(np.exp(w - m))))


def ref_entropy_of(x: np.ndarray, bound: float) -> float:
    w = np.linalg.eigvalsh(hermitize(np.asarray(x, dtype=complex))) / bound
    w = np.clip(w, 0.0, None)
    slack = max(0.0, 1.0 - float(w.sum()))
    parts = w[w > 0.0]
    val = float(np.sum(parts * np.log(parts)))
    if slack > 0.0:
        val += slack * np.log(slack)
    return val


def ref_trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", a, b).real)


def ref_quantum_kl(xref: np.ndarray, x: np.ndarray) -> float:
    nu = np.clip(np.linalg.eigvalsh(xref), 0.0, None)
    ref_entropy = float(np.sum(nu[nu > 0.0] * np.log(nu[nu > 0.0])))
    mu, u = np.linalg.eigh(x)
    weights = np.clip(np.einsum("ji,jk,ki->i", u.conj(), xref, u).real, 0.0, None)
    cross = 0.0
    for m, wgt in zip(mu, weights):
        if m <= 1e-300:
            if wgt > 1e-12:
                return float("inf")
        else:
            cross += wgt * np.log(m)
    s_ref = max(0.0, 1.0 - float(np.trace(xref).real))
    s_x = max(0.0, 1.0 - float(np.trace(x).real))
    slack = 0.0
    if s_ref > 1e-12:
        if s_x <= 1e-300:
            return float("inf")
        slack = s_ref * (np.log(s_ref) - np.log(s_x))
    return float(ref_entropy - cross + slack)


def ref_profile_kl(game, reference, actions) -> float:
    total = 0.0
    for spec, ref, x in zip(game.players, reference, actions):
        a = spec.domain.trace_bound
        total += ref_quantum_kl(np.asarray(ref) / a, np.asarray(x) / a)
    return total


# Functions only the tests use, kept out of the package.

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

def herm_expm(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via eigendecomposition."""
    w, u = np.linalg.eigh(h)
    return hermitize((u * np.exp(w)) @ u.conj().T)


def von_neumann_entropy(x: np.ndarray, domain) -> float:
    """Entropy tr(X log X) + (1 - tr X) log(1 - tr X) on the unit spectrahedron, X rescaled
    by the domain's trace bound; DomainError unless X is a member."""
    domain.require_member(x, name="entropy argument")
    return _entropy_of(x, domain.trace_bound)


def metric_objective(x: np.ndarray, points: np.ndarray, triples: np.ndarray,
                     margin: float, delta: float = 0.1) -> float:
    """Hinge-penalised triple loss plus the Frobenius pull toward the identity."""
    gaps = mahalanobis_gaps(x, points, triples, margin)
    reg = float(np.linalg.norm(np.asarray(x).real - np.eye(x.shape[0])) ** 2)
    return float(np.sum(smooth_hinge(gaps, delta))) + reg


def full_objective(problem: MetricLearningProblem, x) -> float:
    """A metric-learning problem's objective on the full set of triples."""
    return metric_objective(x, problem.points, problem.triples, problem.margin, problem.delta)


def contention(game: MacGame, i: int, actions) -> float:
    """Player i's collision contention 1 - prod_{j != i}(1 - x_j) at one profile."""
    return float(game._contention_of(i, [float(x[0, 0].real) for x in actions]))


def symmetric_equilibrium(game: MacGame) -> float:
    """A MAC game's symmetric first-order point U'(x) = q(x), solved by bisection."""
    def foc(x):
        q = 1.0 - (1.0 - x) ** (game.n_players - 1)
        return game._base_slope(x) - q

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


# The per-profile EE formula with its subcarrier loops that the stacked one replaced. The
# stacked one keeps its operation order, so it must match bit for bit.

def ref_x_to_q(x, pc, pmax):
    x = hermitize(np.asarray(x, dtype=complex))
    tau = float(np.trace(x).real)
    w = np.linalg.eigvalsh(x)
    if w[0] < -1e-10 or tau > 1.0 + 1e-10:
        raise DomainError("argument must be PSD with trace <= 1")
    kappa = (pc + pmax) / pmax
    tr_q = tau * pc / (kappa - tau)
    return x * (pc + tr_q) / kappa


def ref_mui(game, i, actions):
    n_rx = game.channels.n_rx
    w = [np.eye(n_rx, dtype=complex) for _ in range(game.channels.n_subcarriers)]
    for j in range(game.n_players):
        if j == i:
            continue
        qj = ref_x_to_q(actions[j], game.pc, game.pmax)
        for s, sl in enumerate(block_slices(game.domains[j])):
            h = game.channels.links[j, i, s]
            w[s] = w[s] + h @ qj[sl, sl] @ h.conj().T
    return w


def ref_received(game, i, actions, psi):
    out, total = [], 0.0
    for s, (w, sl) in enumerate(zip(ref_mui(game, i, actions), block_slices(game.domains[i]))):
        h = game.channels.links[i, i, s]
        k = h @ np.asarray(actions[i])[sl, sl] @ h.conj().T
        a = w + psi * k
        sign_a, logdet_a = np.linalg.slogdet(a)
        sign_w, logdet_w = np.linalg.slogdet(w)
        if not (sign_a.real > 0 and sign_w.real > 0):
            raise DomainError("received covariance lost definiteness")
        total += float(logdet_a.real - logdet_w.real)
        out.append((h, k, a))
    return out, total


# The per-profile utilities and Nash residual that the stacked ones replaced, kept as
# references: every row of a stacked evaluation must equal them bit for bit.

def ref_utility(game, i: int, actions) -> float:
    """Player i's utility at one profile, by each family's scalar formula."""
    if isinstance(game, ZeroGame):
        return 0.0
    if isinstance(game, LinearGame):
        return ref_trace_inner(game._c[i], actions[i])
    if isinstance(game, BilinearGame):
        xi = float(actions[i][0, 0].real)
        xj = float(actions[1 - i][0, 0].real)
        return xi * (xj - game.threshold)
    if isinstance(game, MacGame):
        x = np.array([float(a[0, 0].real) for a in actions])
        return game._base_utility(x[i]) - x[i] * contention(game, i, actions)
    if isinstance(game, MetricLearningProblem):
        return -game.expected_objective(actions[0])
    if isinstance(game, EeGame):
        phi, psi = game._prefactors(float(np.trace(np.asarray(actions[i])).real))
        return phi * ref_received(game, i, actions, psi)[1]
    raise TypeError(f"no reference utility for {type(game).__name__}")


def ref_nash_residual(game, actions) -> float:
    """The per-profile Nash residual: a membership check, one gradient and one eigvalsh per
    player, and Python's max over the players' gaps."""
    game.require_feasible(actions)
    worst = 0.0
    for i, (spec, v) in enumerate(zip(game.players, game.gradient_profile(actions))):
        top = float(np.linalg.eigvalsh(hermitize(v))[-1])
        gap = spec.domain.trace_bound * max(top, 0.0) - ref_trace_inner(actions[i], v)
        worst = max(worst, gap)
    return worst


# The sampler and the learning epoch that the batched ones replaced, kept as references.

def ref_sample(domain, rng: np.random.Generator) -> np.ndarray:
    """One random member: Dirichlet eigenvalues, then one Haar unitary per block, assembled
    block by block."""
    lam = domain.trace_bound * rng.dirichlet(np.ones(domain.dim + 1))[: domain.dim]
    out = np.zeros((domain.dim, domain.dim), dtype=complex)
    for sl in block_slices(domain):
        u = haar_unitary(sl.stop - sl.start, rng)
        out[sl, sl] = (u * lam[sl]) @ u.conj().T
    return hermitize(out)


def ref_dense_perturb(noise, i, v):
    """`SeedNoise.perturb` on whole matrices: the Hermitian part of V + Z for player i's
    gradient stack V, drawn as the solver draws it."""
    model = noise.model
    if model.kind == "none":
        return hermitize(v)
    domain = noise.game.players[i].domain
    if not noise.chunked:
        with np.errstate(over="ignore", invalid="ignore"):
            return hermitize(np.stack([inject_noise(vs, model, rng, domain)
                                       for vs, rng in zip(v, noise.rngs)]))
    sigma = model.sigma
    if model.kind == "relative":
        sigma = relative_sigma(v, model.level)[..., None, None, None]
    n, m = domain.blocks, v.shape[-1] // domain.blocks
    normals = noise._next(noise.widths[i]).reshape(v.shape[:-2] + (n, 2, m, m))
    return hermitize(v + domain.block_diagonal(block_noise(normals, sigma, model.hermitian)))


def ref_advance(game, state, step_schedule, noise, steps, async_schedule=None, sched_rng=None):
    """`solver.advance` player by player on whole matrices: each updating player takes its own
    noise draw (`ref_dense_perturb`), score update, checks and exponential projection, in update
    order. It reads the state's block stacks once and writes back the blocks of each epoch's
    scores and actions."""
    schedule = async_schedule or AsyncSchedule((1.0,) * game.n_players)
    probs, d_max = schedule.probabilities, schedule.delay_max
    weights = np.array(probs) / sum(probs)
    domains = game.domains
    dense = [[d.block_diagonal(x).copy() for d, x in zip(domains, stacks)]
             for stacks in (state.scores, state.actions)]
    history = [tuple(dense[1])]
    for n in range(state.n, steps + 1):
        if schedule.mode == "single":
            update_set = [int(sched_rng.choice(game.n_players, p=weights))]
        elif all(p == 1.0 for p in probs):
            update_set = range(game.n_players)
        else:
            update_set = [i for i, p in enumerate(probs) if sched_rng.random() < p]
        gamma, scores = float("nan"), []
        batched = d_max == 0 and not noise.drawing
        if batched:
            gradients = game.gradient_stacks(history[0], update_set)
        for k, i in enumerate(update_set):
            if batched:
                v = gradients[k]
            else:
                delayed = history[0]
                if d_max:
                    lags = sched_rng.integers(0, d_max + 1, size=game.n_players)
                    delayed = tuple(history[min(int(lag), len(history) - 1)][j]
                                    for j, lag in enumerate(lags))
                if noise.drawing:
                    v = np.stack([game.stochastic_gradient(i, [a[s] for a in delayed], rng)
                                  for s, rng in enumerate(noise.rngs)])
                else:
                    v = game.gradient_stack(i, delayed)
            gamma = step_schedule.at(state.counts[i] + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                y = dense[0][i] + gamma * ref_dense_perturb(noise, i, v)
            if not np.isfinite(y).all():
                if not np.isfinite(v).all():
                    raise NonFiniteGradientError(i, n)
                raise DomainError("score has non-finite entries")
            if domains[i].off_block_mass(y) > OFF_BLOCK_TOL:
                raise DomainError("score must be block-diagonal for a block-structured domain")
            scores.append(y)
        actions = [exp_projection(y, domains[i]) for i, y in zip(update_set, scores)]
        for i, y, x in zip(update_set, scores, actions):
            dense[0][i], dense[1][i] = y, x
            state.scores[i] = np.ascontiguousarray(domains[i].diagonal_blocks(y))
            state.actions[i] = np.ascontiguousarray(domains[i].diagonal_blocks(x))
            state.counts[i] += 1
        state.n = n + 1
        history.insert(0, tuple(dense[1]))
        del history[d_max + 1 :]
        yield n, gamma
