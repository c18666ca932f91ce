"""Helpers shared by the test modules."""

import json

import numpy as np

from mxl.families import (
    EeGame,
    MacGame,
    MetricLearningProblem,
    _feasible_covariance,
    _x_to_q,
    mahalanobis_gaps,
    smooth_hinge,
    synth_channels,
)
from mxl.games import VIOLATION_TOL, BilinearGame, LinearGame, StabilityReport, ZeroGame
from mxl.solver import AsyncSchedule, NonFiniteGradientError, inject_noise, relative_sigma
from mxl.spectral import (
    OFF_BLOCK_TOL,
    DomainError,
    _entropy_of,
    block_noise,
    dual_norm,
    hermitize,
    nuclear_norm,
    ordered_sum,
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


def channel_fixture(users: int = 2, **changes) -> dict:
    """The JSON payload of a 2x2 antenna, 2-subcarrier channel fixture of seed 7, with
    `changes` made to its keys; a None value drops the key."""
    payload = json.loads(synth_channels(users, 2, 2, 2, seed=7).to_json())
    payload.update(changes)
    return {k: v for k, v in payload.items() if v is not None}


_FIXTURE, _THREE_USERS = channel_fixture(), channel_fixture(3)
_FIXTURE_SHAPE = ("channel fixture entries must share one (users, users, subcarriers, rx, tx) "
                  "shape of sizes >= 1 that dims repeats, with gains (users, users)")
# id: (malformed channel fixture payload, the error message that rejects it)
BAD_FIXTURES = {
    "top_level_list": ([_FIXTURE], "not a recognised channel fixture"),
    "no_seed": (channel_fixture(seed=None), "channel fixture misses ['seed']"),
    "no_gains": (channel_fixture(gains=None), "channel fixture misses ['gains']"),
    "no_entries": (channel_fixture(entries_re=None, entries_im=None),
                   "channel fixture misses ['entries_im', 'entries_re']"),
    "entries_4d": (channel_fixture(entries_re=_FIXTURE["entries_re"][0],
                                   entries_im=_FIXTURE["entries_im"][0], dims=[2, 2, 2, 2]),
                   _FIXTURE_SHAPE),
    "entries_empty": (channel_fixture(entries_re=[], entries_im=[], gains=[],
                                      dims=[0, 0, 2, 2, 2]), _FIXTURE_SHAPE),
    "three_receivers": (channel_fixture(entries_re=_THREE_USERS["entries_re"][:2],
                                        entries_im=_THREE_USERS["entries_im"][:2],
                                        gains=_THREE_USERS["gains"][:2], dims=[2, 3, 2, 2, 2]),
                        _FIXTURE_SHAPE),
    "no_transmit_antennas": (channel_fixture(entries_re=[[[[[]] * 2] * 2] * 2] * 2,
                                             entries_im=[[[[[]] * 2] * 2] * 2] * 2,
                                             dims=[2, 2, 2, 2, 0]), _FIXTURE_SHAPE),
    "entries_im_shape": (channel_fixture(entries_im=_THREE_USERS["entries_im"]), _FIXTURE_SHAPE),
    "dims_disagree": (channel_fixture(dims=[2, 2, 2, 2, 3]), _FIXTURE_SHAPE),
}


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


# The per-block loops that the block layout replaced with one batched eigh and one batched
# matmul, and the dense exponential projection built on them; the batched paths must give
# their values bit for bit.

def ref_eigh_blocks(domain, y):
    pairs = [np.linalg.eigh(y[..., sl, sl]) for sl in block_slices(domain)]
    return np.concatenate([w for w, _ in pairs], axis=-1), [u for _, u in pairs]


def ref_assemble(domain, lam, bases):
    out = np.zeros(lam.shape + lam.shape[-1:], dtype=complex)
    for sl, u in zip(block_slices(domain), bases):
        out[..., sl, sl] = (u * lam[..., None, sl]) @ u.conj().swapaxes(-1, -2)
    return hermitize(out)


def ref_exp_projection(y, domain):
    """The exponential projection A exp(Y) / (1 + tr exp Y) of one score or a (..., d, d)
    stack of block-diagonal Hermitian scores, block by block."""
    if domain.dim == 1:
        lam = y[..., 0, 0].real
        m = np.maximum(lam, 0.0)
        val = np.exp(lam - (m + np.log(np.exp(-m) + np.exp(lam - m))))
        out = np.zeros(y.shape, dtype=complex)
        out[..., 0, 0] = domain.trace_bound * val
        return out
    lam, bases = ref_eigh_blocks(domain, y)
    all_w = np.sort(lam)
    if y.ndim == 2:
        lse = ref_log_conjugate_from_eigs(all_w)
    else:
        m = np.maximum(all_w[..., -1:], 0.0)
        lse = m + np.log(np.exp(-m) + np.sum(np.exp(all_w - m), axis=-1, keepdims=True))
    return ref_assemble(domain, np.exp(lam - lse), bases) * domain.trace_bound


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


# The per-receiver EE evaluation that the receivers pass replaced: each player's covariance
# blocks mapped alone, then per receiver its own interference sum, log-dets, solves and
# gradient assembly over profile stacks. The pass keeps each receiver's operation order, so
# it must match bit for bit.

def ref_covariance_blocks(game, x, checked=True):
    x = np.asarray(x, dtype=complex)
    tau = np.trace(x, axis1=-2, axis2=-1).real[..., None, None, None]
    blocks = game.domains[0].diagonal_blocks(x)
    return _x_to_q(hermitize(blocks) if checked else blocks, tau, game.pc, game.pmax, checked)


def ref_receiver_received(game, i, x, covariances, psi):
    links, dagger = game.channels.links, game._links_dagger
    h = links[i, i]
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.eye(game.channels.n_rx, dtype=complex)
        for j, q in enumerate(covariances):
            if j != i:
                w = w + links[j, i] @ q @ dagger[j, i]
        k = h @ game.domains[i].diagonal_blocks(x) @ dagger[i, i]
        a = w + psi[:, None, None, None] * k
        sign_a, logdet_a = np.linalg.slogdet(a)
        sign_w, logdet_w = np.linalg.slogdet(w)
        if not ((sign_a.real > 0).all() and (sign_w.real > 0).all()):
            raise DomainError("received covariance lost definiteness")
    return h, k, a, ordered_sum(logdet_a.real - logdet_w.real)


def ref_receiver_evaluate(game, i, x, covariances):
    """Receiver i's gradient and utility stacks at its action stack x."""
    pc, pmax = game.pc, game.pmax
    tau = np.trace(x, axis1=-2, axis2=-1).real
    phi, psi = game._prefactors(tau)
    d = pc + (1.0 - tau) * pmax
    phi_slope = -pmax / (pc * (pc + pmax))
    psi_slope = pc * pmax * pmax / (d * d)
    h, k, a, log_sum = ref_receiver_received(game, i, x, covariances, psi)
    trace_sum = ordered_sum(np.trace(np.linalg.solve(a, k), axis1=-2, axis2=-1).real)
    blocks = ((phi * psi)[:, None, None, None]
              * (game._links_dagger[i, i] @ np.linalg.solve(a, h[None])))
    scalar = phi_slope * log_sum + phi * psi_slope * trace_sum
    eye = np.eye(game.channels.n_tx, dtype=complex)
    v = game.domains[i].block_diagonal(hermitize(blocks + scalar[:, None, None, None] * eye))
    return v, phi * log_sum


def ref_evaluate_stacks(game, actions, players, checked=True):
    """(gradients, utilities) of the listed receivers, one receiver at a time."""
    covariances = [ref_covariance_blocks(game, x, checked) for x in actions]
    evaluated = [ref_receiver_evaluate(game, i, actions[i], covariances) for i in players]
    return [v for v, _ in evaluated], [u for _, u in evaluated]


def ref_throughput(game, i, q_profile) -> float:
    blocks = [game.domains[j].diagonal_blocks(_feasible_covariance(q, game.pmax))
              for j, q in enumerate(q_profile)]
    links, dagger = game.channels.links, game._links_dagger
    w = np.eye(game.channels.n_rx, dtype=complex)
    for j, q in enumerate(blocks):
        if j != i:
            w = w + links[j, i] @ q @ dagger[j, i]
    a = w + links[i, i] @ blocks[i] @ dagger[i, i]
    return float(ordered_sum(np.linalg.slogdet(a)[1].real - np.linalg.slogdet(w)[1].real))


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


def ref_gradients(game, actions) -> list:
    """Every player's exact gradient at one profile, one `payoff_gradient` call each."""
    return [game.payoff_gradient(i, actions) for i in range(game.n_players)]


def ref_nash_residual(game, actions) -> float:
    """The per-profile Nash residual: a membership check, one gradient and one eigvalsh per
    player, and Python's max over the players' gaps."""
    game.require_feasible(actions)
    worst = 0.0
    for i, (spec, v) in enumerate(zip(game.players, ref_gradients(game, actions))):
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


def ref_direction(domain, rng: np.random.Generator) -> np.ndarray:
    """One unit direction: Gaussian Hermitian blocks, normalised by np.linalg.norm."""
    m = domain.dim // domain.blocks
    out = domain.block_diagonal(block_noise(rng.standard_normal((domain.blocks, 2, m, m))))
    return out / np.linalg.norm(out)


def ref_project_capped_simplex(lam: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection of one real vector onto {λ >= 0, sum λ <= bound}."""
    clipped = np.maximum(lam, 0.0)
    if clipped.sum() <= bound:
        return clipped
    srt = np.sort(lam)[::-1]
    theta = (np.cumsum(srt) - bound) / np.arange(1, lam.size + 1)
    level = theta[np.nonzero(srt - theta > 0)[0][-1]]
    return np.maximum(lam - level, 0.0)


def ref_project(domain, x: np.ndarray) -> np.ndarray:
    """Frobenius projection of one matrix onto the domain, block by block."""
    lam, bases = ref_eigh_blocks(domain, hermitize(np.asarray(x, dtype=complex)))
    return ref_assemble(domain, ref_project_capped_simplex(lam, domain.trace_bound), bases)


# The per-sample stability scans that the batched ones replaced, kept as references: each
# returns the report that the batched scan must equal exactly.

def ref_sample_near(game, xstar, radius: float, rng: np.random.Generator):
    if radius <= 0:
        return tuple(np.array(x, dtype=complex) for x in xstar)
    dirs = [ref_direction(d, rng) for d in game.domains]
    total = sum(nuclear_norm(d) for d in dirs)
    t = radius * rng.random() / max(total, 1e-300)
    return tuple(ref_project(d, x + t * z) for d, x, z in zip(game.domains, xstar, dirs))


def ref_check_variational_stability(game, xstar, radius: float, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    report = StabilityReport(check="variational_stability", samples=samples, rng_seed=seed,
                             radius=radius)
    for _ in range(samples):
        x = ref_sample_near(game, xstar, radius, rng)
        v = ref_gradients(game, x)
        val = sum(ref_trace_inner(x[i] - xstar[i], v[i]) for i in range(game.n_players))
        report.worst_value = max(report.worst_value, val)
        if val > VIOLATION_TOL:
            report.violations += 1
    return report


def ref_hessian_quadratic_form(game, actions, direction, eps: float) -> float:
    for attempt in range(4):
        up = tuple(x + eps * z for x, z in zip(actions, direction))
        dn = tuple(x - eps * z for x, z in zip(actions, direction))
        if all(d.contains(u) and d.contains(w) for d, u, w in zip(game.domains, up, dn)):
            vu, vd = ref_gradients(game, up), ref_gradients(game, dn)
            return sum(ref_trace_inner(direction[i], vu[i] - vd[i])
                       for i in range(game.n_players)) / (2.0 * eps)
        eps /= 10.0
    raise DomainError("perturbed profile infeasible even after shrinking eps 3 times")


def ref_check_hessian_definiteness(game, samples: int, seed: int, eps: float = 1e-5):
    rng = np.random.default_rng(seed)
    report = StabilityReport(check="hessian", samples=samples, rng_seed=seed)
    for _ in range(samples):
        raw = tuple(ref_sample(d, rng) for d in game.domains)
        x = tuple(0.98 * xi + 0.02 * d.center() for xi, d in zip(raw, game.domains))
        z = tuple(ref_direction(d, rng) for d in game.domains)
        q = ref_hessian_quadratic_form(game, x, z, eps)
        report.worst_value = max(report.worst_value, q)
        if q > VIOLATION_TOL:
            report.violations += 1
    return report


def ref_estimate_strong_stability(game, xstar, samples, seed):
    """The per-sample loop that the batched estimate replaced: (b_hat, violation count)."""
    rng = np.random.default_rng(seed)
    b_hat = float("inf")
    violations = 0
    for _ in range(samples):
        x = game.sample_profile(rng)
        div = ref_profile_kl(game, xstar, x)
        if not (div > 1e-9) or not np.isfinite(div):
            continue
        v = ref_gradients(game, x)
        drift = sum(ref_trace_inner(x[i] - xstar[i], v[i]) for i in range(game.n_players))
        ratio = -drift / div
        if ratio < 0:
            violations += 1
        b_hat = min(b_hat, ratio)
    if not np.isfinite(b_hat):
        b_hat = 0.0
    return float(max(b_hat, 0.0)), violations


def ref_max_sampled_gradient_norm(game, config, probes, seed):
    """The per-probe loop that the batched gradient bound replaced: per probe a profile, then
    per player the oracle's estimate, its noise and its dual norm, folded by Python's max."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        x = game.sample_profile(rng)
        for i in range(game.n_players):
            v = game.stochastic_gradient(i, x, rng)
            vhat = hermitize(inject_noise(v, config.noise, rng, game.players[i].domain))
            worst = max(worst, dual_norm(vhat))
    return worst


def ref_dense_perturb(noise, i, v):
    """`SeedNoise.perturb` on whole matrices: the Hermitian part of V + Z for player i's
    gradient stack V, each seed's normals drawn straight from its Generator, never through
    the noise's buffer."""
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
    normals = np.stack([rng.standard_normal((n, 2, m, m)) for rng in noise.rngs])
    return hermitize(v + domain.block_diagonal(block_noise(normals, sigma, model.hermitian)))


def ref_advance(game, state, step_schedule, noise, steps, async_schedule=None, sched_rng=None):
    """`solver.advance` player by player on whole matrices: each updating player takes its own
    noise draw (`ref_dense_perturb`), score update, checks and exponential projection, in update
    order. It reads the state's score blocks once and writes back the blocks of each epoch's
    scores and its whole actions."""
    schedule = async_schedule or AsyncSchedule((1.0,) * game.n_players)
    probs, d_max = schedule.probabilities, schedule.delay_max
    weights = np.array(probs) / sum(probs)
    domains = game.domains
    dense = [[d.block_diagonal(y).copy() for d, y in zip(domains, state.scores)],
             list(state.actions)]
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
        actions = [ref_exp_projection(y, domains[i]) for i, y in zip(update_set, scores)]
        for i, y, x in zip(update_set, scores, actions):
            dense[0][i], dense[1][i] = y, x
            state.scores[i] = np.ascontiguousarray(domains[i].diagonal_blocks(y))
            state.actions[i] = x
            state.counts[i] += 1
        state.n = n + 1
        history.insert(0, tuple(dense[1]))
        del history[d_max + 1 :]
        yield n, gamma


def ref_best_response_pg(game, i, actions, max_iters=600, tol=1e-11):
    """`verify._best_response_pg` with a `utility` call per line-search candidate and a
    `payoff_gradient` call per accepted step."""
    domain = game.players[i].domain
    work = list(actions)
    x = np.array(actions[i], dtype=complex)
    work[i] = x
    value = game.utility(i, tuple(work))
    grad = game.payoff_gradient(i, tuple(work))
    step = 1.0
    for _ in range(max_iters):
        moved = False
        for _ in range(50):
            cand = domain.project(x + step * grad)
            work[i] = cand
            cand_value = game.utility(i, tuple(work))
            if cand_value >= value - 1e-14:
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        cand_grad = game.payoff_gradient(i, tuple(work))
        dx, dg = cand - x, cand_grad - grad
        shift = float(np.linalg.norm(dx))
        x, value, grad = cand, cand_value, cand_grad
        denom = abs(float(np.vdot(dx, dg).real))
        if denom > 1e-300:
            step = min(max(float(np.vdot(dx, dx).real) / denom, 1e-8), 1e8)
        else:
            step *= 1.6
        if shift < tol:
            break
    return x
