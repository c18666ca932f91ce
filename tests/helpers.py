"""Helpers shared by the test modules."""

import numpy as np

from mxl.spectral import hermitize


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
