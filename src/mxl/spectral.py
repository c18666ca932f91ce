"""Hermitian linear algebra and the entropy machinery behind exponential projection.

Everything here operates on plain complex numpy arrays. Matrices that claim to
be Hermitian are checked against a tight tolerance and rejected otherwise;
symmetrisation is never silent (call :func:`hermitize` explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
OFF_BLOCK_TOL = 1e-12


class DomainError(ValueError):
    """Raised when an input lies outside an operation's domain."""


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack (`.T` is the cheaper view)."""
    return a.conj().T if a.ndim == 2 else a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^dag)/2 of a square matrix or a stack of them."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return (a + _dagger(a)) / 2


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of A from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DomainError(f"{name} has non-finite entries")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise DomainError(
            f"{name} is not Hermitian (defect {defect:.3e} > {tol:.1e}); call hermitize() first"
        )
    return a


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace inner product tr(AB) for Hermitian A, B."""
    return float(np.einsum("ij,ji->", a, b).real)


def herm_expm(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via eigendecomposition."""
    h = require_hermitian(h)
    w, u = np.linalg.eigh(h)
    return hermitize((u * np.exp(w)) @ u.conj().T)


def nuclear_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    h = require_hermitian(h)
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def dual_norm(h: np.ndarray) -> float:
    """Largest absolute eigenvalue (spectral norm) of a Hermitian matrix."""
    h = require_hermitian(h)
    w = np.linalg.eigvalsh(h)
    return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix with E||.||_F^2 = scale^2 * dim."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) * (scale / (2.0 * np.sqrt(dim)))


def _project_capped_simplex(lam: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection of a real vector onto {λ >= 0, sum λ <= bound}."""
    clipped = np.maximum(lam, 0.0)
    total = clipped.sum()
    if total <= bound:
        return clipped
    # water level for the equality face sum = bound
    srt = np.sort(lam)[::-1]
    csum = np.cumsum(srt)
    k = np.arange(1, lam.size + 1)
    theta = (csum - bound) / k
    valid = srt - theta > 0
    level = theta[np.nonzero(valid)[0][-1]]
    return np.maximum(lam - level, 0.0)


@dataclass(frozen=True)
class Spectrahedron:
    """Feasible set {X >= 0, nuclear norm <= trace_bound}, optionally block-diagonal.

    `blocks`, when given, lists block sizes that must sum to `dim`; members are
    block-diagonal to within a tiny off-block mass. Derived once: `slices`, the
    diagonal blocks' index ranges, and `off_block`, the entries outside them.
    """

    dim: int
    trace_bound: float = 1.0
    blocks: tuple[int, ...] | None = None
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    off_block: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not (self.trace_bound > 0):
            raise ValueError("trace_bound must be positive")
        off = None
        if self.blocks is not None:
            blocks = tuple(int(b) for b in self.blocks)
            if any(b < 1 for b in blocks) or sum(blocks) != self.dim:
                raise ValueError(f"blocks {blocks} must be positive and sum to dim={self.dim}")
            object.__setattr__(self, "blocks", blocks)
            owner = np.repeat(np.arange(len(blocks)), blocks)  # the block of each index
            off = owner[:, None] != owner
            off.flags.writeable = False
        edges = np.cumsum((0, *(self.blocks or (self.dim,)))).tolist()
        object.__setattr__(self, "slices", tuple(map(slice, edges[:-1], edges[1:])))
        object.__setattr__(self, "off_block", off)

    def center(self) -> np.ndarray:
        """The exponential-projection image of a zero score: A/(dim+1) * I."""
        return np.eye(self.dim, dtype=complex) * (self.trace_bound / (self.dim + 1))

    def off_block_mass(self, x: np.ndarray) -> float:
        """Largest Frobenius mass outside the diagonal blocks over a stack (..., dim, dim)."""
        if self.off_block is None:
            return 0.0
        return float(np.max(np.linalg.norm(np.asarray(x)[..., self.off_block], axis=-1)))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x)
        if x.shape != (self.dim, self.dim):
            return False
        if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
            return False
        if hermiticity_defect(x) > HERMITIAN_TOL:
            return False
        if self.off_block_mass(x) > OFF_BLOCK_TOL:
            return False
        w = np.linalg.eigvalsh(hermitize(x))
        if w[0] < -PSD_TOL:
            return False
        return float(np.sum(np.abs(w))) <= self.trace_bound + PSD_TOL

    def require_member(self, x: np.ndarray, name: str = "action") -> np.ndarray:
        if not self.contains(x):
            raise DomainError(f"{name} is not a member of Spectrahedron(dim={self.dim}, A={self.trace_bound})")
        return np.asarray(x)

    def _eigh_blocks(self, y: np.ndarray):
        """Block-order eigenvalues of a block-diagonal stack and each block's eigenbasis."""
        pairs = [np.linalg.eigh(y[..., sl, sl]) for sl in self.slices]
        return np.concatenate([w for w, _ in pairs], axis=-1), [u for _, u in pairs]

    def _assemble(self, lam: np.ndarray, bases) -> np.ndarray:
        """Hermitian block-diagonal stack whose block k is U_k diag(lam[..., slices[k]]) U_k^dag."""
        out = np.zeros(lam.shape + lam.shape[-1:], dtype=complex)
        for sl, u in zip(self.slices, bases):
            out[..., sl, sl] = (u * lam[..., None, sl]) @ _dagger(u)
        return hermitize(out)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Frobenius projection onto the set (blockwise eigenvalue projection)."""
        lam, bases = self._eigh_blocks(hermitize(np.asarray(x, dtype=complex)))
        return self._assemble(_project_capped_simplex(lam, self.trace_bound), bases)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random member: Dirichlet eigenvalues over the capped simplex, Haar basis per block."""
        lam = self.trace_bound * rng.dirichlet(np.ones(self.dim + 1))[: self.dim]
        return self._assemble(lam, [haar_unitary(sl.stop - sl.start, rng) for sl in self.slices])

    def sample_direction(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-Frobenius Gaussian Hermitian direction respecting the block structure."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for sl in self.slices:
            out[sl, sl] = random_hermitian(sl.stop - sl.start, rng)
        return out / np.linalg.norm(out)


def _log_conjugate_from_eigs(w: np.ndarray) -> float:
    """log(1 + sum exp(w)) in shifted (log-sum-exp) form, never overflowing."""
    m = max(0.0, float(w[-1]))
    return m + float(np.log(np.exp(-m) + np.sum(np.exp(w - m))))


def von_neumann_entropy(x: np.ndarray, domain: Spectrahedron) -> float:
    """Entropy tr(X log X) + (1 - tr X) log(1 - tr X) on the unit spectrahedron.

    General trace bounds are handled by rescaling X by the bound; 0 log 0 = 0.
    """
    domain.require_member(x, name="entropy argument")
    return _entropy_of(x, domain.trace_bound)


def _entropy_of(x: np.ndarray, bound: float) -> float:
    """Unchecked body of :func:`von_neumann_entropy` for a member with trace bound `bound`."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(x, dtype=complex))) / bound
    w = np.clip(w, 0.0, None)
    slack = max(0.0, 1.0 - float(w.sum()))
    parts = w[w > 0.0]
    val = float(np.sum(parts * np.log(parts)))
    if slack > 0.0:
        val += slack * np.log(slack)
    return val


def entropy_conjugate(y: np.ndarray) -> float:
    """Convex conjugate of the entropy: log(1 + tr exp(Y)), overflow-safe."""
    y = require_hermitian(y, name="score")
    return _log_conjugate_from_eigs(np.linalg.eigvalsh(y))


def entropy_gradient(x: np.ndarray, domain: Spectrahedron) -> np.ndarray:
    """Score matrix log(X/A) - log(1 - tr(X/A)) I, the inverse of the mirror map.

    X must be positive definite with trace below the bound A.
    """
    xs = hermitize(np.asarray(x, dtype=complex)) / domain.trace_bound
    slack = 1.0 - float(np.trace(xs).real)
    if slack <= 0:
        raise DomainError("entropy_gradient needs tr(X) strictly below the bound")
    w, u = np.linalg.eigh(require_hermitian(xs))
    if np.any(w <= 0.0):
        raise DomainError(f"matrix log needs positive eigenvalues, smallest is {w[0]:.3e}")
    return hermitize((u * np.log(w)) @ u.conj().T) - np.log(slack) * np.eye(domain.dim)


def mirror_map(y: np.ndarray, domain: Spectrahedron) -> np.ndarray:
    """Exponential projection A * exp(Y) / (1 + tr exp(Y)) in its numerically stable form.

    Output eigenvalues are computed as exp(lambda_i - log(1 + tr exp Y)); each
    factor lies in (0, 1], so no intermediate can overflow no matter how large
    the score spectrum is. Block structure of the domain is preserved exactly by
    exponentiating blockwise.
    """
    y = require_hermitian(y, name="score")
    if y.shape != (domain.dim, domain.dim):
        raise DomainError(f"score shape {y.shape} does not match domain dim {domain.dim}")
    if domain.off_block_mass(y) > OFF_BLOCK_TOL:
        raise DomainError("score must be block-diagonal for a block-structured domain")
    return exp_projection(y, domain)


def exp_projection(y: np.ndarray, domain: Spectrahedron) -> np.ndarray:
    """Unchecked core of :func:`mirror_map` for a stack (..., d, d) of scores.

    Scores must already be Hermitian, block-diagonal and of the domain's size.
    A 1x1 score is mapped in closed form with the same float operations as the
    general path; larger scores use one batched eigendecomposition per block.
    """
    if domain.dim == 1:
        lam = y[..., 0, 0].real
        m = np.maximum(lam, 0.0)
        val = np.exp(lam - (m + np.log(np.exp(-m) + np.exp(lam - m))))
        out = np.zeros(y.shape, dtype=complex)
        out[..., 0, 0] = domain.trace_bound * val
        return out

    lam, bases = domain._eigh_blocks(y)
    all_w = np.sort(lam)
    if y.ndim == 2:
        lse = _log_conjugate_from_eigs(all_w)
    else:
        m = np.maximum(all_w[..., -1:], 0.0)
        lse = m + np.log(np.exp(-m) + np.sum(np.exp(all_w - m), axis=-1, keepdims=True))
    return domain._assemble(np.exp(lam - lse), bases) * domain.trace_bound


def quantum_kl(xref: np.ndarray, x: np.ndarray) -> float:
    """Divergence of the modified entropy between unit-spectrahedron members.

    Equals tr(Xref(log Xref - log X)) plus the slack contribution
    (1-tr Xref)(log(1-tr Xref) - log(1-tr X)); nonnegative, zero iff Xref = X.
    Mass of Xref on a null direction of X yields math.inf; 0 log 0 = 0 on the
    null space of Xref.
    """
    xref = require_hermitian(xref, name="reference")
    x = require_hermitian(x, name="argument")
    if xref.shape != x.shape:
        raise DomainError("reference/argument shapes differ")

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


def fenchel_coupling(x: np.ndarray, y: np.ndarray, domain: Spectrahedron) -> float:
    """Primal-dual congruence h(X) + h*(Y) - tr(YX), nonnegative.

    Coincides with quantum_kl(X, mirror_map(Y)) after normalising by the trace
    bound; zero exactly when Y is the score of X.
    """
    domain.require_member(x, name="primal argument")
    y = require_hermitian(y, name="score")
    # X passed the membership check, so X/A is in the unit set: no second check
    xs = hermitize(np.asarray(x, dtype=complex)) / domain.trace_bound
    entropy = _entropy_of(xs, 1.0)
    return entropy + _log_conjugate_from_eigs(np.linalg.eigvalsh(y)) - trace_inner(y, xs)
