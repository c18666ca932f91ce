"""Hermitian linear algebra and the entropy machinery behind exponential projection.

Everything here operates on plain complex numpy arrays. Matrices that claim to
be Hermitian are checked against a tight tolerance and rejected otherwise;
symmetrisation is never silent (call :func:`hermitize` explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
OFF_BLOCK_TOL = 1e-12
CHUNK_FLOATS = 1 << 15  # floats (256 KiB) that one stacked evaluation holds at most


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


def _float_or_stack(a):
    """A Python float for the 0-d result of one matrix, the array for a stack."""
    return float(a) if np.ndim(a) == 0 else a


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of A from its conjugate transpose, over a stack (..., d, d)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - _dagger(a))))


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """A, once it is a finite Hermitian matrix or (..., d, d) stack of them."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} has non-finite entries")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise DomainError(
            f"{name} is not Hermitian (defect {defect:.3e} > {tol:.1e}); call hermitize() first"
        )
    return a


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace inner product tr(AB) for Hermitian A, B, per matrix of (..., d, d) stacks."""
    return _float_or_stack(np.einsum("...ij,...ji->...", a, b).real)


def ordered_sum(v: np.ndarray):
    """Sum over the last axis, one term after another from 0.0, as a scalar loop adds (`np.sum`
    adds pairwise and changes the last bits); `+ 0.0` reads a total of -0.0 terms as +0.0."""
    return np.cumsum(v, axis=-1)[..., -1] + 0.0


def nuclear_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues, per matrix of a Hermitian (..., d, d) stack."""
    h = require_hermitian(h)
    return _float_or_stack(np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1))


def dual_norm(h: np.ndarray) -> float:
    """Largest absolute eigenvalue (spectral norm), per matrix of a (..., d, d) stack."""
    w = np.linalg.eigvalsh(require_hermitian(h))
    return _float_or_stack(np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])))


def block_noise(normals: np.ndarray, sigma=1.0, hermitian: bool = True) -> np.ndarray:
    """(..., b, b) Gaussian blocks from (..., 2, b, b) standard normals (real parts, then
    imaginary parts) at scale sigma, a float or an array broadcasting against the blocks.

    Hermitian blocks have E||.||_F^2 = sigma^2 * b; raw complex blocks have the same
    expected mass without the symmetry.
    """
    a = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    b = a.shape[-1]
    if hermitian:
        return (a + _dagger(a)) * (sigma / (2.0 * np.sqrt(b)))
    return (sigma / np.sqrt(2.0 * b)) * a


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
    """Feasible set {X >= 0, nuclear norm <= trace_bound} of `blocks` equal diagonal blocks.

    `blocks` counts the diagonal blocks, each of size dim // blocks (1, the default,
    is the unblocked set); members are block-diagonal to within a tiny off-block
    mass.
    """

    dim: int
    trace_bound: float = 1.0
    blocks: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not (self.trace_bound > 0):
            raise ValueError("trace_bound must be positive")
        n = self.blocks
        if not isinstance(n, (int, np.integer)) or n < 1 or self.dim % n:
            raise ValueError(f"blocks={n!r} must be a positive count of blocks dividing dim={self.dim}")
        object.__setattr__(self, "blocks", int(n))

    def diagonal_blocks(self, x: np.ndarray) -> np.ndarray:
        """The (..., blocks, m, m) diagonal blocks of an (..., dim, dim) stack, m = dim // blocks,
        as one view (writable when x is contiguous)."""
        n, m = self.blocks, self.dim // self.blocks
        x = np.asarray(x)
        if n == 1:
            return x[..., None, :, :]
        return np.einsum("...iaib->...iab", x.reshape(x.shape[:-2] + (n, m, n, m)))

    def block_diagonal(self, blocks: np.ndarray) -> np.ndarray:
        """The (..., dim, dim) block-diagonal stack of (..., blocks, m, m) diagonal blocks (for
        one block, a view of it)."""
        if self.blocks == 1:
            return blocks[..., 0, :, :]
        out = np.zeros(blocks.shape[:-3] + (self.dim, self.dim), dtype=blocks.dtype)
        self.diagonal_blocks(out)[...] = blocks
        return out

    def center(self) -> np.ndarray:
        """The exponential-projection image of a zero score: A/(dim+1) * I."""
        return np.eye(self.dim, dtype=complex) * (self.trace_bound / (self.dim + 1))

    def off_block_mass(self, x: np.ndarray) -> float:
        """Largest Frobenius mass outside the diagonal blocks over a stack (..., dim, dim),
        exactly 0 when every entry there is 0: a copy with its diagonal blocks zeroed,
        read as one dot product per matrix."""
        if self.blocks == 1:
            return 0.0
        off = np.array(x, dtype=complex)
        self.diagonal_blocks(off)[...] = 0.0
        flat = off.view(float).reshape(off.shape[:-2] + (1, -1))
        return float(np.sqrt(np.max(flat @ flat.swapaxes(-1, -2))))

    def contains(self, x: np.ndarray) -> bool:
        """Whether x is a member, or for an (..., dim, dim) stack whether every matrix is."""
        x = np.asarray(x)
        if x.shape[-2:] != (self.dim, self.dim):
            return False
        if not np.isfinite(x).all():
            return False
        if hermiticity_defect(x) > HERMITIAN_TOL:
            return False
        if self.off_block_mass(x) > OFF_BLOCK_TOL:
            return False
        # the spectrum of a block-diagonal matrix is that of its blocks
        w = np.linalg.eigvalsh(hermitize(self.diagonal_blocks(x))).reshape(x.shape[:-1])
        if w.min() < -PSD_TOL:
            return False
        return bool((np.sum(np.abs(w), axis=-1) <= self.trace_bound + PSD_TOL).all())

    def require_member(self, x: np.ndarray, name: str = "action") -> np.ndarray:
        if not self.contains(x):
            raise DomainError(f"{name} is not a member of Spectrahedron(dim={self.dim}, A={self.trace_bound})")
        return np.asarray(x)

    def _eigh_blocks(self, y: np.ndarray):
        """Block-order eigenvalues (..., dim) of a block-diagonal stack, from one batched eigh,
        and its blocks' (..., blocks, m, m) eigenbases."""
        return _block_eigh(self.diagonal_blocks(y))

    def _assemble(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Hermitian block-diagonal stack whose block k is U_k diag(lam_k) U_k^dag, lam_k
        being block k's stretch of the block-order eigenvalues lam (..., dim)."""
        return self.block_diagonal(_block_assemble(lam, u))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Frobenius projection onto the set (blockwise eigenvalue projection)."""
        lam, bases = self._eigh_blocks(hermitize(np.asarray(x, dtype=complex)))
        return self._assemble(_project_capped_simplex(lam, self.trace_bound), bases)

    def sample(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        """Random member, or a (count, dim, dim) stack drawn in turn: Dirichlet eigenvalues
        over the capped simplex, Haar basis per block (one batched QR)."""
        out = self._members([self._draw(rng) for _ in range(1 if count is None else count)])
        return out[0] if count is None else out

    def _draw(self, rng: np.random.Generator):
        """One sample's draws: its Dirichlet eigenvalues, then its blocks' normals."""
        m = self.dim // self.blocks
        return (self.trace_bound * rng.dirichlet(np.ones(self.dim + 1))[: self.dim],
                rng.standard_normal((self.blocks, 2, m, m)))

    def _members(self, draws) -> np.ndarray:
        """Members from `_draw`'s draws; Haar bases by phase-corrected QR of Ginibre blocks."""
        lam, normals = (np.array(a) for a in zip(*draws))
        q, r = np.linalg.qr((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return self._assemble(lam, q * (d / np.abs(d))[..., None, :])

    def sample_direction(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-Frobenius Gaussian Hermitian direction respecting the block structure."""
        m = self.dim // self.blocks
        out = self.block_diagonal(block_noise(rng.standard_normal((self.blocks, 2, m, m))))
        return out / np.linalg.norm(out)


def _block_eigh(blocks: np.ndarray):
    """Block-order eigenvalues (..., dim) of (..., blocks, m, m) Hermitian blocks, from one
    batched eigh, and the blocks' eigenbases."""
    w, u = np.linalg.eigh(blocks)
    return w.reshape(w.shape[:-2] + (w.shape[-2] * w.shape[-1],)), u


def _block_assemble(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hermitian blocks U_k diag(lam_k) U_k^dag of (..., blocks, m, m) eigenbases u, lam_k
    being block k's stretch of the block-order eigenvalues lam (..., dim)."""
    return hermitize((u * lam.reshape(u.shape[:-1])[..., None, :]) @ _dagger(u))


def _log_conjugate_from_eigs(w: np.ndarray) -> np.ndarray:
    """log(1 + sum exp(w)) over the last axis of ascending eigenvalues (..., d), kept as an
    axis of length 1, in shifted (log-sum-exp) form, never overflowing."""
    m = np.maximum(w[..., -1:], 0.0)
    return m + np.log(np.exp(-m) + np.add.reduce(np.exp(w - m), axis=-1, keepdims=True))


def _xlogx_sum(w: np.ndarray) -> float:
    """Sum of w log w over the positive entries of a vector w (0 log 0 = 0)."""
    w = w[w > 0.0]
    return float(np.sum(w * np.log(w)))


def _entropy_of(x: np.ndarray, bound: float) -> float:
    """Entropy tr(Z log Z) + (1 - tr Z) log(1 - tr Z) of Z = X / bound, unchecked, for a member
    X of a spectrahedron with trace bound `bound`; 0 log 0 = 0."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(x, dtype=complex))) / bound
    w = np.clip(w, 0.0, None)
    slack = max(0.0, 1.0 - float(w.sum()))
    val = _xlogx_sum(w)
    if slack > 0.0:
        val += slack * np.log(slack)
    return val


def entropy_conjugate(y: np.ndarray) -> float:
    """Convex conjugate of the entropy: log(1 + tr exp(Y)), overflow-safe."""
    y = require_hermitian(y, name="score")
    return _float_or_stack(_log_conjugate_from_eigs(np.linalg.eigvalsh(y))[..., 0])


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
    Their diagonal blocks go through :func:`exp_projection_blocks`, and the image
    is assembled once.
    """
    return domain.block_diagonal(exp_projection_blocks(domain.diagonal_blocks(y), domain))


def exp_projection_blocks(y: np.ndarray, domain: Spectrahedron) -> np.ndarray:
    """:func:`exp_projection` from the Hermitian (..., blocks, m, m) diagonal blocks of
    scores to those of their images.

    A 1x1 score is its own eigenvalue, mapped elementwise without an
    eigendecomposition; larger scores use one batched eigendecomposition of all
    the blocks, and one log-sum over each score's whole spectrum.
    """
    if domain.dim == 1:
        lam = y.real.ravel()
        top = np.maximum(lam, 0.0)
        lse = top + np.log(np.exp(-top) + np.exp(lam - top))
        return (domain.trace_bound * np.exp(lam - lse)).astype(complex).reshape(y.shape)

    lam, bases = _block_eigh(y)
    lse = _log_conjugate_from_eigs(np.sort(lam))
    return _block_assemble(np.exp(lam - lse), bases) * domain.trace_bound


def quantum_kl(xref: np.ndarray, x: np.ndarray) -> float:
    """Divergence of the modified entropy between unit-spectrahedron members.

    Equals tr(Xref(log Xref - log X)) plus the slack contribution
    (1-tr Xref)(log(1-tr Xref) - log(1-tr X)); nonnegative, zero iff Xref = X.
    Mass of Xref on a null direction of X yields math.inf; 0 log 0 = 0 on the
    null space of Xref. X may be a (..., d, d) stack against the one matrix
    Xref, giving one divergence per matrix of the stack.
    """
    xref = require_hermitian(xref, name="reference")
    x = require_hermitian(x, name="argument")
    if xref.shape != x.shape[-2:]:
        raise DomainError("reference/argument shapes differ")

    ref_entropy = _xlogx_sum(np.clip(np.linalg.eigvalsh(xref), 0.0, None))

    mu, u = np.linalg.eigh(x)
    weights = np.clip(np.einsum("...ji,jk,...ki->...i", u.conj(), xref, u).real, 0.0, None)
    null = mu <= 1e-300
    infinite = np.any(null & (weights > 1e-12), axis=-1)
    cross = ordered_sum(np.where(null, 0.0, weights * np.log(np.where(null, 1.0, mu))))

    s_ref = max(0.0, 1.0 - float(np.trace(xref).real))
    s_x = np.maximum(0.0, 1.0 - np.trace(x, axis1=-2, axis2=-1).real)
    slack = 0.0
    if s_ref > 1e-12:
        infinite = infinite | (s_x <= 1e-300)
        slack = s_ref * (np.log(s_ref) - np.log(np.where(s_x > 1e-300, s_x, 1.0)))
    return _float_or_stack(np.where(infinite, np.inf, ref_entropy - cross + slack))


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
    return entropy + float(_log_conjugate_from_eigs(np.linalg.eigvalsh(y))[0]) - trace_inner(y, xs)
