import math

import numpy as np
import pytest

from helpers import (
    block_slices,
    haar_unitary,
    herm_expm,
    random_hermitian,
    ref_sample,
    ref_entropy_of,
    ref_log_conjugate_from_eigs,
    ref_quantum_kl,
    ref_trace_inner,
    von_neumann_entropy,
)
from mxl.spectral import (
    HERMITIAN_TOL,
    OFF_BLOCK_TOL,
    PSD_TOL,
    DomainError,
    Spectrahedron,
    _entropy_of,
    _log_conjugate_from_eigs,
    _project_capped_simplex,
    dual_norm,
    exp_projection,
    entropy_conjugate,
    entropy_gradient,
    fenchel_coupling,
    hermiticity_defect,
    hermitize,
    mirror_map,
    nuclear_norm,
    ordered_sum,
    quantum_kl,
    trace_inner,
)

UNIT2 = Spectrahedron(2, 1.0)
UNIT3 = Spectrahedron(3, 1.0)


def test_hermitize_fixed_point_and_antisymmetric_part(rng):
    h = random_hermitian(3, rng)
    assert np.allclose(hermitize(h), h)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(hermitize(a), np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_hermitize_linearity(rng):
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(hermitize(a + b), hermitize(a) + hermitize(b))


def test_hermitize_rejects_non_square():
    with pytest.raises(ValueError):
        hermitize(np.zeros((2, 3)))


def test_entropy_uniform_point():
    x = np.eye(2, dtype=complex) / 3.0
    assert von_neumann_entropy(x, UNIT2) == pytest.approx(-math.log(3), abs=1e-12)


def test_entropy_pure_extreme_point():
    x = np.diag([1.0, 0.0]).astype(complex)
    assert von_neumann_entropy(x, UNIT2) == pytest.approx(0.0, abs=1e-12)


def test_entropy_eigenvalue_sum_oracle(rng):
    # oracle: evaluate directly on the eigenvalue vector plus the slack slot
    for _ in range(50):
        x = UNIT3.sample(rng)
        w = np.linalg.eigvalsh(x)
        slack = 1.0 - w.sum()
        parts = np.concatenate([w, [slack]])
        parts = parts[parts > 0]
        ref = float(np.sum(parts * np.log(parts)))
        val = von_neumann_entropy(x, UNIT3)
        assert val == pytest.approx(ref, abs=1e-10)
        assert val >= -math.log(4) - 1e-12


def test_entropy_rejects_outside_domain():
    with pytest.raises(DomainError):
        von_neumann_entropy(np.eye(2, dtype=complex), UNIT2)


def test_conjugate_at_zero():
    assert entropy_conjugate(np.zeros((2, 2))) == pytest.approx(math.log(3), abs=1e-12)


def test_conjugate_large_scores_shifted():
    val = entropy_conjugate(np.diag([1000.0, 0.0]).astype(complex))
    # oracle: 1000 + log(exp(-1000) + 1 + exp(-1000)) evaluated analytically
    assert math.isfinite(val)
    assert val == pytest.approx(1000.0, abs=1e-9)


def test_conjugate_fenchel_young(rng):
    for _ in range(2000):
        x = UNIT3.sample(rng)
        y = random_hermitian(3, rng, scale=2.0)
        assert entropy_conjugate(y) >= trace_inner(y, x) - von_neumann_entropy(x, UNIT3) - 1e-10


def test_mirror_map_zero_score():
    assert np.allclose(mirror_map(np.zeros((2, 2)), UNIT2), np.eye(2) / 3.0)


def test_mirror_map_saturated_score():
    x = mirror_map(np.diag([50.0, 0.0]).astype(complex), UNIT2)
    assert np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))
    # oracle: e^50/(2 + e^50) and 1/(2 + e^50) via the overflow-free rearrangement
    top = 1.0 / (1.0 + 2.0 * math.exp(-50.0))
    bottom = math.exp(-50.0) / (1.0 + 2.0 * math.exp(-50.0))
    assert float(x[0, 0].real) >= 1.0 - 1e-20
    assert float(x[0, 0].real) == pytest.approx(top, rel=1e-12)
    assert float(x[1, 1].real) == pytest.approx(bottom, rel=1e-9)


def test_mirror_map_matches_naive_formula_in_safe_range(rng):
    # oracle: the naive expression exp(Y)/(1 + tr exp Y), fine for moderate scores
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        dom = Spectrahedron(dim, 1.0)
        y = random_hermitian(dim, rng)
        y *= 30.0 * rng.random() / max(dual_norm(y), 1e-12)
        e = herm_expm(y)
        naive = e / (1.0 + float(np.trace(e).real))
        assert np.linalg.norm(mirror_map(y, dom) - naive) < 1e-12 * max(1.0, np.linalg.norm(naive))


def test_mirror_map_not_shift_invariant():
    y = np.diag([1.0, -1.0]).astype(complex)
    a = mirror_map(y, UNIT2)
    b = mirror_map(y + 2.0 * np.eye(2), UNIT2)
    assert not np.allclose(a, b)


def test_mirror_map_scales_with_trace_bound():
    dom = Spectrahedron(2, 2.5)
    assert np.allclose(mirror_map(np.zeros((2, 2)), dom), 2.5 * np.eye(2) / 3.0)


def test_mirror_map_rejects_non_hermitian():
    with pytest.raises(DomainError):
        mirror_map(np.array([[0.0, 1.0], [0.0, 0.0]]), UNIT2)


def test_mirror_map_block_structure_preserved(rng):
    dom = Spectrahedron(4, 1.0, blocks=2)
    y = np.zeros((4, 4), dtype=complex)
    y[:2, :2] = random_hermitian(2, rng, scale=3.0)
    y[2:, 2:] = random_hermitian(2, rng, scale=3.0)
    x = mirror_map(y, dom)
    assert dom.off_block_mass(x) < 1e-14
    assert dom.contains(x)
    with pytest.raises(DomainError):
        mirror_map(random_hermitian(4, rng), dom)


def test_quantum_kl_identity_is_zero(rng):
    for _ in range(20):
        x = UNIT3.sample(rng)
        assert abs(quantum_kl(x, x)) < 1e-10


def test_quantum_kl_rank_one_reference():
    eps = 0.1
    val = quantum_kl(np.diag([1.0, 0.0]).astype(complex), np.diag([1 - eps, eps]).astype(complex))
    assert val == pytest.approx(-math.log(1 - eps), abs=1e-12)


def test_quantum_kl_commuting_matches_classical_oracle(rng):
    # oracle: classical KL over eigenvalues augmented with the trace slack slot
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        ref = float(np.sum(p[:3] * np.log(p[:3] / q[:3]))) + p[3] * math.log(p[3] / q[3])
        val = quantum_kl(np.diag(p[:3]).astype(complex), np.diag(q[:3]).astype(complex))
        assert val == pytest.approx(ref, abs=1e-10)


def test_quantum_kl_infinite_on_null_mass():
    xref = np.diag([0.5, 0.5]).astype(complex)
    x = np.diag([1.0, 0.0]).astype(complex)
    assert quantum_kl(xref, x) == math.inf


def test_fenchel_coupling_zero_at_own_score(rng):
    for _ in range(20):
        x = UNIT3.sample(rng)
        x = 0.9 * x + 0.1 * UNIT3.center()  # keep strictly interior for the log
        y = entropy_gradient(x, UNIT3)
        assert abs(fenchel_coupling(x, y, UNIT3)) < 1e-9


def test_fenchel_coupling_center_zero():
    assert fenchel_coupling(np.eye(2, dtype=complex) / 3, np.zeros((2, 2)), UNIT2) == pytest.approx(
        0.0, abs=1e-12
    )


def test_fenchel_coupling_equals_divergence(rng):
    for _ in range(500):
        dim = int(rng.integers(1, 5))
        dom = Spectrahedron(dim, 1.0)
        x = dom.sample(rng)
        y = random_hermitian(dim, rng, scale=2.0)
        f = fenchel_coupling(x, y, dom)
        d = quantum_kl(x, mirror_map(y, dom))
        assert f >= -1e-12
        assert abs(f - d) < 1e-9


def test_norms_basic():
    h = np.diag([1.0, -2.0]).astype(complex)
    assert nuclear_norm(h) == pytest.approx(3.0)
    assert dual_norm(h) == pytest.approx(2.0)


def test_nuclear_norm_equals_trace_for_psd(rng):
    for _ in range(20):
        x = UNIT3.sample(rng)
        assert nuclear_norm(x) == pytest.approx(float(np.trace(x).real), abs=1e-10)


def test_norms_hoelder_pair(rng):
    for _ in range(200):
        a = random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        assert abs(trace_inner(a, b)) <= nuclear_norm(a) * dual_norm(b) + 1e-10


class TestSpectrahedron:
    def test_membership(self, rng):
        dom = Spectrahedron(3, 1.0)
        assert dom.contains(np.eye(3, dtype=complex) / 4)
        assert not dom.contains(np.eye(3, dtype=complex))
        assert not dom.contains(np.diag([1.5, -0.5, 0.0]).astype(complex))
        for _ in range(50):
            assert dom.contains(dom.sample(rng))

    def test_block_membership(self):
        dom = Spectrahedron(4, 1.0, blocks=2)
        x = np.eye(4, dtype=complex) / 8
        assert dom.contains(x)
        bad = x.copy()
        bad[0, 3] = bad[3, 0] = 0.05
        assert not dom.contains(bad)

    def test_block_layout_derived_once_and_not_compared(self):
        dom = Spectrahedron(6, 1.0, blocks=3)
        inside = np.zeros((6, 6), dtype=bool)
        for sl in (slice(0, 2), slice(2, 4), slice(4, 6)):
            inside[sl, sl] = True
        for r, c in np.ndindex(6, 6):  # the entries outside the blocks carry off-block mass
            x = np.zeros((6, 6), dtype=complex)
            x[r, c] = 1.0
            assert dom.off_block_mass(x) == (0.0 if inside[r, c] else 1.0)
        assert Spectrahedron(3, 1.0).blocks == 1
        assert Spectrahedron(3, 1.0).off_block_mass(np.ones((3, 3))) == 0.0
        twin = Spectrahedron(6, 1.0, blocks=np.int64(3))
        assert dom == twin and hash(dom) == hash(twin) and type(twin.blocks) is int
        assert repr(dom) == "Spectrahedron(dim=6, trace_bound=1.0, blocks=3)"

    def test_off_block_mass_of_a_stack_is_the_largest(self):
        dom = Spectrahedron(4, 1.0, blocks=2)
        stack = np.zeros((3, 4, 4), dtype=complex)
        stack[:, :2, :2] = stack[:, 2:, 2:] = 5.0  # block entries carry no mass
        stack[1, 0, 3] = stack[1, 3, 0] = 0.3
        stack[2, 1, 2] = 0.4j
        assert dom.off_block_mass(stack[0]) == 0.0
        assert dom.off_block_mass(stack[1]) == pytest.approx(0.3 * math.sqrt(2))
        assert dom.off_block_mass(stack) == pytest.approx(0.3 * math.sqrt(2))
        assert dom.off_block_mass(stack[::2]) == pytest.approx(0.4)
        assert Spectrahedron(4, 1.0).off_block_mass(stack) == 0.0

    def test_block_domain_sample_and_projection(self, rng):
        dom = Spectrahedron(6, 2.0, blocks=2)
        for _ in range(20):
            assert dom.contains(dom.sample(rng))
            p = dom.project(random_hermitian(6, rng, scale=2.0))
            assert dom.contains(p)
            assert np.linalg.norm(dom.project(p) - p) < 1e-10

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValueError):
            Spectrahedron(4, 1.0, blocks=(2, 3))

    @pytest.mark.parametrize("blocks", [0, -1, 4, (2, 2, 2), 2.0],
                             ids=["zero", "negative", "not_dividing", "tuple", "float"])
    def test_blocks_is_a_count_dividing_dim(self, blocks):
        with pytest.raises(ValueError, match="dividing dim=6"):
            Spectrahedron(6, 1.0, blocks=blocks)

    def test_projection_idempotent_and_feasible(self, rng):
        dom = Spectrahedron(3, 1.0)
        for _ in range(30):
            raw = random_hermitian(3, rng, scale=2.0)
            p = dom.project(raw)
            assert dom.contains(p)
            assert np.linalg.norm(dom.project(p) - p) < 1e-10

    def test_projection_no_op_inside(self, rng):
        dom = Spectrahedron(3, 1.0)
        x = dom.sample(rng)
        assert np.linalg.norm(dom.project(x) - x) < 1e-10

    def test_center_is_mirror_of_zero(self):
        dom = Spectrahedron(3, 2.0)
        assert np.allclose(dom.center(), mirror_map(np.zeros((3, 3)), dom))


def test_score_shift_trace_saturation():
    # along a ray with a unique top eigenvalue the output trace approaches the bound
    dom = Spectrahedron(3, 1.0)
    base = np.diag([2.0, 1.0, 0.5]).astype(complex)
    traces = [float(np.trace(mirror_map(t * base, dom)).real) for t in (5, 20, 100)]
    assert traces == sorted(traces)
    assert traces[-1] > 1.0 - 1e-12


# The per-block loops that the block layout replaced with one batched eigh and one
# batched matmul; the batched path must give their values bit for bit.

def ref_eigh_blocks(domain, y):
    pairs = [np.linalg.eigh(y[..., sl, sl]) for sl in block_slices(domain)]
    return np.concatenate([w for w, _ in pairs], axis=-1), [u for _, u in pairs]


def ref_assemble(domain, lam, bases):
    out = np.zeros(lam.shape + lam.shape[-1:], dtype=complex)
    for sl, u in zip(block_slices(domain), bases):
        out[..., sl, sl] = (u * lam[..., None, sl]) @ u.conj().swapaxes(-1, -2)
    return hermitize(out)


def ref_exp_projection(y, domain):
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


def ref_sample_direction(domain, rng):
    out = np.zeros((domain.dim, domain.dim), dtype=complex)
    for sl in block_slices(domain):
        out[sl, sl] = random_hermitian(sl.stop - sl.start, rng)
    return out / np.linalg.norm(out)


LAYOUTS = {
    "scalar": Spectrahedron(1, 2.0),
    "unblocked": Spectrahedron(3, 2.0),
    "equal_2x2": Spectrahedron(4, 1.0, blocks=2),
    "equal_4x16": Spectrahedron(64, 1.0, blocks=16),
}


def block_scores(domain, rng, count, scale):
    """(count, d, d) stack of block-diagonal Hermitian scores of Frobenius norm `scale`."""
    return np.stack([scale * domain.sample_direction(rng) for _ in range(count)])


def test_diagonal_blocks_is_one_writable_view():
    x = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(LAYOUTS["equal_2x2"].diagonal_blocks(x), [x[:2, :2], x[2:, 2:]])
    assert np.array_equal(Spectrahedron(4, 1.0).diagonal_blocks(x), [x])
    stack = np.zeros((3, 4, 4))
    LAYOUTS["equal_2x2"].diagonal_blocks(stack)[1, 1] = 1.0
    assert stack[1, 2:, 2:].sum() == 4.0 and stack.sum() == 4.0


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_block_paths_equal_per_block_loops_bit_for_bit(name):
    dom = LAYOUTS[name]
    rng = np.random.default_rng(31)
    for scale in (0.5, 20.0, 1e4):
        y = block_scores(dom, rng, 5, scale)
        assert np.array_equal(exp_projection(y, dom), ref_exp_projection(y, dom))
        assert np.array_equal(mirror_map(y[2], dom), ref_exp_projection(y[2], dom))
        lam, bases = dom._eigh_blocks(y)
        ref_lam, ref_bases = ref_eigh_blocks(dom, y)
        assert np.array_equal(lam, ref_lam)
        assert np.array_equal(dom._assemble(lam, bases), ref_assemble(dom, ref_lam, ref_bases))
        raw = random_hermitian(dom.dim, rng, scale=scale)
        ref_lam, ref_bases = ref_eigh_blocks(dom, hermitize(raw))
        ref = ref_assemble(dom, _project_capped_simplex(ref_lam, dom.trace_bound), ref_bases)
        assert np.array_equal(dom.project(raw), ref)
    for seed in range(3):
        ref_rng = np.random.default_rng(seed)
        lam = dom.trace_bound * ref_rng.dirichlet(np.ones(dom.dim + 1))[: dom.dim]
        bases = [haar_unitary(sl.stop - sl.start, ref_rng) for sl in block_slices(dom)]
        assert np.array_equal(dom.sample(np.random.default_rng(seed)),
                              ref_assemble(dom, lam, bases))
        assert np.array_equal(dom.sample_direction(np.random.default_rng(seed)),
                              ref_sample_direction(dom, np.random.default_rng(seed)))


def ref_off_block_mass(domain, x):
    """Largest norm of the entries outside the blocks, gathered through a boolean mask."""
    owner = np.repeat(np.arange(domain.blocks), domain.dim // domain.blocks)
    return float(np.max(np.linalg.norm(np.asarray(x)[..., owner[:, None] != owner], axis=-1)))


@pytest.mark.parametrize("name", ["equal_2x2", "equal_4x16"])
def test_off_block_mass_equals_gather_norm(name):
    dom = LAYOUTS[name]
    rng = np.random.default_rng(37)
    members = block_scores(dom, rng, 6, 3.0)
    assert dom.off_block_mass(members) == 0.0
    assert all(dom.off_block_mass(x) == 0.0 for x in members)
    dense = np.stack([random_hermitian(dom.dim, rng, scale) for scale in (1e-3, 1.0, 1e3)])
    for x in (dense, dense[0], members[:3] + 1e-9 * dense, dense.real):
        assert dom.off_block_mass(x) == pytest.approx(ref_off_block_mass(dom, x), rel=1e-13)


def ref_contains(domain, x):
    """Membership read from the whole matrix's spectrum."""
    if x.shape != (domain.dim, domain.dim) or not np.isfinite(x).all():
        return False
    if hermiticity_defect(x) > HERMITIAN_TOL or domain.off_block_mass(x) > OFF_BLOCK_TOL:
        return False
    w = np.linalg.eigvalsh(hermitize(x))
    return w[0] >= -PSD_TOL and float(np.sum(np.abs(w))) <= domain.trace_bound + PSD_TOL


@pytest.mark.parametrize("name", ["unblocked", "equal_2x2", "equal_4x16"])
def test_contains_reads_the_blocks_as_the_whole_spectrum(name):
    dom = LAYOUTS[name]
    rng = np.random.default_rng(37)
    eye = np.eye(dom.dim)
    seen = set()
    for _ in range(40):
        x = dom.sample(rng)
        tr = float(np.trace(x).real)
        w_min = float(np.linalg.eigvalsh(x)[0])
        top = dom.trace_bound / tr
        candidates = [x, x * top * (1 - 1e-6), x * top * (1 + 1e-6), x - (w_min + 1e-6) * eye,
                      x + 1e-6 * dom.sample_direction(rng), x.astype(complex) * 1j]
        if dom.blocks > 1:
            off = x.copy()
            off[0, -1] = off[-1, 0] = 1e-6
            candidates.append(off)
        for cand in candidates:
            expected = ref_contains(dom, cand)
            assert dom.contains(cand) == expected
            seen.add(expected)
    assert seen == {True, False}


# Property tests: seeded loops over an unblocked and a 16-block domain.

PROPERTY_LAYOUTS = ["unblocked", "equal_4x16"]


@pytest.mark.parametrize("name", PROPERTY_LAYOUTS)
def test_mirror_map_feasible_at_extreme_scores(name):
    dom = LAYOUTS[name]
    rng = np.random.default_rng(41)
    eye = np.eye(dom.dim)
    for _ in range(20):
        for scale in (1e2, 1e6, 1e12, 1e100):
            y = block_scores(dom, rng, 1, scale)[0]
            for shift in (0.0, scale, -scale):
                x = mirror_map(y + shift * eye, dom)
                assert np.isfinite(x).all()
                assert dom.contains(x)


@pytest.mark.parametrize("name", PROPERTY_LAYOUTS)
def test_fenchel_coupling_nonnegative(name):
    dom = LAYOUTS[name]
    rng = np.random.default_rng(43)
    for _ in range(30):
        x = dom.sample(rng)
        for scale in (0.1, 3.0, 30.0):
            y = block_scores(dom, rng, 1, scale)[0]
            assert fenchel_coupling(x, y, dom) >= -1e-12 * max(1.0, scale)
            # at a score's own image the coupling vanishes, up to rounding
            assert fenchel_coupling(mirror_map(y, dom), y, dom) >= -1e-9 * max(1.0, scale)


@pytest.mark.parametrize("name", PROPERTY_LAYOUTS)
def test_projection_idempotent(name):
    dom = LAYOUTS[name]
    rng = np.random.default_rng(47)
    for _ in range(30):
        for scale in (0.1, 1.0, 10.0, 1e3):
            p = dom.project(random_hermitian(dom.dim, rng, scale=scale))
            assert dom.contains(p)
            assert np.linalg.norm(dom.project(p) - p) <= 1e-12 * max(1.0, np.linalg.norm(p))


# Stacked divergence, norms and log-sum-exp against the per-matrix formulas they
# replaced (tests/helpers.py), row by row and bit for bit.

STACK_DOMAINS = {
    "dim1": Spectrahedron(1, 1.0),
    "dim3": Spectrahedron(3, 1.0),
    "dim64": Spectrahedron(64, 1.0),
    "equal_4x16": LAYOUTS["equal_4x16"],
}


def kl_points(dom, rng):
    """Members of the unit set: samples, a projection with exact zero eigenvalues, the
    zero matrix, a diagonal of trace exactly 1 (no slack) and the center."""
    full = 2.0 ** -np.arange(1.0, dom.dim + 1)
    full[-1] *= 2.0
    return [dom.sample(rng), dom.sample(rng), dom.sample(rng),
            dom.project(random_hermitian(dom.dim, rng) - 0.1 * np.eye(dom.dim)),
            np.zeros((dom.dim, dom.dim), dtype=complex), np.diag(full).astype(complex),
            dom.center()]


@pytest.mark.parametrize("name", sorted(STACK_DOMAINS))
def test_stacked_quantum_kl_equals_per_matrix_loop(name):
    dom = STACK_DOMAINS[name]
    rng = np.random.default_rng(59)
    points = kl_points(dom, rng)
    x = np.stack(points)
    seen = set()
    for ref in points:
        expected = [ref_quantum_kl(ref, xs) for xs in x]
        assert np.array_equal(quantum_kl(ref, x), expected)
        assert np.array_equal(quantum_kl(ref, x[None, 1:3]), [expected[1:3]])
        single = quantum_kl(ref, x[0])
        assert type(single) is float and single == expected[0]
        seen.update("inf" if math.isinf(v) else "finite" for v in expected)
    assert seen == {"inf", "finite"}
    # the reference's zero eigenvalues and the slack of a trace-1 argument
    assert quantum_kl(points[3], points[4]) == ref_quantum_kl(points[3], points[4])
    assert quantum_kl(dom.center(), points[5]) == math.inf
    with pytest.raises(DomainError):
        quantum_kl(x, x)  # the reference is one matrix


@pytest.mark.parametrize("name", sorted(STACK_DOMAINS))
def test_stacked_norms_and_entropy_equal_per_matrix_formulas(name):
    dom = STACK_DOMAINS[name]
    rng = np.random.default_rng(61)
    a = np.stack([random_hermitian(dom.dim, rng, scale=s) for s in (0.1, 1.0, 30.0)])
    b = np.stack([random_hermitian(dom.dim, rng) for _ in range(3)])
    nuclear = [float(np.sum(np.abs(np.linalg.eigvalsh(h)))) for h in a]
    spectral = [float(max(abs(w[0]), abs(w[-1]))) for w in np.linalg.eigvalsh(a)]
    assert np.array_equal(nuclear_norm(a), nuclear)
    assert np.array_equal(dual_norm(a), spectral)
    assert np.array_equal(trace_inner(a, b), [ref_trace_inner(p, q) for p, q in zip(a, b)])
    assert np.array_equal(trace_inner(a, b[0]), [ref_trace_inner(p, b[0]) for p in a])
    for fn, ref in ((nuclear_norm, nuclear), (dual_norm, spectral)):
        assert type(fn(a[1])) is float and fn(a[1]) == ref[1]
    assert type(trace_inner(a[0], b[0])) is float
    for scale in (0.5, 20.0, 1e4, 1e300):
        w = np.linalg.eigvalsh(scale * a / np.linalg.norm(a, axis=(-2, -1), keepdims=True))
        assert np.array_equal(_log_conjugate_from_eigs(w)[:, 0],
                              [ref_log_conjugate_from_eigs(r) for r in w])
        assert entropy_conjugate(scale * b[0] / np.linalg.norm(b[0])) == \
            ref_log_conjugate_from_eigs(np.linalg.eigvalsh(scale * b[0] / np.linalg.norm(b[0])))
    for x in kl_points(dom, rng):
        for bound in (1.0, 2.0):
            got, expected = _entropy_of(x * bound, bound), ref_entropy_of(x * bound, bound)
            assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("name", sorted(STACK_DOMAINS))
def test_contains_reads_every_matrix_of_a_stack(name):
    dom = STACK_DOMAINS[name]
    rng = np.random.default_rng(67)
    members = np.stack([dom.sample(rng) for _ in range(4)])
    assert dom.contains(members) and dom.contains(members[None])
    bad = {"trace": 2.0 * dom.trace_bound / dom.dim * np.eye(dom.dim, dtype=complex),
           "non_psd": -0.1 * np.eye(dom.dim, dtype=complex), "non_hermitian": members[0].copy(),
           "non_finite": members[0].copy()}
    bad["non_hermitian"][0, 0] += 0.01j
    bad["non_finite"][-1, -1] = np.nan
    for x in bad.values():
        assert not dom.contains(x)
        for k in range(len(members)):
            stack = members.copy()
            stack[k] = x
            assert not dom.contains(stack) and not dom.contains(stack[None])
    assert not dom.contains(members[..., :1]) or dom.dim == 1
    assert not dom.contains(members[0, 0])


def test_ordered_sum_adds_left_to_right_from_zero(rng):
    def loop(v):
        total = 0.0
        for term in v:
            total = total + term
        return float(total)

    cases = [rng.standard_normal(17) * 10.0 ** rng.integers(-8, 8, 17), np.full(4, -0.0),
             np.array([-0.0]), np.array([-0.0, 0.0, -0.0]), np.array([1e16, 1.0, -1e16, 1.0])]
    for v in cases:
        assert float(ordered_sum(v)).hex() == loop(v).hex()
    stack = np.stack([cases[0][:4], cases[1], cases[4]])
    assert [float(t).hex() for t in ordered_sum(stack)] == [loop(r).hex() for r in stack]
    # every term -0.0: the loop from 0.0 gives +0.0, and so does the sum
    assert math.copysign(1.0, ordered_sum(np.full(3, -0.0))) == 1.0


def test_stacked_checks_read_the_whole_stack(rng):
    good = np.stack([random_hermitian(3, rng) for _ in range(4)])
    assert hermiticity_defect(good) == 0.0
    bad = good.copy()
    bad[2, 0, 1] += 1e-6
    assert hermiticity_defect(bad) == pytest.approx(1e-6)
    with pytest.raises(DomainError, match="not Hermitian"):
        nuclear_norm(bad)
    bad = good.copy()
    bad[3, 1, 1] = complex(1.0, np.inf)
    with pytest.raises(DomainError, match="non-finite"):
        dual_norm(bad)
    with pytest.raises(DomainError, match="square"):
        dual_norm(good[:, :2])


@pytest.mark.parametrize("dom", [
    Spectrahedron(1, 1.0), Spectrahedron(3, 2.0), Spectrahedron(4, 1.0, blocks=2),
    Spectrahedron(64, 1.5, blocks=16),
], ids=["dim1", "dim3", "dim4_2blocks", "dim64_16blocks"])
def test_sample_count_equals_single_calls_bit_for_bit(dom):
    for count in (1, 2, 7):
        rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
        stack = dom.sample(rng, count)
        assert stack.shape == (count, dom.dim, dom.dim)
        assert np.array_equal(stack, np.stack([ref_sample(dom, ref_rng) for _ in range(count)]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    single, one = dom.sample(np.random.default_rng(5)), dom.sample(np.random.default_rng(5), 1)
    assert single.shape == (dom.dim, dom.dim)
    assert np.array_equal(one[0], single)
    assert np.array_equal(single, ref_sample(dom, np.random.default_rng(5)))
