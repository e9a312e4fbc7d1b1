"""Matrix-weighted anisotropic surface energy densities.

A density here is a finite sum of matrix-weighted Euclidean norms,

    gamma(p) = sum_l sqrt(p . G_l p),

with symmetric positive definite weight matrices G_l.  Densities of this
form are smooth away from the origin, strictly convex, and one-homogeneous,
and their quadratic energy A(p) = gamma(p)^2 / 2 admits a linearization
B(q) that is SPD for every q and preserves the monotonicity of A', which
is what makes semi-implicit time stepping unconditionally energy stable.

All evaluation methods accept a single vector of shape (d,) or a batch of
shape (..., d) and vectorize accordingly.
"""

import math

import numpy as np

__all__ = [
    "AnisotropyDensity",
    "isotropic",
    "make_regularized_l1",
    "rotation_2d",
    "rotation_3d",
    "unit_directions",
    "verify_inequalities",
]

# gamma_l(q) below this fraction of |q| is treated as q = 0; unreachable for
# SPD weights, kept as an explicit guard against division blow-up.
_UNDERFLOW_GUARD = 1e-300


class AnisotropyDensity:
    """Sum-of-matrix-norm anisotropy gamma(p) = sum_l [p . G_l p]^(1/2).

    Parameters
    ----------
    matrices : array_like
        One d x d SPD matrix or a sequence of them, d in {2, 3}.  Each
        matrix must be finite, symmetric (checked, then stored exactly
        symmetrized) and admit a Cholesky factorization.

    Instances are immutable and all methods are pure, so a single density
    can be shared freely between threads.
    """

    def __init__(self, matrices):
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim == 2:
            mats = mats[None]
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("expected one or more square matrices")
        if mats.shape[0] < 1:
            raise ValueError("at least one weight matrix is required")
        dim = mats.shape[1]
        if dim not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {dim}")
        if not np.isfinite(mats).all():
            raise ValueError("weight matrices must be finite")
        scale = np.abs(mats).max()
        if np.abs(mats - mats.transpose(0, 2, 1)).max() > 1e-12 * max(scale, 1.0):
            raise ValueError("weight matrices must be symmetric")
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        try:
            np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            raise ValueError("weight matrices must be positive definite") from None
        mats.setflags(write=False)
        self._matrices = mats

    @property
    def matrices(self):
        """Read-only (L, d, d) array of weight matrices."""
        return self._matrices

    @property
    def dim(self):
        return self._matrices.shape[1]

    @property
    def n_terms(self):
        return self._matrices.shape[0]

    def __repr__(self):
        return f"AnisotropyDensity(dim={self.dim}, n_terms={self.n_terms})"

    # -- evaluation ----------------------------------------------------

    def _check_vec(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise ValueError(f"expected vectors of length {self.dim}")
        return p

    def gamma_terms(self, p):
        """Individual terms gamma_l(p) = [p . G_l p]^(1/2), shape (L, ...)."""
        p = self._check_vec(p)
        quad = np.stack([np.einsum("...i,...i->...", p @ mat, p)
                         for mat in self._matrices])
        return np.sqrt(np.maximum(quad, 0.0))

    def gamma(self, p):
        """Density value sum_l gamma_l(p); zero exactly when p = 0."""
        return self.gamma_terms(p).sum(axis=0)

    def gamma_grad(self, p):
        """Gradient sum_l gamma_l(p)^(-1) G_l p; rejects p = 0.

        Satisfies the Euler identity gamma_grad(p) . p = gamma(p).
        """
        p = self._check_vec(p)
        terms = self.gamma_terms(p)
        if np.any(terms.min(axis=0) == 0.0):
            raise ValueError("gamma is not differentiable at p = 0")
        return np.einsum("l...,lij,...j->...i", 1.0 / terms, self._matrices, p)

    def a_value(self, p):
        """Quadratic anisotropy energy A(p) = gamma(p)^2 / 2."""
        return 0.5 * self.gamma(p) ** 2

    def a_grad(self, p):
        """A'(p) = gamma(p) gamma'(p); one-homogeneous, rejects p = 0."""
        p = self._check_vec(p)
        return self.gamma(p)[..., None] * self.gamma_grad(p)

    def b_coefficients(self, q):
        """Weights c_l(q) of the linearization B(q) = sum_l c_l(q) G_l.

        c_l(q) = gamma(q) / gamma_l(q) for q != 0 and c_l(0) = L, so
        B(0) = L sum_l G_l.  Accepts a single vector (d,) or a batch
        (..., d) and returns shape (L,) or (L, ...).
        """
        q = self._check_vec(q)
        terms = self.gamma_terms(q)
        norms = np.linalg.norm(q, axis=-1)
        zero = (norms == 0.0) | np.any(terms < _UNDERFLOW_GUARD * norms, axis=0)
        safe = np.where(zero, 1.0, terms)
        return np.where(zero, float(self.n_terms), terms.sum(axis=0) / safe)

    def b_matrix(self, q):
        """SPD linearization B(q) with B(p) p = A'(p) for p != 0.

        B(q) = gamma(q) sum_l gamma_l(q)^(-1) G_l for q != 0 and
        B(0) = L sum_l G_l, so the zero-gradient case needs no smoothing.
        Accepts a batch (..., d) and returns (..., d, d).
        """
        return np.einsum("l...,lij->...ij", self.b_coefficients(q),
                         self._matrices)

    # -- derived densities ---------------------------------------------

    def rotate(self, rotation):
        """Density with weights R G_l R^T, i.e. gamma_new(p) = gamma(R^T p).

        ``rotation`` must be orthogonal to within 1e-12.
        """
        rot = np.asarray(rotation, dtype=float)
        if rot.shape != (self.dim, self.dim):
            raise ValueError(f"rotation must be {self.dim}x{self.dim}")
        if np.abs(rot.T @ rot - np.eye(self.dim)).max() > 1e-12:
            raise ValueError("rotation matrix is not orthogonal")
        mats = np.einsum("ij,ljk,mk->lim", rot, self._matrices, rot)
        return AnisotropyDensity(0.5 * (mats + mats.transpose(0, 2, 1)))

    def wulff_boundary_sample(self, n_dirs):
        """Points gamma'(n) on the Wulff boundary for n on the unit sphere.

        For a smooth strictly convex density the returned points trace the
        boundary of the equilibrium shape {x : x . n <= gamma(n) for all n};
        each sample x satisfies x . n = gamma(n) at its own direction.
        """
        return self.gamma_grad(unit_directions(self.dim, n_dirs))


def isotropic(dim):
    """The Euclidean density gamma(p) = |p| (L = 1, G = I)."""
    return AnisotropyDensity([np.eye(dim)])


def make_regularized_l1(dim, delta):
    """Regularized l1 density with terms [delta^2 |p|^2 + p_j^2 (1 - delta^2)]^(1/2).

    One term per coordinate axis (L = d).  Its equilibrium shape for small
    delta is a smoothed square (2d) or cube (3d).  delta must be positive;
    delta = 0 would make the weights singular.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    eye = np.eye(dim)
    mats = [delta**2 * eye + (1.0 - delta**2) * np.outer(eye[j], eye[j]) for j in range(dim)]
    return AnisotropyDensity(mats)


def rotation_2d(angle):
    """Counterclockwise 2d rotation by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_3d(axis, angle):
    """3d rotation by ``angle`` radians about coordinate ``axis`` (0, 1 or 2)."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    rot = np.eye(3)
    i, j = [k for k in range(3) if k != axis]
    c, s = math.cos(angle), math.sin(angle)
    rot[i, i] = c
    rot[j, j] = c
    rot[i, j] = -s
    rot[j, i] = s
    return rot


def unit_directions(dim, n_dirs):
    """Quasi-uniform unit directions: equal angles (2d), Fibonacci sphere (3d)."""
    if n_dirs < 3:
        raise ValueError("need at least 3 directions")
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        i = np.arange(n_dirs)
        z = 1.0 - 2.0 * (i + 0.5) / n_dirs
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise ValueError("dim must be 2 or 3")


def _sample_pairs(dim, n_samples, rng):
    """Random (p, q) pairs covering generic, collinear and q = 0 cases."""
    p = rng.standard_normal((n_samples, dim))
    q = rng.standard_normal((n_samples, dim))
    p *= 10.0 ** rng.uniform(-3.0, 3.0, n_samples)[:, None]
    q *= 10.0 ** rng.uniform(-3.0, 3.0, n_samples)[:, None]
    n_zero = max(n_samples // 20, 1)
    n_coll = max(n_samples // 20, 1)
    q[:n_zero] = 0.0
    lam = rng.uniform(-10.0, 10.0, n_coll)
    q[n_zero : n_zero + n_coll] = lam[:, None] * p[n_zero : n_zero + n_coll]
    # p = 0 has probability zero but would poison the gradient calls
    bad = np.linalg.norm(p, axis=1) < 1e-12
    p[bad] = 1.0
    return p, q


def verify_inequalities(aniso, n_samples=100_000, seed=0):
    """Check the structural inequalities of the density on random pairs.

    Draws ``n_samples`` seeded (p, q) pairs, including q = 0 and collinear
    q, and evaluates the inequalities the stable linearization rests on:

    ``dual``         gamma'(p) . q <= gamma(q)
    ``monotone``     A'(p) . (p - q) >= gamma(p) [gamma(p) - gamma(q)]
    ``cauchy``       A(p) <= gamma(q)/2 * sum_l gamma_l(q)^(-1) gamma_l(p)^2   (q != 0)
    ``lin_monotone`` [B(q) p] . (p - q) >= gamma(p) [gamma(p) - gamma(q)]
    ``lin_stable``   [B(q) p] . (p - q) >= A(p) - A(q)

    Returns a dict mapping each name to the maximum violation scaled by
    1 / (1 + |p|^2 + |q|^2); nonpositive everywhere means all hold exactly.
    """
    rng = np.random.default_rng(seed)
    p, q = _sample_pairs(aniso.dim, n_samples, rng)
    scale = 1.0 + np.einsum("ij,ij->i", p, p) + np.einsum("ij,ij->i", q, q)

    gp = aniso.gamma(p)
    gq = aniso.gamma(q)
    grad_p = aniso.gamma_grad(p)
    a_grad_p = gp[:, None] * grad_p
    bq_p = np.einsum("nij,nj->ni", aniso.b_matrix(q), p)
    pq = p - q
    lhs_b = np.einsum("ni,ni->n", bq_p, pq)

    out = {}
    out["dual"] = (np.einsum("ni,ni->n", grad_p, q) - gq) / scale
    out["monotone"] = (gp * (gp - gq) - np.einsum("ni,ni->n", a_grad_p, pq)) / scale
    nonzero = np.linalg.norm(q, axis=1) > 0.0
    terms_p = aniso.gamma_terms(p[nonzero])
    terms_q = aniso.gamma_terms(q[nonzero])
    bound = 0.5 * gq[nonzero] * (terms_p**2 / terms_q).sum(axis=0)
    out["cauchy"] = (0.5 * gp[nonzero] ** 2 - bound) / scale[nonzero]
    out["lin_monotone"] = (gp * (gp - gq) - lhs_b) / scale
    out["lin_stable"] = (0.5 * (gp**2 - gq**2) - lhs_b) / scale
    return {name: float(v.max()) for name, v in out.items()}
