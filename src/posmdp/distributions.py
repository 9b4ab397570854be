"""Sojourn-time and observation distributions.

Three sojourn-time families are supported: inverse Gaussian, deterministic
atom, and a Gaussian truncated to positive support. Densities are taken with
respect to a mixed (Lebesgue + counting) base measure so that atoms evaluate
to their mass; see :func:`mixed_density` for the rule used when atoms and
continuous laws coexist in one model.

Every law's expected discount ``E[exp(-beta tau)]`` (its Laplace transform,
which the stage reward and the initial bound are built from) is in closed form.

Each family's density formula is one module-level function of the time and
the law's parameters. A law's ``pdf`` calls it with scalar parameters; a
:class:`SojournFamily` calls it with parameter arrays over many ``[s, s']``
cells, so a model evaluates all laws of one family in one numpy expression.
So too each family's ``time`` map from two uniforms on [0, 1) to a time, the
one way the package draws a sojourn time (the model's transition kernel calls
it), so callers own the random stream.

All distribution objects are immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "InverseGaussian",
    "DeterministicAtom",
    "TruncatedGaussian",
    "BetaDensity",
    "SojournDistribution",
    "SojournFamily",
    "atom_mask",
    "draw_rows",
    "mixed_density",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

# The standard normal's cdf Phi, its log and its quantile, on floats. The
# quantile is CPython's C code of Wichura's AS241 (Applied Statistics 37, 1988);
# it rejects p outside (0, 1).
_ndtri = NormalDist().inv_cdf


def _ndtr(x):
    return 0.5 * math.erfc(-x * _SQRT1_2)


def _log_ndtr(x):
    if x > -1.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    # Phi(x) = phi(x) / -x * (1 - 1/x**2 + 3/x**4 - ...): asymptotic, but at
    # x <= -20 its terms fall about 20-fold per step until the sum stops changing.
    z, term, total, k = 1.0 / (x * x), 1.0, 1.0, 1
    while total + term != total:
        term *= -(2 * k - 1) * z
        total += term
        k += 1
    return -0.5 * x * x - math.log(-x * _SQRT_2PI) + math.log(total)


def _ndtri_exp(y):
    """Phi^-1(exp(y)) for y < 0; within 1e-15 relative of scipy's down to y = -800.

    The package passes y no lower than about -745: ``log1p(-u1) >= log
    2**-53``, and a truncated Gaussian whose ``Phi(mu / sigma)`` is subnormal
    is rejected on load. Below y = -700, where exp(y) nears the subnormals,
    four Newton steps on ``log Phi(x) = y`` from ``x = -sqrt(-2 y)``: log Phi
    is increasing and concave and starts below y, so each step rises towards
    the root from the left.
    """
    if y >= -math.log(2.0):
        return -_ndtri(-math.expm1(y))  # 1 - p without cancellation
    if y >= -700.0:
        return _ndtri(math.exp(y))
    x = -math.sqrt(-2.0 * y)
    for _ in range(4):
        fx = _log_ndtr(x)  # the step (fx - y) / (log Phi)'(x), (log Phi)' = phi / Phi
        x -= (fx - y) * math.exp(fx + 0.5 * x * x) * _SQRT_2PI
    return x


def _elementwise(f):
    def apply(x):
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return apply


# Array forms, for times and parameters over many cells. (A numpy-vectorized
# AS241 costs more than this loop at the tens of elements the package passes.)
ndtr, log_ndtr, ndtri, ndtri_exp = map(_elementwise, (_ndtr, _log_ndtr, _ndtri, _ndtri_exp))


def _inverse_gaussian_density(tau, mu, lam):
    pos = tau > 0
    t = np.where(pos, tau, 1.0)
    return np.where(
        pos,
        np.sqrt(lam / (2.0 * np.pi * t**3)) * np.exp(-lam * (t - mu) ** 2 / (2.0 * mu**2 * t)),
        0.0,
    )


def _atom_density(tau, c0):
    # Mass w.r.t. the counting component of the base measure.
    return (tau == c0).astype(float)


def _truncated_gaussian_density(tau, mu, sigma, mass):
    # ``mass`` is P(X > 0) for the untruncated Gaussian.
    z = (tau - mu) / sigma
    return np.where(tau > 0, np.exp(-0.5 * z * z) / (_SQRT_2PI * sigma * mass), 0.0)


def _inverse_gaussian_time(u1, u2, mu, lam):
    # |nu| is the half-normal quantile of u1, finite at every u1 in [0, 1).
    mnu = -mu * ndtri(0.5 * (1.0 - u1))
    x = 4.0 * lam * mu * mu / (mnu + np.sqrt(4.0 * mu * lam + mnu * mnu)) ** 2
    return np.where(u2 <= mu / (mu + x), x, mu * mu / x)


def _atom_time(u1, u2, c0):
    return np.full(np.shape(u1), c0)


def _truncated_gaussian_time(u1, u2, mu, sigma, mass):
    # In log space no probability underflows. u1 = 0 would give an endpoint of
    # the support, and rounding near tau = 0 may give tau <= 0: both kept out.
    log_p = np.log1p(-np.maximum(u1, 2.0**-53)) + log_ndtr(mu / sigma)
    return np.maximum(mu - sigma * ndtri_exp(log_p), np.finfo(float).tiny)


class _SojournLaw:
    """A law's ``pdf`` is its family's ``density`` at its own parameters."""

    atom = None  # a continuous law; DeterministicAtom overrides it

    def pdf(self, tau):
        out = self.density(np.asarray(tau, dtype=float), *self.params)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class InverseGaussian(_SojournLaw):
    """Inverse Gaussian (Wald) law with mean ``mu`` and shape ``lam``.

    The variance is ``mu**3 / lam``. The time map is exact (Michael, Schucany
    & Haas 1976): ``nu**2 = lam (X - mu)**2 / (mu**2 X)`` is chi-square(1), and
    of its roots ``x <= mu**2 / x``, taking ``x`` with probability ``mu / (mu +
    x)`` gives the law; ``x`` is written without cancellation.
    """

    mu: float
    lam: float

    density = staticmethod(_inverse_gaussian_density)
    time = staticmethod(_inverse_gaussian_time)

    def __post_init__(self):
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"inverse Gaussian mean must be positive, got {self.mu}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"inverse Gaussian shape must be positive, got {self.lam}")

    @property
    def params(self):
        return (self.mu, self.lam)

    def cdf(self, tau):
        tau = np.asarray(tau, dtype=float)
        pos = tau > 0
        t = np.where(pos, tau, 1.0)
        root = np.sqrt(self.lam / t)
        # Second term is exp(2*lam/mu) * Phi(-z): evaluated in log space since
        # the factor overflows while Phi(-z) underflows.
        first = ndtr(root * (t / self.mu - 1.0))
        second = np.exp(2.0 * self.lam / self.mu + log_ndtr(-root * (t / self.mu + 1.0)))
        out = np.where(pos, first + second, 0.0)
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def expected_discount(self, beta: float) -> float:
        """Laplace transform E[exp(-beta * tau)], in closed form."""
        if beta < 0:
            raise ValueError("discount rate must be nonnegative")
        return math.exp(
            self.lam / self.mu * (1.0 - math.sqrt(1.0 + 2.0 * self.mu**2 * beta / self.lam))
        )

    def mean(self) -> float:
        return self.mu


@dataclass(frozen=True)
class DeterministicAtom(_SojournLaw):
    """Unit point mass at the fixed sojourn time ``c0`` (its map ignores ``u``)."""

    c0: float

    density = staticmethod(_atom_density)
    time = staticmethod(_atom_time)

    def __post_init__(self):
        if not (self.c0 > 0 and math.isfinite(self.c0)):
            raise ValueError(f"atom location must be positive, got {self.c0}")

    @property
    def params(self):
        return (self.c0,)

    def cdf(self, tau):
        out = (np.asarray(tau, dtype=float) >= self.c0).astype(float)
        return out if out.ndim else float(out)

    def expected_discount(self, beta: float) -> float:
        if beta < 0:
            raise ValueError("discount rate must be nonnegative")
        return math.exp(-beta * self.c0)

    def mean(self) -> float:
        return self.c0

    @property
    def atom(self):
        return self.c0


@dataclass(frozen=True)
class TruncatedGaussian(_SojournLaw):
    """Gaussian with mean ``mu`` and std ``sigma`` truncated to (0, inf).

    The time map is the inverse cdf, exact: ``tau = mu - sigma Phi^-1((1 - u1)
    Phi(mu / sigma))`` has survival ``1 - u1``, and stays accurate when ``mu /
    sigma`` is very negative. ``u2`` goes unused.
    """

    mu: float
    sigma: float

    density = staticmethod(_truncated_gaussian_density)
    time = staticmethod(_truncated_gaussian_time)

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"truncated Gaussian mean must be finite, got {self.mu}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"truncated Gaussian std must be positive, got {self.sigma}")
        # P(X > 0) for the untruncated Gaussian; not a field, so eq and hash skip it.
        # Subnormal (mu / sigma < -37.52), it would put pdf and cdf off by percents.
        object.__setattr__(self, "_mass", _ndtr(self.mu / self.sigma))
        if self._mass < np.finfo(float).tiny:
            raise ValueError(f"truncated Gaussian ({self.mu}, {self.sigma}) has no mass above 0")

    @property
    def params(self):
        return (self.mu, self.sigma, self._mass)

    def cdf(self, tau):
        # One minus the survival ratio: no difference of two Phi values.
        tau = np.asarray(tau, dtype=float)
        out = np.where(tau > 0, 1.0 - ndtr((self.mu - tau) / self.sigma) / self._mass, 0.0)
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def expected_discount(self, beta: float) -> float:
        """Laplace transform E[exp(-beta * tau)], in closed form.

        Completing the square under the truncated density gives
        ``exp(-beta mu + (beta sigma)**2 / 2) Phi((mu - beta sigma**2) / sigma)
        / Phi(mu / sigma)`` (Johnson, Kotz & Balakrishnan, *Continuous
        Univariate Distributions* 1, 1994, sec. 10.1). It is evaluated in log
        space: for large ``beta * sigma`` the exponential overflows while the
        numerator's Phi underflows, though their product is below 1.
        """
        if beta < 0:
            raise ValueError("discount rate must be nonnegative")
        return math.exp(-beta * self.mu + 0.5 * (beta * self.sigma) ** 2
                        + _log_ndtr((self.mu - beta * self.sigma**2) / self.sigma)
                        - _log_ndtr(self.mu / self.sigma))

    def mean(self) -> float:
        a = -self.mu / self.sigma
        return self.mu + self.sigma * math.exp(-0.5 * a * a) / (_SQRT_2PI * self._mass)


SojournDistribution = InverseGaussian | DeterministicAtom | TruncatedGaussian


@dataclass(frozen=True, eq=False)
class SojournFamily:
    """Laws of one family over many ``[s, s']`` cells, as parameter arrays.

    ``params`` holds one array over ``cells`` per parameter of ``kind``. At a
    scalar ``tau``, :meth:`pdf` gives one density per cell; at an ``[n, 1]``
    column of times, an ``[n, cells]`` block.
    """

    kind: type
    cells: tuple  # (rows, cols)
    params: tuple

    @property
    def atom(self):
        """The atom locations per cell, or None for a continuous family."""
        return self.params[0] if self.kind is DeterministicAtom else None

    def pdf(self, tau):
        return self.kind.density(np.asarray(tau, dtype=float), *self.params)


def atom_mask(tau, atom_values):
    """Whether ``tau`` is an atom location of the model, shaped like ``tau``."""
    return (np.asarray(tau)[..., None] == np.fromiter(atom_values, dtype=float)).any(-1)


def mixed_density(dist, tau, at_atom):
    """Density of ``dist`` at ``tau`` w.r.t. Lebesgue + counting measure.

    ``dist`` is one law or a :class:`SojournFamily`. ``at_atom``, shaped like
    ``tau``, marks the times that are atom locations of the surrounding model
    (:func:`atom_mask`): continuous densities evaluate to zero exactly there,
    so that mixtures of fixed and random sojourn times stay well-defined.
    """
    if dist.atom is not None:
        return dist.pdf(tau)
    out = np.where(at_atom, 0.0, dist.pdf(tau))
    return out if out.ndim else float(out)


def draw_rows(cumulative, u):
    """Per row of ``cumulative`` probabilities, the first index above uniform ``u``;
    a ``u`` at or above a row's total, which may round below 1, takes its last index
    of positive probability."""
    index = (cumulative <= u[:, None]).sum(axis=1)
    if (index == cumulative.shape[-1]).any():
        index = np.minimum(index, (cumulative < cumulative[..., -1:]).sum(axis=-1))
    return index


@dataclass(frozen=True)
class BetaDensity:
    """Beta density on (0, 1) with shape parameters ``phi`` and ``eta``."""

    phi: float
    eta: float

    def __post_init__(self):
        if not (self.phi > 0 and self.eta > 0):
            raise ValueError(f"beta shapes must be positive, got ({self.phi}, {self.eta})")

    def pdf(self, o):
        o_arr = np.asarray(o, dtype=float)
        if np.any(o_arr <= 0) or np.any(o_arr >= 1):
            raise ValueError("beta density is defined on the open interval (0, 1)")
        log_norm = (
            math.lgamma(self.phi + self.eta) - math.lgamma(self.phi) - math.lgamma(self.eta)
        )
        out = np.exp(log_norm + (self.phi - 1) * np.log(o_arr) + (self.eta - 1) * np.log1p(-o_arr))
        return out if out.ndim else float(out)
