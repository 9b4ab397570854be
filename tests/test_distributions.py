"""Distribution-level checks against independent references.

Oracle values come from scipy.stats (inverse Gaussian, truncated normal,
beta), scipy.special (the normal cdf and quantiles) and adaptive quadrature,
frozen as literals where noted.
"""

import dataclasses
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import make_random_model
from scipy import integrate, special, stats

import posmdp
from posmdp.distributions import (
    BetaDensity,
    DeterministicAtom,
    InverseGaussian,
    TruncatedGaussian,
    atom_mask,
    draw_rows,
    log_ndtr,
    mixed_density,
    ndtr,
    ndtri,
    ndtri_exp,
)

IG_CASES = [(5.0, 250.0), (10.0, 1000.0), (20.0, 4000.0), (45.0, 20250.0)]


def scipy_ig(mu, lam):
    return stats.invgauss(mu / lam, scale=lam)


class TestInverseGaussian:
    def test_pdf_at_mode_case(self):
        # Frozen from scipy.stats.invgauss(0.02, scale=250).pdf(5).
        assert InverseGaussian(5.0, 250.0).pdf(5.0) == pytest.approx(
            0.5641895835477564, rel=1e-12
        )

    @pytest.mark.parametrize("mu,lam", IG_CASES)
    def test_pdf_matches_reference(self, mu, lam):
        dist = InverseGaussian(mu, lam)
        ref = scipy_ig(mu, lam)
        taus = np.linspace(0.1, 4 * mu, 50)
        np.testing.assert_allclose(dist.pdf(taus), ref.pdf(taus), rtol=1e-10)

    @pytest.mark.parametrize("mu,lam", IG_CASES)
    def test_cdf_matches_reference(self, mu, lam):
        dist = InverseGaussian(mu, lam)
        ref = scipy_ig(mu, lam)
        taus = np.linspace(0.1, 4 * mu, 50)
        np.testing.assert_allclose(dist.cdf(taus), ref.cdf(taus), rtol=1e-9, atol=1e-14)

    @pytest.mark.parametrize("mu,lam", IG_CASES)
    def test_pdf_normalizes(self, mu, lam):
        dist = InverseGaussian(mu, lam)
        # Finite upper limit keeps the quadrature anchored on the narrow peak;
        # the tail mass beyond 20 means is far below the tolerance.
        total, _ = integrate.quad(dist.pdf, 0, 20 * mu, points=[mu], limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_zero_for_nonpositive(self):
        dist = InverseGaussian(5.0, 250.0)
        assert dist.pdf(0.0) == 0.0
        assert dist.pdf(-3.0) == 0.0
        assert dist.cdf(0.0) == 0.0

    @pytest.mark.parametrize(
        "mu,lam,beta",
        [(5.0, 250.0, 0.02), (20.0, 4000.0, 0.02), (10.0, 1000.0, 0.5)],
    )
    def test_expected_discount_vs_quadrature(self, mu, lam, beta):
        dist = InverseGaussian(mu, lam)
        ref, _ = integrate.quad(
            lambda t: math.exp(-beta * t) * dist.pdf(t), 0, np.inf, limit=200
        )
        assert dist.expected_discount(beta) == pytest.approx(ref, abs=1e-6)

    def test_expected_discount_frozen_case(self):
        # Quadrature oracle for mu=5, lam=250, beta=0.02.
        assert InverseGaussian(5.0, 250.0).expected_discount(0.02) == pytest.approx(
            0.904927725768, abs=1e-9
        )

    def test_sample_mean_lln(self, rng):
        dist = InverseGaussian(5.0, 250.0)
        n = 100_000
        draws = dist.time(rng.random(n), rng.random(n), *dist.params)
        se = math.sqrt(dist.mu**3 / dist.lam / n)
        assert abs(draws.mean() - 5.0) < 3 * se
        assert np.all(draws > 0)

    @pytest.mark.parametrize("mu,lam", [(5.0, 250.0), (10.0, 1000.0)])
    def test_sample_ks(self, rng, mu, lam):
        dist = InverseGaussian(mu, lam)
        draws = np.sort(dist.time(rng.random(100_000), rng.random(100_000), *dist.params))
        grid = dist.cdf(draws)
        n = len(draws)
        ks = max(
            np.max(np.arange(1, n + 1) / n - grid),
            np.max(grid - np.arange(n) / n),
        )
        assert ks < 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            InverseGaussian(-1.0, 10.0)
        with pytest.raises(ValueError):
            InverseGaussian(5.0, 0.0)

    @given(
        mu=st.floats(0.5, 50.0),
        lam=st.floats(1.0, 5000.0),
        beta1=st.floats(0.0, 1.0),
        beta2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_discount_monotone_in_beta(self, mu, lam, beta1, beta2):
        lo, hi = sorted((beta1, beta2))
        dist = InverseGaussian(mu, lam)
        assert dist.expected_discount(hi) <= dist.expected_discount(lo) + 1e-15
        assert 0.0 < dist.expected_discount(hi) <= 1.0


class TestDeterministicAtom:
    def test_pdf_is_unit_mass(self):
        atom = DeterministicAtom(30.0)
        assert atom.pdf(30.0) == 1.0
        assert atom.pdf(29.999999) == 0.0
        assert atom.cdf(29.0) == 0.0
        assert atom.cdf(30.0) == 1.0
        assert atom.cdf(31.0) == 1.0

    def test_sample_exact(self, rng):
        atom = DeterministicAtom(12.0)
        assert atom.time(rng.random(), rng.random(), *atom.params) == 12.0
        assert np.all(atom.time(rng.random(100), rng.random(100), *atom.params) == 12.0)

    def test_reset_discount(self):
        # The long reset delay makes one episode worth ~1e-4 of the previous.
        atom = DeterministicAtom(455.0)
        assert atom.expected_discount(0.02) == pytest.approx(1.1166580849011478e-4, rel=1e-12)
        assert atom.expected_discount(0.02) == pytest.approx(1.0e-4, abs=2e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            DeterministicAtom(0.0)
        with pytest.raises(ValueError):
            DeterministicAtom(-5.0)


class TestTruncatedGaussian:
    def setup_method(self):
        self.dist = TruncatedGaussian(10.0, 1.5)
        self.ref = stats.truncnorm(-10.0 / 1.5, np.inf, loc=10.0, scale=1.5)

    def test_pdf_matches_reference(self):
        taus = np.linspace(0.5, 20.0, 40)
        np.testing.assert_allclose(self.dist.pdf(taus), self.ref.pdf(taus), rtol=1e-10)

    def test_cdf_matches_reference(self):
        taus = np.linspace(0.5, 20.0, 40)
        np.testing.assert_allclose(
            self.dist.cdf(taus), self.ref.cdf(taus), rtol=1e-9, atol=1e-14
        )

    def test_pdf_normalizes(self):
        total, _ = integrate.quad(self.dist.pdf, 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_zero_for_nonpositive(self):
        assert self.dist.pdf(0.0) == 0.0
        assert self.dist.pdf(-1.0) == 0.0

    @pytest.mark.parametrize("beta,expected", [(0.01, 0.9049392179703557),
                                               (0.5, 0.008926329474965229)])
    def test_expected_discount_vs_quadrature(self, beta, expected):
        # Frozen quadrature values over the scipy.stats reference density.
        assert self.dist.expected_discount(beta) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.01, 0.5, 2.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("mu", [10.0, 2.0, 0.5, -1.0, -3.0])
    def test_closed_form_discount_vs_quadrature(self, mu, sigma, beta):
        # Negative means put most of the Gaussian's mass below the truncation.
        ref = stats.truncnorm(-mu / sigma, np.inf, loc=mu, scale=sigma)
        peak = max(mu, 0.0)
        truth, _ = integrate.quad(lambda t: math.exp(-beta * t) * ref.pdf(t),
                                  0.0, peak + 40.0 * sigma, points=[peak],
                                  epsabs=0.0, epsrel=1e-12, limit=200)
        assert TruncatedGaussian(mu, sigma).expected_discount(beta) == pytest.approx(
            truth, rel=1e-9)

    @pytest.mark.parametrize("mu,sigma", [(10.0, 1.5), (-3.0, 0.5)])
    def test_zero_rate_discount_is_one(self, mu, sigma):
        assert TruncatedGaussian(mu, sigma).expected_discount(0.0) == 1.0

    def test_mean(self):
        assert self.dist.mean() == pytest.approx(self.ref.mean(), rel=1e-9)

    def test_sample_ks(self, rng):
        draws = np.sort(self.dist.time(rng.random(100_000), rng.random(100_000), *self.dist.params))
        grid = self.dist.cdf(draws)
        n = len(draws)
        ks = max(
            np.max(np.arange(1, n + 1) / n - grid),
            np.max(grid - np.arange(n) / n),
        )
        assert ks < 0.01
        assert np.all(draws > 0)

    @pytest.mark.parametrize("mu", [-8.0, -3.0, 0.0, 10.0])
    def test_cdf_matches_reference_at_any_truncation(self, mu):
        # Very negative means leave little mass above 0; the cdf must not lose
        # it to cancellation (scipy's truncnorm works in the tail).
        dist = TruncatedGaussian(mu, 1.0)
        ref = stats.truncnorm(-mu, np.inf, loc=mu, scale=1.0)
        taus = np.array([0.001, 0.01, 0.1, 0.5, 1.0, 3.0]) + max(mu, 0.0)
        np.testing.assert_allclose(dist.cdf(taus), ref.cdf(taus), rtol=1e-9, atol=1e-15)

    def test_law_without_mass_above_zero_is_rejected(self):
        TruncatedGaussian(-37.0, 1.0)
        with pytest.raises(ValueError, match="no mass"):
            TruncatedGaussian(-40.0, 1.0)

    def test_heavily_truncated_sampler(self, rng):
        # Mean below zero: draws stay positive and match the reference mean.
        dist = TruncatedGaussian(-1.0, 1.0)
        draws = dist.time(rng.random(10_000), rng.random(10_000), *dist.params)
        assert np.all(draws > 0)
        ref = stats.truncnorm(1.0, np.inf, loc=-1.0, scale=1.0)
        assert abs(draws.mean() - ref.mean()) < 3 * ref.std() / math.sqrt(10_000)


MAP_LAWS = [
    InverseGaussian(5.0, 250.0),  # lam = 10 mu**2, as in the bus model
    InverseGaussian(5.0, 5.0),  # lam = mu: heavy right tail
    TruncatedGaussian(10.0, 1.5),  # mu / sigma = 6.7, as in the maintenance model
    TruncatedGaussian(0.0, 1.0),
    TruncatedGaussian(-8.0, 1.0),  # acceptance of a rejection sampler: ~6e-16
]
EXTREME_LAWS = MAP_LAWS + [
    InverseGaussian(1e-3, 1e-3), InverseGaussian(45.0, 20250.0), TruncatedGaussian(40.0, 1.0),
    TruncatedGaussian(-37.0, 1.0), DeterministicAtom(12.0),
]


class TestTimeMaps:
    """A law's ``time`` maps two uniforms to a draw from the law."""

    @pytest.mark.parametrize("dist", MAP_LAWS, ids=repr)
    def test_samples_follow_the_cdf(self, dist, rng):
        draws = dist.time(rng.random(20_000), rng.random(20_000), *dist.params)
        assert stats.kstest(draws, dist.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("dist", EXTREME_LAWS, ids=repr)
    def test_finite_positive_time_at_every_generator_value(self, dist):
        # Generator.random returns multiples of 2**-53 in [0, 1): check its ends.
        u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        u1, u2 = (g.ravel() for g in np.meshgrid(u, u))
        tau = dist.time(u1, u2, *dist.params)
        assert np.all(np.isfinite(tau)) and np.all(tau > 0)
        assert np.all(dist.pdf(tau) > 0)  # the filter can condition on every draw

    @pytest.mark.parametrize("dist", MAP_LAWS, ids=repr)
    def test_sample_is_the_map_on_two_blocks(self, dist):
        # The transition kernel draws tau by the law of (s, a, s') on the
        # kernel's uniform columns 1 and 2, beside the other laws of (s, a).
        model = make_random_model(np.random.default_rng(3))
        model = dataclasses.replace(model, sojourn={
            key: dist if key[2] == 1 else law for key, law in model.sojourn.items()})
        u = np.random.default_rng(3).random((50, 4))
        s2, tau, _ = model.draw_transitions(np.zeros(50, int), np.zeros(50, int), u)
        assert len(set(s2.tolist())) > 1
        for j in set(s2.tolist()):
            law, rows = model.sojourn[(0, 0, j)], s2 == j
            np.testing.assert_array_equal(tau[rows],
                                          law.time(u[rows, 1], u[rows, 2], *law.params))


TINY = np.finfo(float).tiny


def assert_within(got, ref, tol):
    err = np.abs(got - ref)
    worst = np.argmax(err - tol)
    assert np.all(err <= tol), f"|{got[worst]!r} - {ref[worst]!r}| > {tol[worst]!r}"


class TestGaussianFunctions:
    """Phi, log Phi and the two normal quantiles against scipy.special."""

    @pytest.mark.parametrize("ours,oracle", [(ndtr, special.ndtr),
                                             (log_ndtr, special.log_ndtr)])
    def test_cdf_and_its_log(self, ours, oracle):
        x = np.concatenate([np.linspace(-38.0, 38.0, 76_001), [-1.0, -20.0, 0.0]])
        ref = oracle(x)
        # x**2 is their condition number in x (the argument x / sqrt(2) rounds);
        # below the smallest normal float only absolute error is defined.
        assert_within(ours(x), ref, 1e-14 * (1.0 + x * x) * np.abs(ref) + TINY)

    def test_quantile(self):
        p = np.concatenate([np.logspace(-300, -1, 30_000), np.linspace(0.1, 0.9, 8_001),
                            1.0 - np.logspace(-1, -16, 15_000)])
        ref = special.ndtri(p)
        # Near p = 1/2 the quantile is near 0, where only absolute error means anything.
        assert_within(ndtri(p), ref, 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_quantile_of_exp(self):
        y = np.concatenate([
            -np.logspace(np.log10(800.0), -320.0, 40_000),  # down to y -> 0-
            np.log(0.5) + np.arange(-8, 8) * 2.0**-53,  # either side of log 1/2
            -25.0 + np.arange(-8, 8) * 2.0**-48,  # AS241 switches to its r > 5 branch
        ])
        ref = special.ndtri_exp(y)
        assert_within(ndtri_exp(y), ref, 1e-14 * np.maximum(1.0, np.abs(ref)))

    @given(x=st.floats(-38.4, 37.5))
    @settings(max_examples=200, deadline=None)
    def test_quantile_of_exp_inverts_log_cdf(self, x):
        # Above x = 37.5, log Phi(x) is a subnormal float and loses precision.
        assert abs(ndtri_exp(log_ndtr(x)) - x) <= 1e-14 * max(1.0, abs(x))

    @pytest.mark.parametrize("dist", [
        InverseGaussian(5.0, 250.0), InverseGaussian(1e-3, 1e-3), TruncatedGaussian(10.0, 1.5),
        TruncatedGaussian(-37.51, 1.0), TruncatedGaussian(38.0, 1.0), TruncatedGaussian(-7.0, 0.5),
    ], ids=repr)
    def test_time_maps_at_the_generator_ends(self, dist):
        # The maps as written on scipy.special, at u1 = 0, 2**-53 and 1 - 2**-53.
        u1, u2 = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]), np.full(4, 0.5)
        tau = dist.time(u1, u2, *dist.params)
        if isinstance(dist, InverseGaussian):
            mu, lam = dist.params
            mnu = -mu * special.ndtri(0.5 * (1.0 - u1))
            x = 4.0 * lam * mu * mu / (mnu + np.sqrt(4.0 * mu * lam + mnu * mnu)) ** 2
            np.testing.assert_allclose(tau, np.where(u2 <= mu / (mu + x), x, mu * mu / x),
                                       rtol=1e-13)
        else:
            mu, sigma, _ = dist.params
            q = special.ndtri_exp(np.log1p(-np.maximum(u1, 2.0**-53))
                                  + special.log_ndtr(mu / sigma))
            ref = np.maximum(mu - sigma * q, TINY)
            assert_within(tau, ref, 1e-14 * sigma * np.maximum(1.0, np.abs(q)))
        assert np.all(np.isfinite(tau)) and np.all(tau > 0)

    def test_law_is_rejected_once_its_mass_underflows(self):
        # Phi(-37.51) = 3.2e-308 is still a normal float; below 2.2e-308 (mu /
        # sigma < -37.52) libm's erfc runs down through the subnormals, losing digits.
        assert TruncatedGaussian(-37.51, 1.0)._mass >= TINY
        for mu in (-37.53, -38.4):
            with pytest.raises(ValueError, match="no mass"):
                TruncatedGaussian(mu, 1.0)

    def test_mass_is_not_a_field(self):
        a, b = TruncatedGaussian(10.0, 1.5), TruncatedGaussian(10.0, 1.5)
        assert a._mass == pytest.approx(special.ndtr(10.0 / 1.5), rel=1e-15)
        assert a == b and hash(a) == hash(b) and "_mass" not in repr(a)


def test_row_search_never_draws_a_zero_probability_index():
    cumulative = np.cumsum([[0.0, 0.5, 0.0, 0.5], [0.25, 0.25, 0.5, 0.0]], axis=1)
    u = np.array([0.0, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53])
    np.testing.assert_array_equal(draw_rows(cumulative[0], u), [1, 1, 3, 3])
    np.testing.assert_array_equal(draw_rows(cumulative[[1, 1, 1, 1]], u), [0, 1, 2, 2])


def test_row_search_above_a_short_total_draws_the_last_positive_index():
    # Rows may sum to 1 - 1e-10 and pass validation; a uniform above that total
    # must not land on the trailing zero.
    cumulative = np.cumsum([[0.25, 0.70, 0.0499999999, 0.0], [0.5, 0.0, 0.4999999999, 0.0]],
                           axis=1)
    u = np.array([0.5, 1.0 - 2.0**-40])
    np.testing.assert_array_equal(draw_rows(cumulative, u), [1, 2])
    np.testing.assert_array_equal(draw_rows(cumulative[0], u), [1, 2])
    np.testing.assert_array_equal(draw_rows(cumulative[1], u), [2, 2])


class TestMixedDensity:
    def test_atom_passthrough(self):
        atom = DeterministicAtom(30.0)
        assert mixed_density(atom, 30.0, atom_mask(30.0, {30.0})) == 1.0
        assert mixed_density(atom, 12.0, atom_mask(12.0, {30.0, 12.0})) == 0.0

    def test_continuous_zeroed_at_atoms(self):
        dist = InverseGaussian(5.0, 250.0)
        assert dist.pdf(5.0) > 0.5
        assert mixed_density(dist, 5.0, atom_mask(5.0, {5.0})) == 0.0
        assert mixed_density(dist, 5.0, atom_mask(5.0, {30.0})) == dist.pdf(5.0)

    def test_vectorized(self):
        dist = InverseGaussian(5.0, 250.0)
        taus = np.array([4.0, 5.0, 6.0])
        out = mixed_density(dist, taus, atom_mask(taus, {5.0}))
        assert out[1] == 0.0
        assert out[0] == dist.pdf(4.0) and out[2] == dist.pdf(6.0)


class TestBetaDensity:
    @pytest.mark.parametrize(
        "phi,eta,o,expected",
        [(2.0, 18.0, 0.1, 5.703596141285967), (18.0, 6.0, 0.8, 4.3643987672080256)],
    )
    def test_pdf_matches_reference(self, phi, eta, o, expected):
        # Frozen from scipy.stats.beta.
        assert BetaDensity(phi, eta).pdf(o) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("phi,eta", [(2, 18), (6, 18), (18, 18), (18, 6)])
    def test_pdf_normalizes(self, phi, eta):
        dist = BetaDensity(phi, eta)
        total, _ = integrate.quad(dist.pdf, 1e-12, 1 - 1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        dist = BetaDensity(2.0, 18.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                dist.pdf(bad)
        with pytest.raises(ValueError):
            BetaDensity(0.0, 1.0)


def test_package_import_leaves_out_quadrature():
    # Every sojourn law's expected discount is in closed form, and the normal
    # cdf and quantiles come from the standard library: the package loads no
    # scipy module, on import or when building, sampling and evaluating laws.
    src = str(Path(posmdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import posmdp
        from posmdp.distributions import DeterministicAtom, InverseGaussian, TruncatedGaussian
        from posmdp.model import build_builtin
        for name in ("maintenance", "bus"):
            build_builtin(name)
        rng = np.random.default_rng(0)
        for law in (InverseGaussian(5.0, 250.0), DeterministicAtom(12.0),
                    TruncatedGaussian(10.0, 1.5)):
            law.cdf(law.time(rng.random(), rng.random(), *law.params))
            law.expected_discount(0.02)
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
    """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_every_exported_name_resolves():
    modules = [posmdp] + [importlib.import_module(f"posmdp.{info.name}")
                          for info in pkgutil.iter_modules(posmdp.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
