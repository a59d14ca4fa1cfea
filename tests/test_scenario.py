import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

from mimofusion.np_detector import NpTestContext
from mimofusion.scenario import (
    GainVector,
    Scenario,
    complex_normal,
    derive_rng,
    sample_channel,
    sample_scenario,
)

from channels import explicit_channel, gram, sample_observation


def make_scenario(d, v, signal_var=1.0, fc_noise_var=0.3, alpha=2.0):
    return Scenario(np.asarray(d, float), np.asarray(v, float), signal_var, fc_noise_var, alpha)


class TestScenarioValidation:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            make_scenario([1.0, -2.0], [0.3, 0.3])
        with pytest.raises(ValueError):
            make_scenario([1.0, 2.0], [0.3, 0.0])
        with pytest.raises(ValueError):
            make_scenario([1.0], [0.3], signal_var=0.0)
        with pytest.raises(ValueError):
            make_scenario([1.0], [0.3], alpha=-1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", [
        "distances", "meas_noise_vars", "signal_var", "fc_noise_var", "alpha",
    ])
    def test_rejects_nonfinite_values(self, field, bad):
        kwargs = dict(d=[1.0, 2.0], v=[0.3, 0.3])
        if field == "distances":
            kwargs["d"] = [1.0, bad]
        elif field == "meas_noise_vars":
            kwargs["v"] = [bad, 0.3]
        else:
            kwargs[field] = bad
        with pytest.raises(ValueError):
            make_scenario(**kwargs)

    @pytest.mark.parametrize("d", [2.0, 0.5])
    def test_rejects_path_gains_that_vanish_or_overflow(self, d):
        # 2**1e6 overflows to inf (gain 0), 0.5**1e6 underflows to 0 (gain inf)
        with pytest.raises(ValueError, match="path gains"):
            make_scenario([3.0, d], [0.3, 0.3], alpha=1e6)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            make_scenario([1.0, 2.0], [0.3])

    def test_fields_are_read_only(self):
        sc = make_scenario([2.0, 3.0], [0.3, 0.4])
        with pytest.raises(ValueError):
            sc.distances[0] = 5.0


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(99, 1, 2, 3).standard_normal(8)
        b = derive_rng(99, 1, 2, 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(99, 1, 2, 3).standard_normal(8)
        b = derive_rng(99, 1, 2, 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(-1)


class TestSampleChannel:
    # G_ii = |column i of H|^2 ~ (1/d_i**alpha) Gamma(M, 1): G_ii / M is the
    # mean entry power of column i, with standard deviation (1/d_i**alpha)/sqrt(M)

    def test_unit_distance_unit_variance(self):
        sc = make_scenario([1.0, 1.0], [0.3, 0.3], alpha=7.0)
        g = gram(sample_channel(sc, 40000, derive_rng(3)))
        assert_allclose(np.diag(g).real / 40000, [1.0, 1.0], atol=0.02)

    def test_zero_exponent_ignores_distance(self):
        sc = make_scenario([2.0, 10.0], [0.3, 0.3], alpha=0.0)
        g = gram(sample_channel(sc, 40000, derive_rng(4)))
        assert_allclose(np.diag(g).real / 40000, [1.0, 1.0], atol=0.02)

    def test_column_power_follows_path_loss(self):
        # d=2, alpha=2: per-entry power 1/4
        sc = make_scenario([2.0], [0.3])
        m = 100_000
        power = gram(sample_channel(sc, m, derive_rng(5)))[0, 0].real / m
        # 3 sigma of the mean: sd of G_00 / M is 0.25 / sqrt(M)
        tol = 3 * 0.25 / np.sqrt(m)
        assert abs(power - 0.25) < tol
        # over draws, G_00 / M has the Gamma(M) variance 0.25^2 / M: 400 draws
        # give the sample variance a relative sd of sqrt(2/399), so allow 4 of it
        draws = np.array([
            gram(sample_channel(sc, m, derive_rng(5, k)))[0, 0].real / m for k in range(400)
        ])
        assert abs(np.mean(draws) - 0.25) < 3 * 0.25 / np.sqrt(m * 400)
        assert abs(np.var(draws, ddof=1) / (0.25**2 / m) - 1.0) < 4 * np.sqrt(2 / 399)

    def test_factor_shape(self):
        sc = make_scenario([2.0, 3.0, 4.0], [0.3, 0.4, 0.5])
        for m, k in ((1, 1), (2, 2), (3, 3), (16, 3)):
            r = sample_channel(sc, m, derive_rng(6, m))
            assert r.shape == (k, 3) and not r.flags.writeable
            assert np.array_equal(r, np.triu(r))
            assert np.all(np.diag(r).real > 0) and np.all(np.diag(r).imag == 0)

    def test_explicit_factor_gram(self):
        sc = make_scenario([2.0, 3.0], [0.3, 0.4])
        explicit = explicit_channel(sc, 16, derive_rng(6))
        r, h = explicit.r, explicit.h
        assert_allclose(gram(r), h.conj().T @ h, rtol=1e-12)
        assert r.shape == (2, 2) and explicit.m == 16

    def test_rejects_inconsistent_factor(self):
        sc = make_scenario([2.0, 3.0], [0.3, 0.4])
        gv = GainVector.equal_power(1.0, 2)
        for r, m in ((np.eye(2), 1), (np.eye(2)[:1], 4), (np.eye(2), 0), (np.ones(2), 2)):
            with pytest.raises(ValueError, match="min"):
                NpTestContext.build(gv, r, m, sc)  # k must be min(M, N), M >= 1

    def test_rejects_zero_antennas(self):
        sc = make_scenario([2.0], [0.3])
        with pytest.raises(ValueError):
            sample_channel(sc, 0, derive_rng(7))


class TestBartlettSampler:
    """The drawn factor against the QR of an explicit H: the same law.

    Two-sample KS tests at a fixed seed on entries of G, on |R| entries (both
    invariant to the phases a QR leaves free) and on the top eigenvalue of G.
    """

    DRAWS = 3000

    @pytest.mark.parametrize("m", [1, 2, 4, 16, 64])
    def test_matches_qr_of_explicit_channel(self, m):
        sc = make_scenario([2.0, 3.0, 4.0, 5.0], [0.3, 0.4, 0.3, 0.4], alpha=1.0)
        n, k = sc.n_sensors, min(m, sc.n_sensors)
        bartlett = [sample_channel(sc, m, derive_rng(50, m, i)) for i in range(self.DRAWS)]
        explicit = [
            explicit_channel(sc, m, derive_rng(51, m, i)).r for i in range(self.DRAWS)
        ]

        def features(channels):
            g = np.array([gram(ch) for ch in channels])
            r = np.abs(np.array(channels))
            out = {"top eig": np.linalg.eigvalsh(g)[:, -1]}
            for i in range(n):
                out[f"G{i}{i}"] = g[:, i, i].real
                for j in range(i + 1, n):
                    out[f"re G{i}{j}"] = g[:, i, j].real
                    out[f"im G{i}{j}"] = g[:, i, j].imag
            for i in range(k):
                for j in range(i, n):
                    out[f"|R{i}{j}|"] = r[:, i, j]
            return out

        ours, theirs = features(bartlett), features(explicit)
        pvalues = {name: ks_2samp(ours[name], theirs[name]).pvalue for name in ours}
        assert min(pvalues.values()) >= 1e-3, pvalues


class TestAsymptoticGram:
    """The large-M limit of G / M is diag(path_gains) = diag(1/d_i**alpha)."""

    def test_unit_distances(self):
        sc = make_scenario([1.0, 1.0, 1.0], [0.3, 0.3, 0.3], alpha=3.0)
        assert_allclose(np.diag(sc.path_gains), np.eye(3))

    def test_zero_exponent(self):
        sc = make_scenario([4.0, 9.0], [0.3, 0.3], alpha=0.0)
        assert_allclose(np.diag(sc.path_gains), np.eye(2))

    def test_direct_evaluation(self):
        sc = make_scenario([2.0, 10.0], [0.3, 0.3], alpha=2.0)
        assert_allclose(np.diag(sc.path_gains), np.diag([0.25, 0.01]))

    def test_normalized_gram_error_shrinks_with_antennas(self):
        sc = sample_scenario(6, derive_rng(11))
        target = np.diag(sc.path_gains)
        medians = []
        for m in (256, 1024, 4096):
            errs = [
                np.linalg.norm(
                    gram(sample_channel(sc, m, derive_rng(12, m, k))) / m - target
                )
                for k in range(20)
            ]
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestGainVector:
    def test_from_gains_power(self):
        gv = GainVector.from_gains(np.array([3.0 + 4.0j, 0.0]))
        assert gv.sum_power == pytest.approx(25.0, rel=1e-12)

    def test_from_magnitudes_sq(self):
        gv = GainVector.from_magnitudes_sq(np.array([4.0, 9.0]))
        assert_allclose(gv.gains, [2.0, 3.0])
        assert gv.sum_power == pytest.approx(13.0)

    def test_equal_power(self):
        gv = GainVector.equal_power(10.0, 4)
        assert_allclose(gv.magnitudes_sq, np.full(4, 2.5))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GainVector.from_gains(np.array([np.inf + 0j]))

    def test_rejects_negative_power_entry(self):
        with pytest.raises(ValueError):
            GainVector.from_magnitudes_sq(np.array([-1.0]))


class TestSampleObservation:
    """The full-vector reference generator of ``channels``, against the model."""

    def test_zero_gains_tiny_noise_gives_zero(self):
        sc = make_scenario([2.0, 3.0], [0.3, 0.4], fc_noise_var=1e-30)
        ch = explicit_channel(sc, 8, derive_rng(21))
        gv = GainVector.from_gains(np.zeros(2, complex))
        for hyp in ("H0", "H1"):
            y = sample_observation(ch, gv, sc, hyp, derive_rng(22))
            assert np.max(np.abs(y)) < 1e-12

    @staticmethod
    def _sample_cov(sc, ch, gv, hyp, trials, seed):
        m = ch.h.shape[0]
        acc = np.zeros((m, m), dtype=complex)
        rng = derive_rng(seed)
        for _ in range(trials):
            y = sample_observation(ch, gv, sc, hyp, rng)
            acc += np.outer(y, y.conj())
        return acc / trials

    def test_h0_covariance_matches_closed_form(self):
        sc = make_scenario([2.0, 3.0], [0.3, 0.45], fc_noise_var=0.2)
        ch = explicit_channel(sc, 4, derive_rng(25))
        gv = GainVector.from_gains(np.array([0.8 + 0.2j, -0.5 + 0.9j]))
        h, a = ch.h, gv.gains
        cw = h @ np.diag(np.abs(a) ** 2 * sc.meas_noise_vars) @ h.conj().T
        cw += sc.fc_noise_var * np.eye(4)
        emp = self._sample_cov(sc, ch, gv, "H0", 60_000, 26)
        assert np.max(np.abs(emp - cw)) < 6 * np.max(np.abs(cw)) / np.sqrt(60_000)

    def test_h1_covariance_matches_closed_form(self):
        sc = make_scenario([2.0, 3.0], [0.3, 0.45], fc_noise_var=0.2)
        ch = explicit_channel(sc, 4, derive_rng(27))
        gv = GainVector.from_gains(np.array([0.8 + 0.2j, -0.5 + 0.9j]))
        h, a = ch.h, gv.gains
        cw = h @ np.diag(np.abs(a) ** 2 * sc.meas_noise_vars) @ h.conj().T
        cw += sc.fc_noise_var * np.eye(4)
        cs = sc.signal_var * np.outer(h @ a, (h @ a).conj())
        emp = self._sample_cov(sc, ch, gv, "H1", 60_000, 28)
        target = cs + cw
        assert np.max(np.abs(emp - target)) < 6 * np.max(np.abs(target)) / np.sqrt(60_000)


class TestSampleScenario:
    def test_ranges_and_defaults(self):
        sc = sample_scenario(200, derive_rng(31))
        assert sc.n_sensors == 200
        assert np.all((sc.distances >= 2.0) & (sc.distances <= 10.0))
        assert np.all((sc.meas_noise_vars >= 0.25) & (sc.meas_noise_vars <= 0.5))
        assert sc.signal_var == 1.0
        assert sc.fc_noise_var == 0.3
        assert sc.path_loss_exp == 2.0


def test_complex_normal_moments():
    rng = derive_rng(41)
    z = complex_normal(rng, 2.0, 50_000)
    assert abs(np.mean(np.abs(z) ** 2) - 2.0) < 0.05
    assert abs(np.var(z.real) - 1.0) < 0.03
    assert abs(np.var(z.imag) - 1.0) < 0.03


def test_complex_normal_in_place_fill_is_circular():
    n, var = 1_000_000, 2.5
    x = complex_normal(derive_rng(42), var, n)
    power = np.abs(x) ** 2
    assert abs(power.mean() - var) <= 5 * power.std() / np.sqrt(n)
    # circularity: the pseudo-variance E x^2 vanishes
    x2 = x**2
    assert abs(x2.mean()) <= 5 * np.sqrt(np.mean(np.abs(x2) ** 2) / n)
    assert abs(np.corrcoef(x.real, x.imag)[0, 1]) <= 5 / np.sqrt(n)
