import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mimofusion.ed_gains import (
    EdAllocationProblem,
    closed_form_high_snr,
    closed_form_low_snr,
    solve_qclp,
)
from mimofusion.energy_detector import deflection_asymptotic
from mimofusion.scenario import Scenario, derive_rng, sample_scenario

from oracles import b_tilde, certificate_residual


def unit_allocation(problem, x):
    """An allocation scaled onto the unit constraint x^T Bt x = 1, where the
    optimality certificate is read."""
    return x / np.sqrt(x @ b_tilde(problem) @ x)


def grid_search_best(problem, scenario, m, resolution=1e-3):
    """Exhaustive simplex search of the bound objective at the given resolution."""
    p = problem.p
    step = resolution * p
    axis = np.arange(0.0, p + step / 2, step)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    keep = x1 + x2 <= p + 1e-12
    x1, x2 = x1[keep], x2[keep]
    grid = np.stack([x1, x2, p - x1 - x2], axis=1)
    num = (grid @ problem.d_vec) ** 2
    den = np.einsum("ti,i,ti->t", grid, problem.b_diag, grid)
    den = den + scenario.fc_noise_var**2 / m
    return float(np.max(scenario.signal_var**2 * num / den))


class TestProblemConstruction:
    def test_b_tilde_symmetric_positive_definite(self):
        sc = sample_scenario(6, derive_rng(501))
        problem = EdAllocationProblem.from_scenario(sc, 40, 2.0)
        bt = b_tilde(problem)
        assert_allclose(bt, bt.T)
        assert np.all(np.linalg.eigvalsh(bt) > 0)

    def test_modified_variant_inflates_coefficients(self):
        sc = sample_scenario(4, derive_rng(502))
        plain = EdAllocationProblem.from_scenario(sc, 40, 2.0)
        mod = EdAllocationProblem.from_scenario(sc, 40, 2.0, variant="modified_deflection")
        assert np.all(mod.b_diag > plain.b_diag)
        x = solve_qclp(plain).x
        assert deflection_asymptotic(x, sc, 40, "modified_deflection") < deflection_asymptotic(
            x, sc, 40)
        d_alpha = sc.distances**sc.path_loss_exp
        assert_allclose(
            mod.b_diag,
            (sc.meas_noise_vars**2 + sc.meas_noise_vars * sc.signal_var) / d_alpha**2,
        )

    def test_rejects_bad_inputs(self):
        sc = sample_scenario(3, derive_rng(503))
        with pytest.raises(ValueError):
            EdAllocationProblem.from_scenario(sc, 40, 0.0)
        with pytest.raises(ValueError):
            EdAllocationProblem.from_scenario(sc, 0, 1.0)
        with pytest.raises(ValueError):
            EdAllocationProblem.from_scenario(sc, 40, 1.0, variant="bogus")


class TestSolveQclp:
    def test_single_sensor(self):
        sc = Scenario(np.array([4.0]), np.array([0.3]), 1.0, 0.3, 2.0)
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, 50, 3.0))
        assert sol.x[0] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "n, distance, m, p",
        [(1, 100.0, 1, 1e-4), (1, 1000.0, 302, 1.2e-4), (1, 1e4, 1, 1.0), (5, 1000.0, 1, 1e-4)],
    )
    def test_huge_rank_one_coefficient_stays_finite(self, n, distance, m, p):
        # s^2 / (M P^2) times sum 1/b_j is huge here and the sensors are alike;
        # the rank-one solve once cancelled to NaN gains and returned them
        sc = Scenario(np.full(n, distance), np.full(n, 0.25), 1.0, 0.3, 2.0)
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, m, p))
        assert_allclose(sol.x, np.full(n, p / n), rtol=1e-12)
        assert np.isfinite(deflection_asymptotic(sol.x, sc, m))

    def test_identical_sensors_uniform(self):
        sc = Scenario(np.full(5, 3.0), np.full(5, 0.4), 1.0, 0.3, 2.0)
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, 50, 10.0))
        assert_allclose(sol.x, np.full(5, 2.0), rtol=1e-10)

    def test_power_budget_met(self):
        sc = sample_scenario(7, derive_rng(510))
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, 50, 4.2))
        assert sol.x.sum() == pytest.approx(4.2, rel=1e-12)

    def test_matches_simplex_grid_search(self):
        for k in range(6):
            sc = sample_scenario(3, derive_rng(511, k))
            p = float(derive_rng(512, k).uniform(0.1, 100.0))
            problem = EdAllocationProblem.from_scenario(sc, 50, p)
            sol = solve_qclp(problem)
            bound = deflection_asymptotic(sol.x, sc, 50, include_cross_term=False)
            assert bound >= grid_search_best(problem, sc, 50) * (1 - 1e-5)

    def test_kkt_certificate(self):
        for k in range(20):
            rng = derive_rng(513, k)
            sc = sample_scenario(int(rng.integers(2, 10)), rng)
            p = float(rng.uniform(0.05, 300.0))
            m = int(rng.integers(10, 500))
            variant = "deflection" if k % 2 == 0 else "modified_deflection"
            problem = EdAllocationProblem.from_scenario(sc, m, p, variant)
            sol = solve_qclp(problem)
            x_unit = unit_allocation(problem, sol.x)
            assert certificate_residual(problem, x_unit) <= 1e-8
            # d - 2 nu Bt x + mu = 0 with nu = x.d / 2 > 0, mu >= 0 and mu_i x_i = 0
            nu = 0.5 * float(problem.d_vec @ x_unit)
            mu = 2.0 * nu * (b_tilde(problem) @ x_unit) - problem.d_vec
            assert nu > 0
            assert np.all(mu[sol.x == 0] >= 0)
            assert np.all(mu * x_unit <= 1e-12)

    def test_beats_uniform_allocation(self):
        for k in range(20):
            rng = derive_rng(514, k)
            n = int(rng.integers(2, 10))
            sc = sample_scenario(n, rng)
            p = float(rng.uniform(0.05, 300.0))
            m = int(rng.integers(10, 500))
            sol = solve_qclp(EdAllocationProblem.from_scenario(sc, m, p))
            uniform = deflection_asymptotic(np.full(n, p / n), sc, m)
            assert deflection_asymptotic(sol.x, sc, m) >= uniform * (1 - 1e-12)

    def test_permutation_invariance(self):
        sc = sample_scenario(6, derive_rng(515))
        perm = derive_rng(516).permutation(6)
        sc_perm = Scenario(
            sc.distances[perm], sc.meas_noise_vars[perm],
            sc.signal_var, sc.fc_noise_var, sc.path_loss_exp,
        )
        x = solve_qclp(EdAllocationProblem.from_scenario(sc, 50, 5.0)).x
        x_perm = solve_qclp(EdAllocationProblem.from_scenario(sc_perm, 50, 5.0)).x
        assert_allclose(x_perm, x[perm], rtol=1e-9, atol=1e-12)

    def test_resolving_is_stable(self):
        # scale invariance of the ratio objective: re-solving the same problem
        # after the budget rescale changes nothing
        sc = sample_scenario(5, derive_rng(517))
        problem = EdAllocationProblem.from_scenario(sc, 50, 2.0)
        first = solve_qclp(problem)
        second = solve_qclp(problem)
        assert_allclose(second.x, first.x, rtol=1e-14)
        bound = [deflection_asymptotic(sol.x, sc, 50, include_cross_term=False)
                 for sol in (first, second)]
        assert bound[1] == pytest.approx(bound[0], rel=1e-14)
        x_unit = unit_allocation(problem, first.x)
        scaled = 3.0 * x_unit
        ratio_orig = float(x_unit @ problem.d_vec) ** 2 / float(
            x_unit @ (b_tilde(problem) @ x_unit)
        )
        ratio_scaled = float(scaled @ problem.d_vec) ** 2 / float(
            scaled @ (b_tilde(problem) @ scaled)
        )
        assert ratio_scaled == pytest.approx(ratio_orig, rel=1e-12)

    def test_modified_variant_runs_same_solver(self):
        sc = sample_scenario(6, derive_rng(518))
        problem = EdAllocationProblem.from_scenario(sc, 50, 1.0, "modified_deflection")
        sol = solve_qclp(problem)
        assert sol.x.sum() == pytest.approx(1.0, rel=1e-12)
        assert certificate_residual(problem, unit_allocation(problem, sol.x)) <= 1e-8

    def test_bound_objective_dominates_the_deflection(self):
        sc = sample_scenario(5, derive_rng(519))
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, 30, 2.0))
        bound = deflection_asymptotic(sol.x, sc, 30, include_cross_term=False)
        assert bound >= deflection_asymptotic(sol.x, sc, 30) > 0

    def test_huge_signal_variance_keeps_the_allocation(self):
        # the signal variance scales the deflection, not its maximizer, and the
        # deflection itself (~ signal_var^2) passes the float range here
        sc = sample_scenario(6, derive_rng(526))
        huge = Scenario(sc.distances, sc.meas_noise_vars, 1e308, sc.fc_noise_var,
                        sc.path_loss_exp)
        for m, p in ((1, 0.01), (50, 1.0), (4096, 300.0)):
            x = solve_qclp(EdAllocationProblem.from_scenario(sc, m, p)).x
            assert_array_equal(solve_qclp(EdAllocationProblem.from_scenario(huge, m, p)).x, x)


@settings(max_examples=5000, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 100),
    log_m=st.floats(0.0, 5.0),
    log_p=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**31 - 1),
    variant=st.sampled_from(("deflection", "modified_deflection")),
)
def test_active_set_certifies_over_the_domain(n, log_m, log_p, seed, variant):
    sc = sample_scenario(n, derive_rng(seed))
    problem = EdAllocationProblem.from_scenario(sc, round(10.0**log_m), 10.0**log_p, variant)
    sol = solve_qclp(problem)
    assert certificate_residual(problem, unit_allocation(problem, sol.x)) <= 1e-8


class TestClosedForms:
    def test_high_snr_identical_sensors_equal_power(self):
        sc = Scenario(np.full(4, 5.0), np.full(4, 0.3), 1.0, 0.3, 2.0)
        gv = closed_form_high_snr(sc, 8.0)
        assert_allclose(gv.magnitudes_sq, np.full(4, 2.0), rtol=1e-12)

    def test_high_snr_power_normalized(self):
        sc = sample_scenario(9, derive_rng(520))
        gv = closed_form_high_snr(sc, 7.3)
        assert gv.magnitudes_sq.sum() == pytest.approx(7.3, rel=1e-12)

    def test_high_snr_matches_qclp_at_large_budget(self):
        sc = sample_scenario(10, derive_rng(521))
        p = 400.0
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, 50, p))
        gv = closed_form_high_snr(sc, p)
        assert np.max(np.abs(sol.x - gv.magnitudes_sq)) <= 0.02 * p

    def test_low_snr_one_hot_on_closest(self):
        sc = Scenario(np.array([2.0, 5.0, 9.0]), np.array([0.3, 0.3, 0.3]), 1.0, 0.3, 2.0)
        gv = closed_form_low_snr(sc, 4.0)
        assert_allclose(gv.magnitudes_sq, [4.0, 0.0, 0.0])

    def test_low_snr_tie_breaks_to_lowest_index(self):
        sc = Scenario(np.array([3.0, 3.0, 5.0]), np.array([0.3, 0.3, 0.3]), 1.0, 0.3, 2.0)
        gv = closed_form_low_snr(sc, 4.0)
        assert gv.magnitudes_sq[0] == pytest.approx(4.0)
        assert gv.magnitudes_sq[1] == 0.0

    def test_low_snr_matches_qclp_deflection_at_small_budget(self):
        sc = sample_scenario(10, derive_rng(522))
        p = 0.1
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, 50, p))
        one_hot = closed_form_low_snr(sc, p)
        d_sol = deflection_asymptotic(sol.x, sc, 50)
        d_hot = deflection_asymptotic(one_hot.magnitudes_sq, sc, 50)
        assert abs(d_sol - d_hot) <= 0.02 * d_sol
