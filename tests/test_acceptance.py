"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
The network under test is the standard ten-sensor layout (signal variance 1,
receiver noise 0.3, path-loss exponent 2) sampled once from seed 73 — the same
frozen network the packaged figure experiments use.
"""

import time

import numpy as np
import pytest

from mimofusion import harness
from mimofusion.cli import main
from mimofusion.ed_gains import EdAllocationProblem, closed_form_high_snr, closed_form_low_snr, solve_qclp
from mimofusion.energy_detector import (
    deflection_asymptotic,
    deflection_exact,
    ed_threshold_for_pfa,
    eta_weights,
    weighted_chi2_tail,
)
from mimofusion.harness import (
    CSV_COLUMNS,
    DETECTORS,
    ExperimentConfig,
    TrialStream,
    run_experiment,
)
from mimofusion.lmmse import lmmse_mse_bound, mse_closed_form
from mimofusion.np_detector import NpTestContext, pd_closed_form
from mimofusion.np_gains import np_pd_bound, snr_floor_power, waterfill
from mimofusion.scenario import complex_normal, derive_rng, sample_channel, sample_scenario

from channels import dense_steering, explicit_channel, formed_blocks
from oracles import quadratic_form_variance, simulate_statistics, waterfill_kkt_residual

PFA_TARGET = 0.05
SCENARIO_SEED = 73


@pytest.fixture(scope="module")
def scenario():
    return sample_scenario(10, derive_rng(SCENARIO_SEED))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_np_calibration(scenario):
    started = time.perf_counter()
    m, p, trials = 50, 10.0, 100_000
    channel = sample_channel(scenario, m, derive_rng(SCENARIO_SEED, 1))
    gains = waterfill(scenario, m, p).gains
    ctx = NpTestContext.build(gains, channel, m, scenario, target_pfa=PFA_TARGET)
    t0, t1 = simulate_statistics("np", gains, channel, m, scenario, trials, 1001)
    pfa_emp = float(np.mean(t0 > ctx.threshold))
    pd_emp = float(np.mean(t1 > ctx.threshold))
    pd_theory = pd_closed_form(ctx.snr, scenario.signal_var, PFA_TARGET)
    elapsed = time.perf_counter() - started
    ok = (
        abs(pfa_emp - PFA_TARGET) <= 0.01
        and abs(pd_emp - pd_theory) <= 0.01
        and elapsed <= 60.0
    )
    report(
        "criterion 1",
        ok,
        f"pfa={pfa_emp:.4f} (target 0.05±0.01), pd={pd_emp:.4f} vs theory "
        f"{pd_theory:.4f} (±0.01), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_constant_pd_on_inverse_m_schedule(scenario):
    antennas = (32, 64, 128, 256)
    sweep = tuple((snr_floor_power(scenario, m), m) for m in antennas)
    config = ExperimentConfig(
        "accept2", scenario, sweep, 1000, 30, PFA_TARGET, 424242, ("np",), ("waterfill",)
    )
    rows = run_experiment(config).rows
    pds = [row.pd_emp for row in rows]
    spread = max(pds) - min(pds)
    lower = np_pd_bound(scenario, "low_power", PFA_TARGET)
    ok = spread <= 0.02 and all(pd > lower for pd in pds)
    report(
        "criterion 2",
        ok,
        f"pd across M={antennas}: {np.round(pds, 4)}, spread={spread:.4f} (<=0.02), "
        f"low-power bound {lower:.4f} exceeded at every point",
    )


def test_criterion_3_high_power_saturation(scenario):
    config = ExperimentConfig(
        "accept3", scenario, ((400.0, 50),), 1000, 30, PFA_TARGET, 434343,
        ("np", "np_single"), ("waterfill", "single_antenna_optimal"),
    )
    rows = run_experiment(config).rows
    upper = np_pd_bound(scenario, "high_power", PFA_TARGET)
    gaps = {row.detector: abs(upper - row.pd_emp) for row in rows}
    ok = all(gap <= 0.05 for gap in gaps.values())
    report(
        "criterion 3",
        ok,
        f"high-power bound {upper:.4f}; |bound - pd|: multi={gaps['np']:.4f}, "
        f"single={gaps['np_single']:.4f} (<=0.05)",
    )


def test_criterion_4_waterfill_optimality():
    worst_gap = -np.inf
    worst_kkt = 0.0
    for k in range(50):
        rng = derive_rng(808, k)
        sc = sample_scenario(3, rng)
        p = float(rng.uniform(0.5, 20.0))
        m = int(rng.integers(8, 200))
        sol = waterfill(sc, m, p)
        worst_kkt = max(worst_kkt, waterfill_kkt_residual(sol, sc, m))
        step = 1e-3 * p
        axis = np.arange(0.0, p + step / 2, step)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        keep = x1 + x2 <= p + 1e-12
        x1, x2 = x1[keep], x2[keep]
        grid = np.stack([x1, x2, p - x1 - x2], axis=1)
        d_alpha = sc.distances**sc.path_loss_exp
        num = m * grid
        den = sc.fc_noise_var * d_alpha + sc.meas_noise_vars * num
        worst_gap = max(worst_gap, float(np.max((num / den).sum(axis=1))) - sol.achieved_snr)
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-8
    report(
        "criterion 4",
        ok,
        f"50 instances: worst grid-minus-waterfill objective gap {worst_gap:.2e} "
        f"(<=1e-6), worst KKT residual {worst_kkt:.2e} (<=1e-8)",
    )


def test_criterion_5_lmmse_identity_and_floor(scenario):
    m = 50
    floor = lmmse_mse_bound(scenario, "high_power")
    details = []
    ok = True
    for p in (0.1, 10.0, 400.0):
        gains = waterfill(scenario, m, p).gains
        err_total = 0.0
        theory_total = 0.0
        n_channels, trials_per = 10, 10_000
        for c in range(n_channels):
            explicit = explicit_channel(scenario, m, derive_rng(SCENARIO_SEED, 5, c))
            ctx = NpTestContext.build(gains, explicit.r, m, scenario)
            theory_total += mse_closed_form(ctx.snr, scenario.signal_var)
            # reduced draws formed into z1 = Q^H y1 for a thin QR H = QR,
            # w^H y1 = (Q^H w)^H z1
            w = explicit.q.conj().T @ dense_steering(explicit, gains, scenario)
            stream = TrialStream(scenario, m, 505, (c,))
            for start in range(0, trials_per, 4096):
                stop = min(start + 4096, trials_per)
                theta, xi, _ = stream.draw(stop - start)
                _, z1 = formed_blocks(ctx, theta, xi)
                est = (w.conj() @ z1) / (1.0 / scenario.signal_var + ctx.snr)
                err_total += float(np.sum(np.abs(theta - est) ** 2))
        mse_emp = err_total / (n_channels * trials_per)
        mse_theory = theory_total / n_channels
        rel = abs(mse_emp / mse_theory - 1.0)
        ok = ok and rel <= 0.03
        details.append(f"P={p}: emp={mse_emp:.5f} theory={mse_theory:.5f} rel={rel:.3f}")
        if p == 400.0:
            floor_rel = abs(mse_emp / floor - 1.0)
            ok = ok and floor_rel <= 0.05
            details.append(f"P=400 floor {floor:.5f} rel gap {floor_rel:.3f} (<=0.05)")
    report("criterion 5", ok, "; ".join(details))


def test_criterion_6_constant_deflection_scaling(scenario):
    p_vec = derive_rng(606).uniform(0.5, 3.0, scenario.n_sensors)
    m_big = 10_000
    d1 = deflection_asymptotic(p_vec / np.sqrt(m_big), scenario, m_big)
    d4 = deflection_asymptotic(p_vec / np.sqrt(4 * m_big), scenario, 4 * m_big)
    drift = abs(d4 / d1 - 1.0)

    antennas = (64, 144, 256)
    sweep = tuple((15.0 / np.sqrt(m), m) for m in antennas)
    # 900 channel draws per M hold the spread's sampling sd near 0.0015, so the
    # 0.03 bound judges the law rather than the particular draws
    config = ExperimentConfig(
        "accept6", scenario, sweep, 1000, 900, PFA_TARGET, 464646, ("ed",), ("qclp",)
    )
    rows = run_experiment(config).rows
    pds = [row.pd_emp for row in rows]
    spread = max(pds) - min(pds)
    ok = drift <= 0.02 and spread <= 0.03
    report(
        "criterion 6",
        ok,
        f"deflection drift M=1e4 vs 4e4: {drift:.4f} (<=0.02); energy-detector pd "
        f"across M={antennas}: {np.round(pds, 4)}, spread={spread:.4f} (<=0.03)",
    )


def test_criterion_7_ed_threshold_calibration():
    details = []
    ok = True
    m, p = 1024, 10.0
    for n in (1, 3, 10):
        sc = sample_scenario(n, derive_rng(SCENARIO_SEED))
        gains = waterfill(sc, m, p).gains
        eta = eta_weights(gains, sc)
        assert np.unique(eta).size == n  # distinct weights
        thr = ed_threshold_for_pfa(eta, sc, m, PFA_TARGET)
        assert not thr.mc_fallback
        n_channels, trials_per = 50, 2000
        false_alarms = 0
        for c in range(n_channels):
            channel = sample_channel(sc, m, derive_rng(707, n, c))
            t0, _ = simulate_statistics("ed", gains, channel, m, sc, trials_per, 708, (n, c))
            false_alarms += int(np.count_nonzero(t0 > thr.gamma_hat))
        pfa_emp = false_alarms / (n_channels * trials_per)
        ok = ok and abs(pfa_emp - PFA_TARGET) <= 0.01
        details.append(f"N={n}: pfa={pfa_emp:.4f}")

    # closed-form tail against a direct weighted-chi-square simulation
    sc = sample_scenario(10, derive_rng(SCENARIO_SEED))
    eta = eta_weights(waterfill(sc, m, p).gains, sc)
    weights = eta + sc.fc_noise_var / m
    offset = (m - 10) / m * sc.fc_noise_var
    samples = weights @ derive_rng(709).standard_exponential((10, 1_000_000))
    worst = 0.0
    for gamma_excess in np.quantile(samples, [0.5, 0.9, 0.95, 0.99]):
        formula = weighted_chi2_tail(eta, sc, m, offset + float(gamma_excess))
        empirical = float(np.mean(samples > gamma_excess))
        worst = max(worst, abs(formula - empirical))
    ok = ok and worst <= 0.005
    details.append(f"tail formula vs 1e6-sample simulation: max dev {worst:.4f} (<=0.005)")
    report("criterion 7", ok, "; ".join(details) + " (target 0.05±0.01)")


def test_criterion_8_qclp_against_closed_forms(scenario):
    m = 50
    high = solve_qclp(EdAllocationProblem.from_scenario(scenario, m, 400.0))
    high_gap = float(np.max(np.abs(high.x - closed_form_high_snr(scenario, 400.0).magnitudes_sq)))
    low = solve_qclp(EdAllocationProblem.from_scenario(scenario, m, 0.1))
    d_low = deflection_asymptotic(low.x, scenario, m)
    d_hot = deflection_asymptotic(closed_form_low_snr(scenario, 0.1).magnitudes_sq, scenario, m)
    low_rel = abs(d_low - d_hot) / d_low

    beaten = 0
    for k in range(100):
        rng = derive_rng(818, k)
        n = int(rng.integers(2, 12))
        sc = sample_scenario(n, rng)
        p = float(rng.uniform(0.05, 500.0))
        mm = int(rng.integers(10, 1000))
        sol = solve_qclp(EdAllocationProblem.from_scenario(sc, mm, p))
        uniform = deflection_asymptotic(np.full(n, p / n), sc, mm)
        if sol.deflection < uniform * (1 - 1e-12):
            beaten += 1
    ok = high_gap <= 0.02 * 400.0 and low_rel <= 0.02 and beaten == 0
    report(
        "criterion 8",
        ok,
        f"P=400 max entrywise gap to closed form {high_gap:.3f} (<=8.0); P=0.1 "
        f"one-hot deflection rel gap {low_rel:.4f} (<=0.02); uniform beat the "
        f"solver on {beaten}/100 instances (must be 0)",
    )


def test_criterion_9_quadratic_form_variance_oracle():
    m, draws = 8, 1_000_000
    worst = 0.0
    for k in range(10):
        rng = derive_rng(909, k)
        raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = (raw + raw.conj().T) / 2
        target = quadratic_form_variance(a)
        chunk = 200_000
        mean_acc = 0.0
        sq_acc = 0.0
        for start in range(0, draws, chunk):
            z = complex_normal(rng, 1.0, (chunk, m))
            forms = np.einsum("ti,ij,tj->t", z.conj(), a, z).real
            mean_acc += forms.sum()
            sq_acc += np.square(forms).sum()
        mean = mean_acc / draws
        variance = sq_acc / draws - mean**2
        worst = max(worst, abs(variance / target - 1.0))
    ok = worst <= 0.02
    report(
        "criterion 9",
        ok,
        f"10 random Hermitian matrices at M=8: worst |sample var / trace form - 1| "
        f"= {worst:.4f} (<=0.02 at 1e6 draws)",
    )


def test_criterion_10_chunk_size_and_replay_determinism(scenario, monkeypatch, tmp_path):
    config = ExperimentConfig(
        "accept10", scenario, ((4.0, 16), (8.0, 16), (4.0, 1)), 200, 3, PFA_TARGET, 101010,
        DETECTORS, ("waterfill", "equal", "single_antenna_optimal"),
    )
    mse_col = CSV_COLUMNS.index("mse_emp")
    tables = {}
    # scenario blocks of one scenario and of all three, at every chunk size
    for chunk in (2048, 64, 7):
        for block_trials in (1, 3 * chunk):
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            monkeypatch.setattr(harness, "_BLOCK_TRIALS", block_trials)
            csv_text = run_experiment(config).to_csv()
            tables[chunk, block_trials] = [line.split(",") for line in csv_text.splitlines()]
    base = tables[2048, 1]

    def others(row):  # every cell, with mse_emp reduced to whether it is blank
        return row[:mse_col] + [not row[mse_col]] + row[mse_col + 1:]

    cells_ok = all(
        len(table) == len(base) and all(others(row) == others(ref) for row, ref in zip(table, base))
        for table in tables.values()
    )
    mse_gap = max(
        abs(float(row[mse_col]) / float(ref[mse_col]) - 1.0)
        for table in tables.values()
        for row, ref in zip(table[1:], base[1:])
        if ref[mse_col]
    )
    monkeypatch.undo()

    first, second = tmp_path / "first", tmp_path / "second"
    args = ["--trials", "200", "--scenarios", "3"]
    ran = main(["run", "--experiment", "fig3", *args, "--output-dir", str(first)]) == 0
    replayed = main([
        "run", "--replay", str(first / "fig3.manifest.json"), "--output-dir", str(second),
    ]) == 0
    replay_ok = ran and replayed and (
        (first / "fig3.csv").read_bytes() == (second / "fig3.csv").read_bytes()
    )
    ok = cells_ok and mse_gap <= 1e-12 and replay_ok
    report(
        "criterion 10",
        ok,
        f"chunk sizes 2048/64/7 and scenario blocks 1/3 on {len(base) - 1} rows: every "
        f"cell but mse_emp byte-identical: {cells_ok}, mse_emp within {mse_gap:.1e} "
        f"relative (<=1e-12); "
        f"run then --replay gives byte-identical CSVs: {replay_ok}",
    )


# Laws at massive M: closed forms averaged over channel draws, M = 64 ... 2^20.
MASSIVE_M = tuple(4**j for j in range(3, 11))
LAW_CHANNELS = 300


def test_criterion_11_np_pd_flat_to_massive_m(scenario):
    pds = []
    for m in MASSIVE_M:
        gains = waterfill(scenario, m, snr_floor_power(scenario, m)).gains
        channels = (
            sample_channel(scenario, m, derive_rng(1111, m, c)) for c in range(LAW_CHANNELS)
        )
        snrs = [NpTestContext.build(gains, ch, m, scenario).snr for ch in channels]
        pds.append(np.mean([pd_closed_form(g, scenario.signal_var, PFA_TARGET) for g in snrs]))
    spread = max(pds) - min(pds)
    lower = np_pd_bound(scenario, "low_power", PFA_TARGET)
    ok = spread <= 0.01 and min(pds) > lower
    report(
        "criterion 11",
        ok,
        f"waterfill pd_theory on the 1/M schedule, M=64..2^20: {np.round(pds, 4)}, "
        f"spread={spread:.4f} (<=0.01), low-power bound {lower:.4f} exceeded at every point",
    )


def test_criterion_12_ed_deflection_laws_to_massive_m(scenario):
    """qclp deflection: converges on P = 15/sqrt(M), falls as 1/M on P = 120/M."""
    details = []
    ok = True
    for label, power, slope_limit in (("15/sqrt(M)", lambda m: 15.0 / np.sqrt(m), 0.0),
                                      ("120/M", lambda m: 120.0 / m, -1.0)):
        deflections = []
        for m in MASSIVE_M:
            sol = solve_qclp(EdAllocationProblem.from_scenario(scenario, m, power(m)))
            channels = (
                sample_channel(scenario, m, derive_rng(1212, m, c)) for c in range(LAW_CHANNELS)
            )
            deflections.append(
                np.mean([deflection_exact(NpTestContext.build(sol.gains, ch, m, scenario))
                         for ch in channels])
            )
        limit = deflection_asymptotic(sol.x, scenario, MASSIVE_M[-1])
        # log-log slope in M over the last factor of four
        slope = np.log(deflections[-1] / deflections[-2]) / np.log(4.0)
        rel = abs(deflections[-1] / limit - 1.0)
        ok = ok and abs(slope - slope_limit) <= 0.01 and rel <= 0.01
        details.append(
            f"P={label}: deflection {deflections[0]:.4g} -> {deflections[-1]:.4g}, slope "
            f"{slope:+.4f} (want {slope_limit:+.0f}±0.01), vs large-M form rel {rel:.4f} (<=0.01)"
        )
    report("criterion 12", ok, "; ".join(details))
