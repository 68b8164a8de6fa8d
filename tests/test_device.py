import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (DeviceParams, InvalidParameterError, InvalidPulseError,
                   OutOfRangeError, WritePulse, apply_variation, drain_current,
                   polarization_after_pulse, pulse_for_vth, resolvable_levels,
                   state_for_vth, vth_from_pulse)
from fecam.device import VTH_SOLVE_TOLERANCE, saturated_current, vds_factor

BISECTION_STEPS = 60
MC_DRAWS = 20_000  # noisy thresholds per level of the Monte Carlo reference


def norm_cdf(x):
    # independent oracle for the switching fraction
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def mc_level_accuracies(params, sigma, m, seed=0):
    """Monte Carlo reference for resolvable_levels: the fraction of MC_DRAWS
    noisy thresholds per level, drawn by apply_variation, that read as their
    own level among m equally spaced ones."""
    if m == 1:
        return np.ones(1)
    centers = np.linspace(params.vth_low, params.vth_high, m)
    noisy = apply_variation(params, np.repeat(centers, MC_DRAWS), sigma, seed)
    idx = np.clip(np.rint((noisy - params.vth_low) / (params.vth_span / (m - 1))), 0, m - 1)
    return (idx.reshape(m, MC_DRAWS) == np.arange(m)[:, None]).mean(axis=1)


def bisect_pulse_for_vth(params, target):
    """Independent reference for pulse_for_vth: bisection of the monotone
    pulse-to-threshold curve over the programming amplitude range."""
    if not params.vth_low <= target <= params.vth_high:
        raise OutOfRangeError(f"target {target} V outside the threshold range")
    if abs(target - params.vth_high) <= VTH_SOLVE_TOLERANCE:
        return WritePulse(params.v_erase)
    lo, hi = params.v_prog_min, params.v_prog_max
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if vth_from_pulse(params, WritePulse(mid)) > target:
            lo = mid
        else:
            hi = mid
    pulse = WritePulse(0.5 * (lo + hi))
    if abs(vth_from_pulse(params, pulse) - target) > VTH_SOLVE_TOLERANCE:
        raise OutOfRangeError(f"target {target} V not reachable within 1 mV")
    return pulse


def solve_targets(params):
    """Targets over the threshold range, weighted toward the two fringes that
    no programming amplitude reaches within 1 mV, and their exact edges."""
    v_min = vth_from_pulse(params, WritePulse(params.v_prog_max))
    v_max = vth_from_pulse(params, WritePulse(params.v_prog_min))
    tol = VTH_SOLVE_TOLERANCE
    edges = [params.vth_low, params.vth_high, params.vth_high - tol, v_min, v_max,
             v_min - tol, v_max + tol, v_min - 2 * tol, v_max + 2 * tol]
    return st.one_of(st.floats(params.vth_low, params.vth_high),
                     st.floats(params.vth_low, v_min + 2 * tol),
                     st.floats(v_max - 2 * tol, params.vth_high),
                     st.sampled_from(edges))


def amplitude_grid():
    # the characterization sweep: 2 to 4 V in 50 mV steps, 41 points
    return [2.0 + 0.05 * k for k in range(41)]


class TestPolarization:
    def test_erase_gives_zero(self, params):
        assert polarization_after_pulse(params, WritePulse(-4.0)) == 0.0

    def test_coercive_mean_gives_half(self, params):
        phi = polarization_after_pulse(params, WritePulse(params.coercive_mu))
        assert phi == pytest.approx(0.5, abs=1e-12)

    def test_sweep_strictly_increasing_toward_one(self, params):
        phis = [polarization_after_pulse(params, WritePulse(a))
                for a in amplitude_grid()]
        assert all(b > a for a, b in zip(phis, phis[1:]))
        assert phis[-1] >= 0.99
        assert all(0.0 <= p <= 1.0 for p in phis)

    def test_rejects_amplitudes_outside_ranges(self, params):
        for amplitude in (1.9, 4.1, -3.0, 0.0, 5.0):
            with pytest.raises(InvalidPulseError):
                polarization_after_pulse(params, WritePulse(amplitude))


class TestVthFromPulse:
    def test_erase_gives_vth_high(self, params):
        assert vth_from_pulse(params, WritePulse(-4.0)) == params.vth_high

    def test_max_amplitude_lands_near_vth_low(self, params):
        # oracle: direct CDF evaluation at the strongest programming pulse
        phi = norm_cdf((4.0 - params.coercive_mu) / params.coercive_sigma)
        assert phi >= 0.99
        vth = vth_from_pulse(params, WritePulse(4.0))
        expected = params.vth_high - phi * params.vth_span
        assert vth == pytest.approx(expected, abs=1e-12)
        assert abs(vth - params.vth_low) <= 0.01 * params.vth_span

    def test_monotone_nonincreasing_over_grid(self, params):
        vths = [vth_from_pulse(params, WritePulse(a)) for a in amplitude_grid()]
        assert all(b <= a for a, b in zip(vths, vths[1:]))

    def test_full_switching_stays_in_range(self, params):
        # vth_high - 1.0 * span rounded an ulp below vth_low here, so a write
        # of a cell at vth_low was refused as out of range
        edge = DeviceParams(vth_low=-0.009, vth_high=0.895, coercive_sigma=0.05)
        assert vth_from_pulse(edge, WritePulse(4.0)) == edge.vth_low
        # the clamp leaves every in-range threshold as the law gives it
        for p in (params, edge):
            for amplitude in amplitude_grid():
                pulse = WritePulse(amplitude)
                law = p.vth_high - polarization_after_pulse(p, pulse) * p.vth_span
                if p.vth_low <= law <= p.vth_high:
                    assert vth_from_pulse(p, pulse) == law


class TestPulseForVth:
    def test_vth_high_maps_to_erase(self, params):
        pulse = pulse_for_vth(params, params.vth_high)
        assert pulse.amplitude == params.v_erase

    def test_midpoint_maps_to_coercive_mean(self, params):
        mid = 0.5 * (params.vth_low + params.vth_high)
        pulse = pulse_for_vth(params, mid)
        assert pulse.amplitude == pytest.approx(params.coercive_mu, abs=1e-6)

    def test_round_trip_within_tolerance(self, params):
        # oracle: composition identity over the amplitude-reachable window
        v_min = vth_from_pulse(params, WritePulse(params.v_prog_max))
        v_max = vth_from_pulse(params, WritePulse(params.v_prog_min))
        rng = np.random.default_rng(7)
        for target in rng.uniform(v_min, v_max, 100):
            back = vth_from_pulse(params, pulse_for_vth(params, target))
            assert abs(back - target) <= 1e-3

    def test_amplitude_identity_through_composition(self, params):
        # pulse_for_vth inverts vth_from_pulse on the amplitude axis too
        for amplitude in np.linspace(2.05, 3.95, 20):
            target = vth_from_pulse(params, WritePulse(amplitude))
            solved = pulse_for_vth(params, target).amplitude
            assert abs(solved - amplitude) <= 1e-6

    def test_out_of_range_targets_rejected(self, params):
        with pytest.raises(OutOfRangeError):
            pulse_for_vth(params, params.vth_low - 0.05)
        with pytest.raises(OutOfRangeError):
            pulse_for_vth(params, params.vth_high + 0.05)

    def test_unreachable_fringe_rejected(self, params):
        # between the weakest programming pulse and the erased state there is
        # a sliver no valid pulse reaches within 1 mV
        fringe = vth_from_pulse(params, WritePulse(params.v_prog_min)) + 0.003
        assert fringe < params.vth_high - 1e-3
        with pytest.raises(OutOfRangeError):
            pulse_for_vth(params, fringe)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_agrees_with_bisection(self, data, params):
        # same outcome (a pulse or OutOfRangeError) as the reference, the same
        # amplitude, and a threshold within the 1 mV contract
        target = data.draw(solve_targets(params))
        try:
            want = bisect_pulse_for_vth(params, target)
        except OutOfRangeError:
            with pytest.raises(OutOfRangeError):
                pulse_for_vth(params, target)
            return
        got = pulse_for_vth(params, target)
        assert abs(got.amplitude - want.amplitude) <= 1e-9
        assert abs(vth_from_pulse(params, got) - target) <= VTH_SOLVE_TOLERANCE


class TestDrainCurrent:
    def test_threshold_criterion(self, params):
        i = drain_current(params, 0.6, 1.0, 0.6)
        assert i == pytest.approx(params.i_threshold, rel=1e-4)
        i_half = drain_current(params, 0.6, 0.05, 0.6)
        assert i_half == pytest.approx(0.5 * params.i_threshold, rel=1e-4)

    def test_deep_subthreshold_floor(self, params):
        vth = 0.9
        v_gs = vth - 10 * params.subthreshold_slope
        assert drain_current(params, v_gs, 1.0, vth) == pytest.approx(
            params.i_off, rel=1e-6)

    def test_bounded_by_floor_and_clamp(self, params):
        v = np.linspace(0.0, 1.2, 601)
        i = drain_current(params, v, 1.0, 0.6)
        assert (i >= params.i_off * 0.999).all()
        assert (i <= params.i_on * 1.0001).all()

    def test_clamps_a_term_past_the_float_range(self):
        # the clamped exponent gives 1e308 here, which i_threshold 10 A took
        # past the float range with a RuntimeWarning; the inf reads i_on
        huge = DeviceParams(i_on=1e308, i_threshold=10.0, subthreshold_slope=1e-3)
        assert drain_current(huge, 1.2, 1.0, 0.1) == 1e308
        assert drain_current(huge, np.array([1.2, 0.0]), 1.0, 0.1).tolist() == [1e308, 1e-12]

    def test_monotone_in_vgs_and_vds(self, params):
        v = np.linspace(0.0, 1.2, 601)
        i = drain_current(params, v, 1.0, 0.6)
        assert (np.diff(i) >= 0).all()
        vds = np.linspace(0.0, 1.0, 101)
        i2 = drain_current(params, 0.65, vds, 0.6)
        assert (np.diff(i2) >= 0).all()

    def test_continuity_at_seams(self, params):
        eps = 1e-6
        for v in (0.6, 0.6 + eps, 0.7281, 0.1):  # threshold and clamp seams
            step = abs(drain_current(params, v + eps, 1.0, 0.6)
                       - drain_current(params, v, 1.0, 0.6))
            # bounded by the steepest exponential slope times eps
            assert step <= params.i_on * math.log(10) / params.subthreshold_slope * eps * 1.01

    def test_level_family_shifts_rigidly(self, params):
        vths = np.linspace(params.vth_low, params.vth_high, 8)
        v = np.linspace(0.0, 1.2, 121)
        base = drain_current(params, v, 1.0, vths[0])
        for vth in vths[1:]:
            shifted = drain_current(params, v + (vth - vths[0]), 1.0, vth)
            assert np.allclose(shifted, base, rtol=1e-12)

    def test_factorizes_into_saturated_times_vds(self, params):
        v_gs, v_ds, vth = 0.57, 0.03, 0.6
        assert drain_current(params, v_gs, v_ds, vth) == pytest.approx(
            float(saturated_current(params, v_gs, vth))
            * float(vds_factor(params, v_ds)), rel=1e-12)


class TestVariation:
    def test_zero_sigma_is_identity(self, params):
        assert apply_variation(params, 0.62, 0.0, seed=3) == 0.62

    def test_sample_mean_law_of_large_numbers(self, params):
        n, sigma = 100_000, 0.05
        draws = apply_variation(params, np.full(n, 0.6), sigma, seed=11)
        assert abs(draws.mean() - 0.6) <= 3 * sigma / math.sqrt(n)

    def test_clamped_to_programmable_range(self, params):
        draws = apply_variation(params, np.full(1000, params.vth_high), 0.5, seed=5)
        assert draws.max() <= params.vth_high
        assert draws.min() >= params.vth_low

    def test_deterministic_given_seed(self, params):
        a = apply_variation(params, np.full(64, 0.4), 0.03, seed=9)
        b = apply_variation(params, np.full(64, 0.4), 0.03, seed=9)
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self, params):
        with pytest.raises(InvalidParameterError):
            apply_variation(params, 0.5, -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, params, sigma):
        with pytest.raises(InvalidParameterError, match=rf"sigma_vth must be in \[0, inf\), "
                           rf"got {sigma}$"):
            apply_variation(params, 0.5, sigma, seed=0)
        with pytest.raises(InvalidParameterError, match=rf"sigma_vth must be in \[0, inf\), "
                           rf"got {sigma}$"):
            resolvable_levels(params, sigma, level_count=3)

    def test_separability_decreases_with_sigma(self, params):
        sigmas = [0.0, 0.04, 0.07, 0.15, 0.5]
        counts = [resolvable_levels(params, s) for s in sigmas]
        assert counts[0] == 8
        assert all(b < a for a, b in zip(counts, counts[1:]))
        assert counts == [8, 5, 3, 2, 1]

    def test_end_levels_read_by_one_tail(self, params):
        # two levels are both end levels: with h half the span, an inner level
        # would read erf(h / (sigma sqrt 2)) = 0.98, each end level reads 0.99
        sigma = params.vth_span / 2 / 2.3263478740408408  # the 99th percentile of N(0, 1)
        assert math.erf(params.vth_span / 2 / (sigma * math.sqrt(2))) == pytest.approx(0.98)
        assert resolvable_levels(params, sigma, 2, min_accuracy=0.985) == 2
        assert resolvable_levels(params, sigma, 3, min_accuracy=0.985) == 2
        assert resolvable_levels(params, sigma, 2, min_accuracy=0.995) == 1

    def test_edges_of_the_level_count(self, params):
        most = 1 + int(params.vth_span / VTH_SOLVE_TOLERANCE)
        assert resolvable_levels(params, 0.0, most, min_accuracy=1.0) == most
        assert resolvable_levels(params, 0.5, 12, min_accuracy=0.0) == 12
        assert resolvable_levels(params, 1e-300, 12, min_accuracy=1.0) == 12
        with pytest.raises(InvalidParameterError):
            resolvable_levels(params, 0.0, most + 1)

    @given(sigma=st.floats(0.0, 0.6), level_count=st.integers(1, 12),
           min_accuracy=st.floats(0.5, 0.999))
    def test_closed_form_agrees_with_monte_carlo(self, params, sigma, level_count,
                                                 min_accuracy):
        m = resolvable_levels(params, sigma, level_count, min_accuracy)
        assert 1 <= m <= level_count
        slack = 4 * math.sqrt(min_accuracy * (1 - min_accuracy) / MC_DRAWS)
        assert mc_level_accuracies(params, sigma, m).min() >= min_accuracy - slack
        if m < level_count:
            assert mc_level_accuracies(params, sigma, m + 1).min() < min_accuracy + slack


class TestParamValidation:
    def test_bad_current_ordering(self):
        with pytest.raises(InvalidParameterError):
            DeviceParams(i_off=1e-6, i_threshold=1e-7)
        # a negative leakage used to load, and then raised a searched match line
        with pytest.raises(InvalidParameterError):
            DeviceParams(i_off=-1e-9)

    def test_bad_vth_ordering(self):
        with pytest.raises(InvalidParameterError):
            DeviceParams(vth_low=1.0, vth_high=0.5)

    def test_state_for_vth_range(self, params):
        with pytest.raises(OutOfRangeError):
            state_for_vth(params, params.vth_high + 0.2)
        state = state_for_vth(params, 0.6)
        assert state.vth == 0.6
