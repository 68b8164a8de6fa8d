"""Phenomenological single-FeFET model.

A write pulse switches the fraction of ferroelectric domains whose coercive
voltage it exceeds; the switched fraction maps affinely onto the threshold
voltage.  Programming is erase-then-program: the stored state is a pure
function of the last pulse, so no history is tracked.  The drain current is
an exponential subthreshold characteristic with a hard on-current clamp and
a linear drain-voltage saturation factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (InvalidParameterError, InvalidPulseError, OutOfRangeError,
                     require_finite)

DEFAULT_PULSE_WIDTH = 100e-9  # s, accepted but not modeled (amplitude-only map)
VTH_SOLVE_TOLERANCE = 1e-3    # V, contract of pulse_for_vth


@dataclass(frozen=True)
class WritePulse:
    """Gate write pulse.

    Positive amplitudes (within the programming range) switch domains toward
    the low-vth state; the erase amplitude restores the fully unswitched
    high-vth state.
    """

    amplitude: float            # V
    width: float = DEFAULT_PULSE_WIDTH  # s, must be > 0


@dataclass(frozen=True)
class FeFetState:
    """Nonvolatile state of one FeFET."""

    vth: float                    # V
    polarization_fraction: float  # 0 = erased, 1 = fully switched


@dataclass(frozen=True)
class DeviceParams:
    """Calibration constants of the FeFET model, all in SI units.

    The coercive-voltage distribution is Gaussian(coercive_mu, coercive_sigma);
    the default 2-4 V programming window then spans ~1%-99% domain switching.
    i_threshold is the drain current that defines "turned on" and equals the
    average per-cell match-line discharge current used for sense timing.
    """

    vth_low: float = 0.1              # V, fully programmed threshold
    vth_high: float = 1.1             # V, fully erased threshold
    coercive_mu: float = 3.0          # V
    coercive_sigma: float = 0.4       # V
    subthreshold_slope: float = 0.08  # V/decade
    i_on: float = 1e-6                # A, on-current clamp
    i_off: float = 1e-12              # A, leakage floor
    i_threshold: float = 25e-9        # A, "turned on" criterion
    v_dsat: float = 0.1               # V, drain saturation knee
    v_prog_min: float = 2.0           # V, programming range lower edge
    v_prog_max: float = 4.0           # V, programming range upper edge
    v_erase: float = -4.0             # V, erase amplitude

    def __post_init__(self):
        require_finite(self)
        if not self.vth_low < self.vth_high:
            raise InvalidParameterError("vth_low must be below vth_high")
        if self.coercive_sigma <= 0:
            raise InvalidParameterError("coercive_sigma must be positive")
        if not self.i_off < self.i_threshold < self.i_on:
            raise InvalidParameterError(
                "currents must satisfy i_off < i_threshold < i_on")
        if self.subthreshold_slope <= 0 or self.v_dsat <= 0:
            raise InvalidParameterError(
                "subthreshold_slope and v_dsat must be positive")
        if not self.v_prog_min < self.v_prog_max:
            raise InvalidParameterError("empty programming range")
        if self.v_erase >= 0:
            raise InvalidParameterError("erase amplitude must be negative")

    @property
    def vth_span(self) -> float:
        return self.vth_high - self.vth_low


def _check_pulse(params: DeviceParams, pulse: WritePulse) -> None:
    if pulse.width <= 0:
        raise InvalidPulseError(f"pulse width must be positive, got {pulse.width}")
    a = pulse.amplitude
    if abs(a - params.v_erase) <= 1e-9:
        return
    if not params.v_prog_min <= a <= params.v_prog_max:
        raise InvalidPulseError(
            f"amplitude {a} V outside programming range "
            f"[{params.v_prog_min}, {params.v_prog_max}] V "
            f"and not the erase amplitude {params.v_erase} V")


def polarization_after_pulse(params: DeviceParams, pulse: WritePulse) -> float:
    """Fraction of domains switched by a single erase-then-program pulse.

    The pulse samples the Gaussian coercive-voltage distribution, so the
    switched fraction is the normal CDF of the amplitude; the erase pulse
    returns the fully unswitched state.
    """
    _check_pulse(params, pulse)
    if pulse.amplitude < 0:
        return 0.0
    z = (pulse.amplitude - params.coercive_mu) / params.coercive_sigma
    return NormalDist().cdf(z)


def vth_from_polarization(params: DeviceParams, fraction: float) -> float:
    return params.vth_high - fraction * params.vth_span


def polarization_for_vth(params: DeviceParams, vth: float) -> float:
    return (params.vth_high - vth) / params.vth_span


def state_for_vth(params: DeviceParams, vth: float) -> FeFetState:
    """State holding the given threshold, without going through a pulse."""
    if not params.vth_low <= vth <= params.vth_high:
        raise OutOfRangeError(
            f"vth {vth} V outside programmable range "
            f"[{params.vth_low}, {params.vth_high}] V")
    return FeFetState(vth=vth, polarization_fraction=polarization_for_vth(params, vth))


def vth_from_pulse(params: DeviceParams, pulse: WritePulse) -> float:
    """Threshold voltage after the pulse; monotone nonincreasing in amplitude."""
    return vth_from_polarization(params, polarization_after_pulse(params, pulse))


def state_from_pulse(params: DeviceParams, pulse: WritePulse) -> FeFetState:
    fraction = polarization_after_pulse(params, pulse)
    return FeFetState(vth=vth_from_polarization(params, fraction),
                      polarization_fraction=fraction)


def pulse_for_vth(params: DeviceParams, target_vth: float,
                  width: float = DEFAULT_PULSE_WIDTH) -> WritePulse:
    """Pulse that programs the device to target_vth within 1 mV.

    The amplitude is the inverse normal CDF of the target's switched fraction,
    clipped to the programming range; the erased threshold itself is reached
    with the erase pulse.  Targets inside [vth_low, vth_high] but beyond what
    the amplitude range can reach within the 1 mV tolerance raise an
    out-of-range error.
    """
    if not params.vth_low <= target_vth <= params.vth_high:
        raise OutOfRangeError(
            f"target vth {target_vth} V outside [{params.vth_low}, {params.vth_high}] V")
    if abs(target_vth - params.vth_high) <= VTH_SOLVE_TOLERANCE:
        return WritePulse(params.v_erase, width)
    fraction = polarization_for_vth(params, target_vth)  # in (0, 1] here
    amplitude = (params.v_prog_max if fraction >= 1.0 else params.coercive_mu
                 + params.coercive_sigma * NormalDist().inv_cdf(fraction))
    pulse = WritePulse(min(max(amplitude, params.v_prog_min), params.v_prog_max), width)
    if abs(vth_from_pulse(params, pulse) - target_vth) > VTH_SOLVE_TOLERANCE:
        raise OutOfRangeError(
            f"target vth {target_vth} V not reachable within 1 mV by amplitudes "
            f"in [{params.v_prog_min}, {params.v_prog_max}] V")
    return pulse


def saturated_current(params: DeviceParams, v_gs, vth):
    """Drain current at full drain drive (v_ds >= v_dsat); array friendly."""
    exponent = (np.asarray(v_gs, dtype=float) - vth) / params.subthreshold_slope
    return np.minimum(params.i_off + params.i_threshold * 10.0 ** exponent,
                      params.i_on)


def vds_factor(params: DeviceParams, v_ds):
    """Linear drain-voltage saturation factor, clipped to [0, 1]."""
    return np.clip(np.asarray(v_ds, dtype=float) / params.v_dsat, 0.0, 1.0)


def drain_current(params: DeviceParams, v_gs, v_ds, vth):
    """Drain current: exponential subthreshold, clamped at i_on, scaled by v_ds.

    Continuous and monotone nondecreasing in both v_gs and v_ds; bounded by
    [~i_off, i_on].  Accepts scalars or numpy arrays.
    """
    out = saturated_current(params, v_gs, vth) * vds_factor(params, v_ds)
    if np.ndim(out) == 0:
        return float(out)
    return out


def apply_variation(params: DeviceParams, vth, sigma_vth: float, seed):
    """Add device-to-device threshold spread, clamped to the programmable range.

    vth may be a scalar or array; the draw is deterministic for a given seed.
    """
    if sigma_vth < 0:
        raise InvalidParameterError(f"sigma_vth must be >= 0, got {sigma_vth}")
    rng = np.random.default_rng(seed)
    noisy = np.asarray(vth, dtype=float) + rng.normal(0.0, sigma_vth, np.shape(vth))
    noisy = np.clip(noisy, params.vth_low, params.vth_high)
    if np.ndim(vth) == 0:
        return float(noisy)
    return noisy


def resolvable_levels(params: DeviceParams, sigma_vth: float,
                      level_count: int = 8, samples_per_level: int = 2000,
                      min_accuracy: float = 0.99, seed: int = 0) -> int:
    """Largest number of equally spaced vth levels readable despite variation.

    For each candidate count m (from level_count down), programs m levels
    spanning the vth range, draws noisy samples, and classifies each sample to
    the nearest level; m is resolvable when every level classifies correctly
    with at least min_accuracy.  Returns the largest resolvable m (>= 1).
    """
    if level_count < 1:
        raise InvalidParameterError("level_count must be >= 1")
    for m in range(level_count, 1, -1):
        centers = np.linspace(params.vth_low, params.vth_high, m)
        spacing = params.vth_span / (m - 1)
        targets = np.repeat(centers, samples_per_level)
        noisy = apply_variation(params, targets, sigma_vth, seed + m)
        idx = np.clip(np.rint((noisy - params.vth_low) / spacing), 0, m - 1)
        correct = idx.reshape(m, samples_per_level) == np.arange(m)[:, None]
        if correct.mean(axis=1).min() >= min_accuracy:
            return m
    return 1
