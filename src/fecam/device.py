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

from .errors import (InvalidParameterError, InvalidPulseError, OutOfRangeError, check_int,
                     check_real, real_array)

VTH_SOLVE_TOLERANCE = 1e-3  # V, contract of pulse_for_vth
MAX_SEED = (1 << 128) - 1   # numpy's SeedSequence pools 128 bits of entropy
_NORMAL = NormalDist()      # the standard normal of every pulse and level law


@dataclass(frozen=True)
class WritePulse:
    """Gate write pulse, set by its amplitude alone.

    Positive amplitudes (within the programming range) switch domains toward
    the low-vth state; the erase amplitude restores the fully unswitched
    high-vth state.
    """

    amplitude: float  # V


@dataclass(frozen=True)
class FeFetState:
    """Nonvolatile state of one FeFET: its threshold."""

    vth: float  # V


@dataclass(frozen=True)
class DeviceParams:
    """Calibration constants of the FeFET model, all in SI units.

    The coercive-voltage distribution is Gaussian(coercive_mu, coercive_sigma);
    the default 2-4 V programming window then spans ~1%-99% domain switching.
    i_threshold is the drain current that defines "turned on".  The auto
    sense time reads a different key, the average per-cell discharge current
    `MatchLineParams.i_discharge_avg` ([matchline] i_discharge_avg); the two
    are equal, 25 nA, only by default.
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
        # each field once; a field bounded by another is checked after it
        check_real(self.vth_low, "vth_low")
        check_real(self.vth_high, "vth_high", self.vth_low, open=True)
        check_real(self.coercive_mu, "coercive_mu")
        for name in ("coercive_sigma", "subthreshold_slope"):
            check_real(getattr(self, name), name, 0, open=True)
        check_real(self.i_off, "i_off", 0)
        check_real(self.i_on, "i_on", self.i_off, open=True)
        check_real(self.i_threshold, "i_threshold", self.i_off, self.i_on, open=True)
        check_real(self.v_dsat, "v_dsat", 0, open=True)
        check_real(self.v_prog_min, "v_prog_min")
        check_real(self.v_prog_max, "v_prog_max", self.v_prog_min, open=True)
        check_real(self.v_erase, "v_erase", hi=0, open=True)

    @property
    def vth_span(self) -> float:
        return self.vth_high - self.vth_low


def _check_pulse(params: DeviceParams, pulse: WritePulse) -> None:
    if not isinstance(pulse, WritePulse):
        raise InvalidParameterError(f"not a WritePulse: {pulse!r}")
    a = pulse.amplitude
    try:
        if abs(a - params.v_erase) <= 1e-9:  # NaN goes on to the check
            return
    except (TypeError, ValueError, OverflowError):  # not one number, or past the float range
        pass
    check_real(a, "amplitude, unless v_erase,", params.v_prog_min, params.v_prog_max,
               InvalidPulseError)


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
    return _NORMAL.cdf(z)


def state_for_vth(params: DeviceParams, vth: float) -> FeFetState:
    """State holding the given threshold, without going through a pulse."""
    return FeFetState(check_real(vth, "vth", params.vth_low, params.vth_high,
                                 OutOfRangeError))


def vth_from_pulse(params: DeviceParams, pulse: WritePulse) -> float:
    """Threshold voltage after the pulse; monotone nonincreasing in amplitude.
    Clamped to [vth_low, vth_high], where full switching can round an ulp
    below vth_low."""
    vth = params.vth_high - polarization_after_pulse(params, pulse) * params.vth_span
    return min(max(vth, params.vth_low), params.vth_high)


def pulse_for_vth(params: DeviceParams, target_vth: float) -> WritePulse:
    """Pulse that programs the device to target_vth within 1 mV.

    The amplitude is the inverse normal CDF of the target's switched fraction,
    clipped to the programming range; the erased threshold itself is reached
    with the erase pulse.  Targets inside [vth_low, vth_high] but beyond what
    the amplitude range can reach within the 1 mV tolerance raise an
    out-of-range error.
    """
    check_real(target_vth, "target vth", params.vth_low, params.vth_high, OutOfRangeError)
    if abs(target_vth - params.vth_high) <= VTH_SOLVE_TOLERANCE:
        return WritePulse(params.v_erase)
    fraction = (params.vth_high - target_vth) / params.vth_span  # in (0, 1] here
    amplitude = (params.v_prog_max if fraction >= 1.0 else params.coercive_mu
                 + params.coercive_sigma * _NORMAL.inv_cdf(fraction))
    pulse = WritePulse(min(max(amplitude, params.v_prog_min), params.v_prog_max))
    if abs(vth_from_pulse(params, pulse) - target_vth) > VTH_SOLVE_TOLERANCE:
        raise OutOfRangeError(
            f"target vth {target_vth} V not reachable within 1 mV by amplitudes "
            f"in [{params.v_prog_min}, {params.v_prog_max}] V")
    return pulse


def saturated_current(params: DeviceParams, v_gs, vth):
    """Drain current at full drain drive (v_ds >= v_dsat); array friendly.

    The exponent is clamped a decade past the on-current before the power,
    so a clamped FeFET reads i_on.  The power, or its product with
    i_threshold, overflows only when that decade past i_on itself passes the
    float range; the inf it gives then reads i_on as well."""
    ceiling = np.log10(params.i_on - params.i_off) - np.log10(params.i_threshold) + 1.0
    overdrive = real_array(v_gs, "gate-source voltages") - real_array(vth, "thresholds")
    exponent = np.minimum(overdrive / params.subthreshold_slope, ceiling)
    with np.errstate(over="ignore"):
        subthreshold = params.i_threshold * 10.0 ** exponent
    return np.minimum(params.i_off + subthreshold, params.i_on)


def vds_factor(params: DeviceParams, v_ds):
    """Linear drain-voltage saturation factor, clipped to [0, 1]."""
    return np.clip(real_array(v_ds, "drain-source voltages") / params.v_dsat, 0.0, 1.0)


def drain_current(params: DeviceParams, v_gs, v_ds, vth):
    """Drain current: exponential subthreshold, clamped at i_on, scaled by v_ds.

    Continuous and monotone nondecreasing in both v_gs and v_ds; bounded by
    [~i_off, i_on].  Accepts scalars or numpy arrays.
    """
    out = saturated_current(params, v_gs, vth) * vds_factor(params, v_ds)
    return float(out) if out.ndim == 0 else out


def apply_variation(params: DeviceParams, vth, sigma_vth: float, seed):
    """Add device-to-device threshold spread, clamped to the programmable range.

    vth may be a scalar or array; the draw is deterministic for a given seed.
    """
    check_real(sigma_vth, "sigma_vth", 0)
    rng = np.random.default_rng(check_int(seed, "seed", 0, MAX_SEED))
    vth = real_array(vth, "vth")
    noisy = np.clip(vth + rng.normal(0.0, sigma_vth, vth.shape), params.vth_low, params.vth_high)
    return float(noisy) if vth.ndim == 0 else noisy


def resolvable_levels(params: DeviceParams, sigma_vth: float,
                      level_count: int = 8, min_accuracy: float = 0.99) -> int:
    """Largest number of equally spaced vth levels readable despite variation.

    m levels span the vth range; a noisy threshold, clipped to the range as
    apply_variation clips it, reads as its nearest level.  With h half the
    level spacing and Phi the normal CDF, an end level reads correctly with
    probability Phi(h / sigma_vth), since the clip keeps its noise on its own
    side, and an inner level with 2 Phi(h / sigma_vth) - 1, which is
    erf(h / (sigma_vth sqrt 2)); sigma_vth = 0 reads 1.  m is resolvable
    when every level reads at least min_accuracy.  Returns the largest
    resolvable m (>= 1) up to level_count, for at most one level per
    VTH_SOLVE_TOLERANCE of the threshold range.

    This is a bound in threshold space only: it classifies the noisy
    thresholds themselves, with no match line, sense time or leakage summed
    over a row, so an array searched at the same spread can resolve fewer.
    """
    most = 1 + int(params.vth_span / VTH_SOLVE_TOLERANCE)
    level_count = check_int(level_count, "level_count", 1, most)
    check_real(sigma_vth, "sigma_vth", 0)
    check_real(min_accuracy, "min_accuracy", 0, 1)
    for m in range(level_count, 1, -1):
        end = _NORMAL.cdf(params.vth_span / (2 * (m - 1)) / sigma_vth) if sigma_vth else 1.0
        if (2 * end - 1 if m > 2 else end) >= min_accuracy:
            return m
    return 1
