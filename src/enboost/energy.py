"""Harvesting-powered device model: supercapacitor charge dynamics, power
traces (CSV replay or synthetic), the per-learner energy cost model, and the
live device state that the request loop advances and draws from."""
from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, TraceError


@dataclass(frozen=True)
class Capacitor:
    """The storage part; `voltage` is its charge when a run starts."""
    capacitance: float   # farads
    v_max: float         # regulated charging ceiling, volts
    v_cutoff: float      # device browns out below this, volts
    voltage: float

    @property
    def energy(self) -> float:
        return 0.5 * self.capacitance * self.voltage ** 2

    # the fields are frozen, so the derived energies are computed once
    @cached_property
    def max_energy(self) -> float:
        return 0.5 * self.capacitance * self.v_max ** 2

    @cached_property
    def cutoff_energy(self) -> float:
        return 0.5 * self.capacitance * self.v_cutoff ** 2

    @cached_property
    def max_usable_energy(self) -> float:
        return self.max_energy - self.cutoff_energy


@dataclass(frozen=True)
class PowerTrace:
    times: np.ndarray     # seconds, strictly increasing
    power: np.ndarray     # watts, >= 0
    source: str = "synthetic"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "power", p)
        if t.shape != p.shape or t.ndim != 1 or t.size == 0:
            raise TraceError("trace needs matching 1-d time and power arrays")
        if not (np.isfinite(t).all() and np.isfinite(p).all()):
            raise TraceError("trace times and power must be finite")
        if np.any(np.diff(t) <= 0):
            raise TraceError("trace timestamps must be strictly increasing")
        if np.any(p < 0):
            raise TraceError("harvested power must be >= 0")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def changes(self) -> tuple[list, list]:
        """(times, power) as Python lists for `Device`'s stepper: the first
        sample and each sample whose power differs from the one before it.
        The fields are frozen, so the lists are built once per trace."""
        p = self.power
        keep = np.append(0, np.flatnonzero(p[1:] != p[:-1]) + 1)
        return self.times[keep].tolist(), p[keep].tolist()


def load_trace(path) -> PowerTrace:
    """CSV replay; two schemas sniffed by header:
    timestamp_s,voltage_V,current_A  or  timestamp_s,power_W."""
    path = Path(path)
    times, power = [], []
    # an undecodable byte fails the header match or its row's float()
    with open(path, newline="", errors="replace") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise TraceError(f"{path}: empty trace")
        header = [h.strip() for h in header]
        if header == ["timestamp_s", "voltage_V", "current_A"]:
            vi_schema = True
        elif header == ["timestamp_s", "power_W"]:
            vi_schema = False
        else:
            raise TraceError(f"{path}: unrecognized header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if vi_schema:
                    t, v, i = (float(x) for x in row)
                    p = v * i
                else:
                    t, p = (float(x) for x in row)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: malformed row: {exc}") from exc
            times.append(t)
            power.append(p)
    if not times:
        raise TraceError(f"{path}: no samples")
    try:
        return PowerTrace(times=np.asarray(times), power=np.asarray(power),
                          source=f"file:{path}")
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from exc


def synth_trace(seed, profile, duration, sample_interval, period, high_power,
                burst_rate, constant_power=None) -> PowerTrace:
    """Deterministic synthetic traces, from the keys of
    `energy.trace.synthetic` as `config.validate_config` checks them.

    profile "day-night": square wave, high_power for the first half of each
    period and 0 for the second half. "bursty": Poisson-ish random bursts.
    "constant": fixed power (constant_power).
    """
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, duration, sample_interval)
    if profile == "day-night":
        phase = np.mod(t, period)
        p = np.where(phase < period / 2.0, high_power, 0.0)
    elif profile == "bursty":
        on = rng.random(t.size) < burst_rate
        p = np.where(on, high_power * rng.uniform(0.5, 1.5, size=t.size), 0.0)
    else:   # "constant"
        p = np.full(t.size, float(constant_power))
    return PowerTrace(times=t, power=p, source=f"synthetic:{profile}:{seed}")


@dataclass(frozen=True)
class CostModel:
    energy_per_mac: float               # joules
    per_inference_overhead: float       # joules per learner execution
    sleep_power: float                  # watts
    fc_retrain_energy_fraction: float   # FC-backward cost / forward cost


def inference_cost(learner_macs: int, cost_model: CostModel) -> float:
    return learner_macs * cost_model.energy_per_mac + cost_model.per_inference_overhead


@dataclass(frozen=True)
class RequestPattern:
    period: float          # seconds between inference requests
    horizon: float         # total simulated seconds


# ---------------------------------------------------------------------------
# single-owner device state used by the simulation drivers


@dataclass
class Device:
    """Live state of one run: the stored charge `energy` in joules, starting
    at the capacitor's initial charge, the harvest/load ledger, and `p_harv`,
    the harvest power in force at `t`, which holds from a sample until the
    next. Only `advance` moves time, and only forward, so a cursor `_idx`
    walks the trace's power changes: it counts the changes at or before `t`,
    and the first change also holds before the trace starts."""
    cap: Capacitor
    trace: PowerTrace
    cost_model: CostModel
    t: float = 0.0
    harvested: float = 0.0     # absorbed energy (post-clamp), joules
    consumed: float = 0.0      # served load energy, joules
    energy: float = field(init=False)
    p_harv: float = field(init=False)   # watts

    def __post_init__(self):
        self.energy = self.cap.energy
        self._times, self._power = self.trace.changes
        self._idx = bisect_right(self._times, self.t) or 1
        self.p_harv = self._power[self._idx - 1]

    @property
    def usable_energy(self) -> float:
        """Energy stored above the cutoff voltage; what the device can spend."""
        usable = self.energy - self.cap.cutoff_energy
        return usable if usable > 0.0 else 0.0   # max(0.0, usable)

    @property
    def voltage(self) -> float:
        return math.sqrt(2.0 * self.energy / self.cap.capacitance)

    def advance(self, until: float):
        """Integrate harvest minus the cost model's sleep power up to time
        `until`, one step per power change: a segment ends at the next
        change, or at `until`. Each segment adds (P_harv - P_sleep)*dt to the
        store, clamped to [0, full]. In exact arithmetic that equals one step
        per trace sample, since the store moves linearly between changes and
        both clamps absorb; the rounding differs, by at most 1e-12 in any
        Q-value."""
        load_power = self.cost_model.sleep_power
        times, power, full = self._times, self._power, self.cap.max_energy
        n, i = len(times), self._idx
        t, energy, p_harv = self.t, self.energy, self.p_harv
        harvested, consumed = self.harvested, self.consumed
        stop = until - 1e-12
        while t < stop:
            seg_end = until
            if i < n and times[i] < until:   # the segment ends at a change
                seg_end = times[i]
            dt = seg_end - t
            before = energy
            # min(max(e, 0.0), full) and min(load, available) without the
            # builtin calls: the same comparisons pick the same operands
            energy = before + (p_harv - load_power) * dt
            if energy < 0.0:
                energy = 0.0
            elif energy > full:
                energy = full
            # attribute the clamped delta: absorbed harvest vs served load
            served_load = load_power * dt
            available = before + p_harv * dt
            if available < served_load:
                served_load = available
            harvested += energy - before + served_load
            consumed += served_load
            t = seg_end
            if i < n and times[i] == t:   # the change at t comes into force
                p_harv = power[i]
                i += 1
        self.t, self.energy, self.p_harv = t, energy, p_harv
        self.harvested, self.consumed = harvested, consumed
        self._idx = i

    def draw(self, joules: float) -> bool:
        """Instantaneous usable-energy spend; False if the store cannot cover
        it (nothing is deducted on failure)."""
        if joules < 0:
            raise ConfigError("draw must be >= 0")
        if self.usable_energy < joules:
            return False
        self.energy -= joules
        self.consumed += joules
        return True
