"""Supercapacitor dynamics, power traces, the energy cost model, and the
scheduler-state bins of device readings."""
import numpy as np
import pytest

from conftest import (SearchsortedDevice, capacitor, constant_trace, cost_model,
                      power_at)
from enboost import config
from enboost.energy import (Capacitor, Device, PowerTrace, inference_cost, load_trace,
                            synth_trace)
from enboost.errors import ConfigError, TraceError
from enboost.qsched import (ENERGY_LEVELS, POWER_LEVELS, StateTracker,
                            power_terciles)


# ---------------------------------------------------------------------------
# capacitor


def test_stored_energy_half_c_v_squared():
    cap = Capacitor(capacitance=0.47, v_max=4.2, v_cutoff=1.7, voltage=3.6)
    assert abs(cap.energy - 3.0456) < 1e-12


def test_usable_energy_above_cutoff():
    dev = make_device(voltage=3.6)
    assert abs(dev.usable_energy - 2.36645) < 1e-12
    assert dev.energy >= dev.cap.cutoff_energy


def test_usable_energy_floors_at_zero_below_cutoff():
    dev = make_device(voltage=1.0)
    assert dev.usable_energy == 0.0
    assert dev.energy < dev.cap.cutoff_energy


def test_with_energy_round_trip():
    dev = make_device(voltage=2.5)
    assert abs(dev.voltage - 2.5) < 1e-12


def test_with_energy_clamps():
    dev = make_device(voltage=2.5, power=1.0)
    dev.advance(100.0)
    assert abs(dev.voltage - dev.cap.v_max) < 1e-12
    dev.cost_model = cost_model(sleep_power=10.0)
    dev.advance(200.0)
    assert dev.voltage == 0.0


# ---------------------------------------------------------------------------
# one integration step: a `Device.advance` over a single trace segment


def one_segment_device(voltage, power, sleep_power, t=0.0):
    trace = PowerTrace(times=[0.0], power=[power])
    return Device(cap=capacitor(0.47, voltage=voltage), trace=trace,
                  cost_model=cost_model(sleep_power=sleep_power), t=t)


def test_step_balanced_power_is_identity():
    dev = one_segment_device(voltage=3.0, power=0.01, sleep_power=0.01)
    dev.advance(50.0)
    assert abs(dev.energy - dev.cap.energy) < 1e-12


def test_step_net_harvest_adds_energy():
    dev = one_segment_device(voltage=3.0, power=0.02, sleep_power=0.0)
    dev.advance(10.0)
    assert abs(dev.energy - (dev.cap.energy + 0.2)) < 1e-12


def test_step_clamps_at_full_and_empty():
    dev = one_segment_device(voltage=4.2, power=1.0, sleep_power=0.0)
    dev.advance(1e6)
    assert abs(dev.energy - dev.cap.max_energy) < 1e-12
    dev = one_segment_device(voltage=2.0, power=0.0, sleep_power=1.0)
    dev.advance(1e6)
    assert dev.energy == 0.0


def test_advance_to_a_time_not_after_t_changes_nothing():
    dev = one_segment_device(voltage=3.0, power=0.02, sleep_power=1.0, t=5.0)
    before = (dev.t, dev.energy, dev.harvested, dev.consumed)
    for until in (5.0, 3.0, -1.0):
        dev.advance(until)
        assert (dev.t, dev.energy, dev.harvested, dev.consumed) == before


# ---------------------------------------------------------------------------
# traces


def test_load_trace_volt_ampere_schema(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("timestamp_s,voltage_V,current_A\n0.0,2.0,0.001\n1.0,1.5,0.002\n")
    trace = load_trace(p)
    assert np.allclose(trace.power, [0.002, 0.003])
    assert power_at(trace, 0.5) == 0.002


def test_load_trace_power_schema_with_efficiency(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("timestamp_s,power_W\n0.0,0.01\n2.0,0.02\n")
    cfg = config.validate_config({"energy": {"trace": {"csv": str(p)},
                                             "harvester_efficiency": 0.5}})
    trace = config.make_trace(cfg)
    assert np.allclose(trace.power, [0.005, 0.01])


def test_load_trace_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(TraceError):
        load_trace(p)
    p.write_text("volts,amps\n")
    with pytest.raises(TraceError, match="unrecognized header"):
        load_trace(p)
    p.write_text("timestamp_s,power_W\n0.0,0.01\n0.0,0.02\n")
    with pytest.raises(TraceError, match="strictly increasing"):
        load_trace(p)
    p.write_text("timestamp_s,power_W\n0.0,0.01\n1.0,oops\n")
    with pytest.raises(TraceError, match=":3:"):
        load_trace(p)
    p.write_text("timestamp_s,power_W\n0.0,0.01\n1.0,nan\n")
    with pytest.raises(TraceError, match="finite"):
        load_trace(p)


def test_power_trace_rejects_negative_power():
    with pytest.raises(TraceError):
        PowerTrace(times=np.array([0.0, 1.0]), power=np.array([0.1, -0.1]))


def test_power_trace_rejects_non_finite():
    with pytest.raises(TraceError, match="finite"):
        PowerTrace(times=[0.0, np.nan, 2.0], power=[1.0, np.nan, 0.0])
    with pytest.raises(TraceError, match="finite"):
        PowerTrace(times=[0.0, 1.0], power=[1.0, np.inf])


def test_power_at_holds_last_sample():
    trace = PowerTrace(times=np.array([0.0, 10.0]), power=np.array([1.0, 2.0]))
    assert power_at(trace, -5.0) == 1.0
    assert power_at(trace, 9.99) == 1.0
    assert power_at(trace, 10.0) == 2.0
    assert power_at(trace, 1e9) == 2.0


def test_synth_constant_profile():
    trace = constant_trace(10.0, 0.005)
    assert np.all(trace.power == 0.005)


def test_synth_day_night_square_wave():
    trace = synth_trace(0, "day-night", duration=400.0, sample_interval=1.0,
                        period=100.0, high_power=0.02, burst_rate=0.02)
    assert power_at(trace, 10.0) == 0.02
    assert power_at(trace, 60.0) == 0.0
    assert power_at(trace, 110.0) == 0.02
    assert abs(np.mean(trace.power == 0.0) - 0.5) < 0.01


def test_synth_bursty_deterministic():
    def bursty(seed):
        return synth_trace(seed, "bursty", duration=500.0, sample_interval=1.0,
                           period=200.0, high_power=0.02, burst_rate=0.02)
    a, b = bursty(7), bursty(7)
    assert np.array_equal(a.power, b.power)
    assert not np.array_equal(a.power, bursty(8).power)


# ---------------------------------------------------------------------------
# cost model


def test_inference_cost_examples():
    cm = cost_model(energy_per_mac=1e-9, per_inference_overhead=0.0)
    assert inference_cost(0, cm) == 0.0
    assert abs(inference_cost(1_000_000, cm) - 1e-3) < 1e-15
    default = cost_model(energy_per_mac=1e-9, per_inference_overhead=1e-4)
    assert abs(inference_cost(1_000_000, default) - 1.1e-3) < 1e-15
    # equal MACs, equal cost regardless of architecture
    assert inference_cost(78624, default) == inference_cost(78624, default)


# ---------------------------------------------------------------------------
# scheduler-state bins, as `qsched.StateTracker`, the one discretizer, gives
# them


def observed_bins(device, cost=1e-3, thresholds=(1e-3, 1e-2)):
    """(e_now, e_last, p_harv) of a fresh tracker's first observation of
    `device`, whose e_last bins the device's usable fraction."""
    s = StateTracker(device.cap, cost, thresholds, n=1).observe(device, 0) // 2
    s, p_harv = divmod(s, POWER_LEVELS)
    e_now, e_last = divmod(s, ENERGY_LEVELS)
    return e_now, e_last, p_harv


def device_holding(cap, stored=None, power=(0.0,)):
    """A device at t = 0 storing `stored` joules (the capacitor's initial
    charge by default) on a trace with one sample of each `power` per
    second."""
    trace = PowerTrace(times=np.arange(len(power), dtype=np.float64), power=power)
    device = Device(cap=cap, trace=trace, cost_model=cost_model())
    if stored is not None:
        device.energy = stored
    return device


def test_discretize_energy_bins():
    cap = capacitor(0.47, v_max=4.2, v_cutoff=1.7)
    cost = 1e-3
    for usable, level in ((cap.max_usable_energy, 3), (0.5 * cost, 0),
                          (0.3 * cap.max_usable_energy, 1),
                          (0.6 * cap.max_usable_energy, 2)):
        device = device_holding(cap, cap.cutoff_energy + usable)
        assert observed_bins(device, cost)[0] == level


def test_discretize_energy_fraction_matches_energy():
    cap = capacitor(0.47, v_max=4.2, v_cutoff=1.7)
    cost = 1e-3
    levels = set()
    for frac in (0.0, 0.2, 0.5, 0.8, 1.0):
        stored = cap.cutoff_energy + frac * cap.max_usable_energy
        e_now, e_last, _ = observed_bins(device_holding(cap, stored), cost)
        assert e_last == e_now
        levels.add(e_now)
    assert levels == set(range(ENERGY_LEVELS))


def test_discretize_power_bins():
    th = (0.001, 0.01)
    power = (0.0, 0.001, 0.005, 0.01, 5.0)
    device = device_holding(capacitor(0.47), power=power)
    bins = []
    for t in range(len(power)):
        device.advance(float(t))
        bins.append(observed_bins(device, thresholds=th)[2])
    assert bins == [0, 1, 1, 2, 2]
    with pytest.raises(ConfigError):
        observed_bins(device, thresholds=(0.01, 0.01))


def test_power_terciles_uniform_trace():
    rng = np.random.default_rng(0)
    trace = PowerTrace(times=np.arange(30000, dtype=np.float64),
                       power=rng.uniform(0.0, 0.03, size=30000))
    t1, t2 = power_terciles(trace)
    device = device_holding(capacitor(0.47), power=trace.power)
    bins = []
    for t in trace.times.tolist():
        device.advance(t)
        bins.append(observed_bins(device, thresholds=(t1, t2))[2])
    for level in range(3):
        assert abs(np.mean(np.asarray(bins) == level) - 1.0 / 3.0) < 0.02


def test_power_terciles_zero_heavy_fallback():
    power = np.concatenate([np.zeros(80), np.full(20, 0.02)])
    trace = PowerTrace(times=np.arange(100, dtype=np.float64), power=power)
    t1, t2 = power_terciles(trace)
    assert 0.0 < t1 < t2
    device = device_holding(capacitor(0.47), power=(0.0, 0.02))
    assert observed_bins(device, thresholds=(t1, t2))[2] == 0
    device.advance(1.0)
    assert observed_bins(device, thresholds=(t1, t2))[2] == 2


# ---------------------------------------------------------------------------
# device


def make_device(voltage=3.0, power=0.002):
    return Device(cap=capacitor(0.47, voltage=voltage),
                  trace=constant_trace(1000.0, power), cost_model=cost_model())


def test_device_energy_closure():
    dev = make_device()
    e0 = dev.energy
    dev.advance(100.0)
    assert dev.draw(0.5)
    dev.cost_model = cost_model(sleep_power=0.01)
    dev.advance(400.0)
    assert abs(dev.energy - (e0 + dev.harvested - dev.consumed)) < 1e-9


def test_device_closure_across_clamps():
    # force both clamps: full charge then depletion
    trace = synth_trace(0, "day-night", duration=4000.0, sample_interval=1.0,
                        period=2000.0, high_power=0.05, burst_rate=0.02)
    dev = Device(cap=capacitor(0.47, voltage=4.0), trace=trace,
                 cost_model=cost_model())
    e0 = dev.energy
    dev.advance(1000.0)                    # charges to full, clamp on top
    assert abs(dev.energy - dev.cap.max_energy) < 1e-9
    dev.cost_model = cost_model(sleep_power=0.05)
    dev.advance(4000.0)   # discharges to empty, clamp at 0
    assert dev.energy == 0.0
    assert abs(dev.energy - (e0 + dev.harvested - dev.consumed)) < 1e-9


def test_device_draw_semantics():
    dev = make_device(voltage=3.0, power=0.0)
    usable = dev.usable_energy
    assert not dev.draw(usable + 1e-6)
    assert dev.consumed == 0.0            # failed draw deducts nothing
    assert dev.draw(usable)
    assert dev.usable_energy < 1e-9
    with pytest.raises(ConfigError):
        dev.draw(-1.0)


def test_device_advance_is_time_monotone():
    dev = make_device()
    dev.advance(50.0)
    assert dev.t == 50.0
    dev.advance(10.0)   # no-op: already past
    assert dev.t == 50.0


# trace samples at irregular times; the capacitor fills in a few seconds at
# 0.05 W, so runs hit both clamps
CURSOR_TRACE = PowerTrace(times=[0.0, 1.0, 2.5, 3.0, 7.0, 7.5, 12.0, 20.0],
                          power=[0.01, 0.0, 0.05, 0.003, 0.0, 0.02, 0.05, 0.001])
# ("advance", until, sleep_power) or ("draw", joules): integer, non-integer,
# repeated, past and beyond-the-horizon times, sample times, sleep powers
# other than the default (None)
CURSOR_OPS = [("advance", 2.0, None), ("advance", 2.0, None), ("draw", 0.01),
              ("advance", 2.75, 0.0), ("advance", 2.75 + 1e-13, None),
              ("advance", 1.0, None), ("advance", 7.0, 0.04), ("draw", 1.0),
              ("advance", 7.2, None), ("draw", 0.0), ("advance", 11.999, 0.2),
              ("advance", 12.0, None), ("draw", 0.02), ("advance", 19.5, 0.001),
              ("advance", 25, None), ("advance", 25.5, 0.0), ("advance", 30, 0.01),
              ("advance", 3.0, None)]


# a collapsed run rounds differently from per-sample steps; the ledger may
# drift by this much, fixed before any run
LEDGER_TOLERANCE = 1e-12   # joules


def assert_matches(dev, ref, exact):
    """Time and harvest power equal; the ledger equal bit for bit if
    `exact`, else within LEDGER_TOLERANCE."""
    assert (dev.t, dev.p_harv) == (ref.t, ref.p_harv)
    ledger = (dev.energy, dev.harvested, dev.consumed)
    ref_ledger = (ref.energy, ref.harvested, ref.consumed)
    if exact:
        assert ledger == ref_ledger
    else:
        assert max(abs(a - b) for a, b in zip(ledger, ref_ledger)) <= LEDGER_TOLERANCE


def run_against_reference(trace, ops, t0, exact):
    """Run `ops` on a `Device` and on the searchsorted reference; every draw
    result must match. Returns whether the reference store sat empty after
    some advance and full after another."""
    kwargs = dict(cap=capacitor(0.01, voltage=3.0), trace=trace,
                  cost_model=cost_model(), t=t0)
    dev, ref = Device(**kwargs), SearchsortedDevice(**kwargs)
    assert_matches(dev, ref, exact)
    empty = full = False
    for op, *args in ops:
        if op == "advance":   # both advance at the op's sleep power
            until, sleep_power = args
            dev.cost_model = ref.cost_model = (
                cost_model() if sleep_power is None else cost_model(sleep_power=sleep_power))
            args = [until]
        assert getattr(dev, op)(*args) == getattr(ref, op)(*args)
        assert_matches(dev, ref, exact)
        empty |= ref.energy == 0.0
        full |= ref.energy == ref.cap.max_energy
    return empty and full


def random_ops(rng, start, end):
    """Advances to 40 sorted times in [start, end) under random loads, each
    followed by a random draw."""
    ops = []
    for until in np.sort(rng.uniform(start, end, size=40)).tolist():
        ops.append(("advance", until, rng.choice([None, 0.0, 0.01, 0.1])))
        ops.append(("draw", float(rng.uniform(0.0, 0.03))))
    return ops


@pytest.mark.parametrize("t0", [0.0, 2.7, 7.0, -1.5, 21.0])
@pytest.mark.parametrize("trace", ["irregular", "bursty"])
def test_cursor_matches_searchsorted_stepper(t0, trace):
    rng = np.random.default_rng(int(t0 * 10) % 7)
    if trace == "irregular":
        tr, ops = CURSOR_TRACE, CURSOR_OPS
    else:
        tr = synth_trace(3, "bursty", duration=60.0, sample_interval=1.0,
                         period=200.0, high_power=0.05, burst_rate=0.3)
        ops = random_ops(rng, -5.0, 70.0)
    # no two adjacent irregular samples share a power, so from t0 >= 0 no
    # run collapses and the bits must match; before the trace, the first
    # sample's power holds from t0 on and its run collapses
    run_against_reference(tr, ops, t0, exact=trace == "irregular" and t0 >= 0)


@pytest.mark.parametrize("profile", ["day-night", "bursty", "constant"])
def test_collapsed_runs_match_searchsorted_stepper(profile):
    # from before the trace, across runs of equal power, into both clamps
    trace = synth_trace(5, profile, duration=60.0, sample_interval=1.0, period=20.0,
                        high_power=0.05, burst_rate=0.3, constant_power=0.05)
    ops = random_ops(np.random.default_rng(11), -5.0, 70.0)
    assert run_against_reference(trace, ops, t0=-2.5, exact=False)


def test_changes_keep_the_first_sample_and_each_new_power():
    trace = PowerTrace(times=np.arange(7.0), power=[1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 2.0])
    assert trace.changes == ([0.0, 2.0, 5.0], [1.0, 0.0, 2.0])
    assert PowerTrace(times=[0.5], power=[3.0]).changes == ([0.5], [3.0])
    flat = PowerTrace(times=[1.0, 2.0, 4.0], power=[0.0, 0.0, 0.0])
    assert flat.changes == ([1.0], [0.0])
