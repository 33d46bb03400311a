"""Scheduler state encoding, rewards, Q-learning updates, persistence, and
offline training behavior."""
import itertools
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (GeneratorQLearner, PolicyAgent, SchedulerState,
                      SearchsortedDevice, bits, discretize_energy,
                      discretize_power, encode_state, usable_fraction)
from enboost import qsched
from enboost.energy import (Capacitor, CostModel, Device, PowerTrace,
                            RequestPattern, synth_trace)
from enboost.errors import ArtifactError, ConfigError
from enboost.qsched import (ENERGY_LEVELS, POWER_LEVELS, EnvConfig, QHyperParams,
                            QTable, RewardParams, act, inference_cost,
                            load_qtable, make_device, q_update, replay, reward,
                            save_qtable, state_space_size, train_offline)


def st(e_now=2, e_last=2, p_harv=1, l=0):
    return SchedulerState(e_now=e_now, e_last=e_last, p_harv=p_harv, l=l)


def si(e_now=2, e_last=2, p_harv=1, l=0):
    """The state's q-table row at N=2."""
    return encode_state(st(e_now, e_last, p_harv, l), 2)


# ---------------------------------------------------------------------------
# state encoding


def decode_state(index: int, n: int) -> SchedulerState:
    """Inverse of `encode_state`."""
    if not 0 <= index < state_space_size(n):
        raise ConfigError(f"state index {index} out of range")
    index, l = divmod(index, n + 1)
    index, p_harv = divmod(index, POWER_LEVELS)
    e_now, e_last = divmod(index, ENERGY_LEVELS)
    return SchedulerState(e_now=e_now, e_last=e_last, p_harv=p_harv, l=l)


def test_state_space_size():
    assert state_space_size(4) == 4 * 4 * 3 * 5 == 240
    assert state_space_size(2) == 144


def test_zero_state_encodes_to_zero():
    assert encode_state(st(0, 0, 0, 0), n=4) == 0


def test_encode_decode_bijection():
    n = 4
    seen = set()
    for idx in range(state_space_size(n)):
        s = decode_state(idx, n)
        assert encode_state(s, n) == idx
        seen.add(s)
    assert len(seen) == state_space_size(n)


def test_encode_rejects_out_of_range():
    with pytest.raises(ConfigError):
        encode_state(st(e_now=4), n=4)
    with pytest.raises(ConfigError):
        encode_state(st(l=5), n=4)
    with pytest.raises(ConfigError):
        decode_state(240, 4)


# ---------------------------------------------------------------------------
# reward


def params(delta=(0.3, 0.1), beta=0.05, p_miss=0.5):
    return RewardParams(beta=beta, p_miss=p_miss, delta_acc=delta)


def test_reward_declining_unserved_request():
    assert reward(0, 0, params(), 1.0) == -0.5


def test_reward_stop_after_serving_is_free():
    assert reward(1, 0, params(), 0.1) == 0.0


def test_reward_full_battery_pays_delta_exactly():
    assert reward(0, 1, params(), 1.0) == 0.3
    assert reward(1, 1, params(), 1.0) == 0.1


def test_reward_energy_penalty_example():
    # 0.02 - 0.05 * (1 - 0.6) = 0
    p = params(delta=(0.02,), beta=0.05)
    assert abs(reward(0, 1, p, 0.6)) < 1e-15


def test_reward_masked_action_raises():
    with pytest.raises(ConfigError):
        reward(2, 1, params(), 1.0)


def test_reward_params_validation():
    with pytest.raises(ConfigError):
        RewardParams(beta=-0.1)
    with pytest.raises(ConfigError):
        RewardParams(p_miss=-1.0)


# ---------------------------------------------------------------------------
# q_update / act, on the rows of an N=2 table (n1 = 3)


def test_q_update_zero_learning_rate_is_identity():
    table = QTable.zeros(2, QHyperParams(learning_rate=0.0))
    before = table.values.copy()
    q_update(table.values, 3, table.hyper, si(l=0), 1, 5.0, si(l=1))
    assert np.array_equal(table.values, before)


def test_q_update_from_zero_table():
    table = QTable.zeros(2, QHyperParams(learning_rate=0.1, discount=0.0))
    s = si(l=0)
    q_update(table.values, 3, table.hyper, s, 1, 2.0, si(l=1))
    assert abs(table.values[s, 1] - 0.2) < 1e-12


def test_q_update_terminal_ignores_successor():
    table = QTable.zeros(2, QHyperParams(learning_rate=1.0, discount=0.9))
    s = si(l=0)
    q_update(table.values, 3, table.hyper, s, 0, 1.0, None)
    assert table.values[s, 0] == 1.0


def test_q_update_discounts_only_the_next_request():
    # gamma measures request-to-request time: a successor with l > 0 is in
    # the same request and is not discounted, one at l = 0 is
    hyper = QHyperParams(learning_rate=1.0, discount=0.9)
    s, same_request, next_request = si(l=1), si(l=2), si(l=0, e_now=1)
    table = QTable.zeros(2, hyper)
    table.values[same_request, 0] = 2.0
    q_update(table.values, 3, hyper, s, 1, 0.0, same_request)
    assert table.values[s, 1] == 2.0
    table = QTable.zeros(2, hyper)
    table.values[next_request, 0] = 2.0
    q_update(table.values, 3, hyper, s, 0, 0.0, next_request)
    assert abs(table.values[s, 0] - 1.8) < 1e-12


def test_masked_max_at_full_prefix_uses_stop_only():
    # q_update bootstraps from the best legal action of the successor
    table = QTable.zeros(2, QHyperParams(learning_rate=1.0))
    s, full = si(l=1), si(l=2)
    table.values[full] = [0.5, 9.0]  # a=1 illegal at l=N
    q_update(table.values, 3, table.hyper, s, 1, 0.0, full)
    assert table.values[s, 1] == 0.5
    table.values[s] = [0.25, 3.0]
    q_update(table.values, 3, table.hyper, si(l=0), 1, 0.0, s)
    assert table.values[si(l=0), 1] == 3.0


def test_act_greedy_mask_and_ties():
    table = QTable.zeros(2)
    s = si(l=0)
    assert act(table.values, 3, s) == 0           # tie at 0 resolves to stop
    table.values[s] = [0.1, 0.4]
    assert act(table.values, 3, s) == 1
    full = si(l=2)
    table.values[full] = [0.0, 99.0]
    assert act(table.values, 3, full) == 0        # masked at l=N


# ---------------------------------------------------------------------------
# toy chain MDP: run-then-stop is optimal and learnable

def chain_states():
    return si(l=0), si(l=1), si(l=2)


def chain_step(s, a, s0, s1, s2):
    """Returns (reward, next state or None). Best plan: a=1 at s0 (+0.2),
    then a=0 at s1 (0.0); every alternative is worse."""
    if s == s0:
        return (0.2, s1) if a == 1 else (-0.5, None)
    if s == s1:
        return (-0.3, s2) if a == 1 else (0.0, None)
    return (0.0, None)


def run_chain(seed, updates=10_000):
    s0, s1, s2 = chain_states()
    table = QTable.zeros(2, QHyperParams(learning_rate=0.2, discount=0.9))
    rng = np.random.default_rng(seed)
    done = 0
    while done < updates:
        s = s0
        while s is not None and done < updates:
            legal_run = s % 3 < 2
            if rng.random() < 0.2 and legal_run:
                a = int(rng.integers(0, 2))
            else:
                a = act(table.values, 3, s)
            r, s_next = chain_step(s, a, s0, s1, s2)
            q_update(table.values, 3, table.hyper, s, a, r, s_next)
            done += 1
            s = s_next
    return table, (s0, s1, s2)


def test_toy_chain_learns_optimal_policy():
    table, (s0, s1, _) = run_chain(seed=0)
    assert act(table.values, 3, s0) == 1
    assert act(table.values, 3, s1) == 0


# ---------------------------------------------------------------------------
# persistence


def test_qtable_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    table = QTable.zeros(4, QHyperParams(learning_rate=0.07))
    table.values[:] = rng.standard_normal(table.values.shape)
    path = tmp_path / "q.json"
    save_qtable(table, path)
    loaded = load_qtable(path, expected_n=4)
    assert np.array_equal(loaded.values, table.values)
    assert loaded.hyper == table.hyper
    save_qtable(loaded, tmp_path / "q2.json")
    assert (tmp_path / "q2.json").read_bytes() == path.read_bytes()


def test_qtable_load_errors(tmp_path):
    path = tmp_path / "q.json"
    save_qtable(QTable.zeros(3), path)
    with pytest.raises(ArtifactError, match="trained for N=3"):
        load_qtable(path, expected_n=4)
    path.write_text("{not json")
    with pytest.raises(ArtifactError):
        load_qtable(path)
    path.write_text('{"version": 99}')
    with pytest.raises(ArtifactError, match="version"):
        load_qtable(path)
    # a version-1 table also held the unreachable rows of a flag r != (l == 0)
    path.write_text(json.dumps({"version": 1, "n": 3, "hyperparameters": {},
                                "values": [[0.0, 0.0]] * 2 * state_space_size(3)}))
    with pytest.raises(ArtifactError, match="unsupported version 1, expected 2"):
        load_qtable(path)
    path.write_text("[]")
    with pytest.raises(ArtifactError, match="JSON object"):
        load_qtable(path)
    # `json` reads NaN and Infinity; a greedy lookup would decline silently
    for bad in (float("nan"), float("inf")):
        table = QTable.zeros(3)
        table.values[0, 1] = bad
        save_qtable(table, path)
        with pytest.raises(ArtifactError,
                           match=re.escape(f"{path}: q-values must be finite")):
            load_qtable(path)


# ---------------------------------------------------------------------------
# offline training


def stub_ensemble(delta=(0.3, 0.15, 0.05), macs=100_000):
    learners = [SimpleNamespace(macs=macs) for _ in delta]
    return SimpleNamespace(size=len(delta), delta_acc=list(delta),
                           learners=learners)


def abundant_env():
    trace = synth_trace(0, "constant", duration=200.0, constant_power=0.05)
    return EnvConfig(
        capacitor=Capacitor(capacitance=0.01, v_max=4.2, v_cutoff=1.7),
        trace=trace,
        cost_model=CostModel(),
        requests=RequestPattern(period=10.0, horizon=200.0),
        reward=RewardParams(beta=0.01, p_miss=0.5),
        power_thresholds=(0.01, 0.04))


class Arrivals(qsched.Agent):
    """Records each request's arrival time and declines it."""

    def __init__(self):
        self.times = []

    def arrive(self, i, t):
        self.times.append(t)

    def decide(self, s):
        return 0


def test_replay_serves_the_arange_request_times():
    # request i at period + i * period is element i of
    # np.arange(period, horizon + 1e-9, period), bit for bit, and
    # `request_count` its length, at integer and non-integer ratios of the
    # duration to the period
    trace = synth_trace(0, "constant", duration=2e4, constant_power=0.05,
                        sample_interval=1e3)
    rng = np.random.default_rng(29)
    for case in range(1200):
        period = (float(rng.choice((0.1, 0.3, 0.7, 2.5, 10.0))) if case % 3 == 0
                  else float(rng.uniform(0.01, 50.0)))
        ratio = float(rng.integers(1, 300)) if case % 2 else float(rng.uniform(0.5, 300.0))
        duration = period * ratio
        env = EnvConfig(capacitor=Capacitor(capacitance=0.01), trace=trace,
                        cost_model=CostModel(),
                        requests=RequestPattern(period=period, horizon=duration),
                        reward=RewardParams(), power_thresholds=(0.01, 0.04))
        agent = Arrivals()
        replay(env, make_device(env), [1e-3], agent)
        want = np.arange(period, duration + 1e-9, period)
        assert env.request_count == len(want) == len(agent.times), (period, duration)
        assert np.array_equal(bits(np.array(agent.times, dtype=np.float64)), bits(want)), \
            (period, duration)


def test_train_offline_deterministic():
    env = abundant_env()
    ens = stub_ensemble()
    ta, ca = train_offline(env, ens, episodes=10, seed=4)
    tb, cb = train_offline(env, ens, episodes=10, seed=4)
    assert np.array_equal(ta.values, tb.values)
    assert ca == cb
    tc, cc = train_offline(env, ens, episodes=10, seed=5)
    assert not np.array_equal(ta.values, tc.values)


def test_train_offline_zero_episodes():
    table, curve = train_offline(abundant_env(), stub_ensemble(), episodes=0,
                                 seed=0)
    assert curve == []
    assert not table.values.any()


class ObserveMeanTracker(qsched.StateTracker):
    """Takes the trailing mean with `np.mean` at every observation and
    encodes a `SchedulerState`: the reference for `StateTracker`, which
    bins inline and takes the mean once per served request."""

    def observe(self, device, l):
        cap = device.cap
        e_now = discretize_energy(device.usable_energy, cap, self.one_learner_cost)
        if self.history:
            mean_frac = float(np.mean(self.history[-qsched.E_LAST_WINDOW:]))
        else:
            mean_frac = usable_fraction(device)
        e_last = discretize_energy(mean_frac * cap.max_usable_energy, cap,
                                   self.one_learner_cost)
        p = discretize_power(device.p_harv, self.power_thresholds)
        return encode_state(SchedulerState(e_now=e_now, e_last=e_last, p_harv=p, l=l),
                            self.n)


def test_train_offline_matches_reference_stepper(monkeypatch):
    # requests every 2.5 s on a 1-s trace; nights drain the store below the
    # cutoff, so requests stop, brown out and find the device off
    trace = synth_trace(1, "day-night", duration=600.0, period=120.0,
                        high_power=0.03)
    env = EnvConfig(capacitor=Capacitor(capacitance=0.005, v_max=4.2, v_cutoff=1.7),
                    trace=trace, cost_model=CostModel(sleep_power=1e-3),
                    requests=RequestPattern(period=2.5, horizon=600.0),
                    reward=RewardParams(beta=0.05, p_miss=0.5))
    ens = stub_ensemble(macs=8_000_000)
    table, curve = train_offline(env, ens, episodes=6, seed=2)
    monkeypatch.setattr(qsched, "make_device", lambda env: SearchsortedDevice(
        cap=env.capacitor, trace=env.trace, cost_model=env.cost_model))
    monkeypatch.setattr(qsched, "StateTracker", ObserveMeanTracker)
    ref_table, ref_curve = train_offline(env, ens, episodes=6, seed=2)
    assert np.array_equal(table.values, ref_table.values)
    assert curve == ref_curve


# ---------------------------------------------------------------------------
# the trainer's draws: `_Draws` must give `np.random.default_rng`'s
# `random()` and `integers(0, 2)` bit for bit

RANDOM, COIN = "random", "coin"


def generator_draws(seed, kinds):
    rng = np.random.default_rng(seed)
    return [rng.random() if k == RANDOM else int(rng.integers(0, 2)) for k in kinds]


def decoded_draws(seed, kinds):
    draws = qsched._Draws(seed)
    return [draws.random() if k == RANDOM else draws.coin() for k in kinds]


def as_bits(values):
    return [(type(v), np.float64(v).view(np.int64)) for v in values]


def test_draws_pin_the_generator_streams():
    # default_rng(0)'s own values: they move if numpy changes its PCG64,
    # seeding or bounded-integer streams, and with them every q-table
    kinds = [RANDOM] * 3 + [COIN] * 7 + [RANDOM]
    expected = [0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
                0, 0, 0, 1, 1, 1, 1, 0.7294965609839984]
    assert as_bits(generator_draws(0, kinds)) == as_bits(expected)
    assert as_bits(decoded_draws(0, kinds)) == as_bits(expected)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
def test_draws_match_the_generator_on_mixed_sequences(seed):
    pattern = np.random.default_rng(seed + 1)
    kinds = [COIN if c else RANDOM for c in pattern.random(5 * qsched.RAW_BLOCK) < 0.4]
    # runs of an odd number of coins leave a kept half behind
    for run in (1, 3, 5, 7):
        kinds += [COIN] * run + [RANDOM] * run
    assert as_bits(decoded_draws(seed, kinds)) == as_bits(generator_draws(seed, kinds))


@pytest.mark.parametrize("before", [0, 1, 2])
def test_draws_keep_a_half_across_a_block_boundary(before):
    # the last word of the first block feeds a coin, and its kept half is
    # drawn after random() has read from the next block
    block = qsched.RAW_BLOCK
    kinds = ([RANDOM] * (block - 1 - before) + [COIN] * (2 * before + 1)
             + [RANDOM] * 3 + [COIN] * 3 + [RANDOM] * block + [COIN])
    for seed in (3, 11):
        assert as_bits(decoded_draws(seed, kinds)) == as_bits(generator_draws(seed, kinds))


def words_drawn(rng, seed) -> int:
    """The PCG64 words `rng`, a `default_rng(seed)`, has drawn."""
    bits = np.random.PCG64(seed)
    target = rng.bit_generator.state["state"]["state"]
    for k in itertools.count():
        if bits.state["state"]["state"] == target:
            return k
        bits.random_raw()


@pytest.mark.parametrize("epsilon", [(1.0, 1.0), (0.3, 0.01), (0.0, 0.0)],
                         ids=["explore", "annealed", "greedy"])
def test_train_offline_matches_generator_draws(monkeypatch, epsilon):
    # the frozen learner draws from a numpy Generator; the runs span many
    # blocks, and nights make requests brown out and find the device off
    trace = synth_trace(1, "day-night", duration=600.0, period=120.0,
                        high_power=0.03)
    env = EnvConfig(capacitor=Capacitor(capacitance=0.005, v_max=4.2, v_cutoff=1.7),
                    trace=trace, cost_model=CostModel(sleep_power=1e-3),
                    requests=RequestPattern(period=2.5, horizon=600.0),
                    reward=RewardParams(beta=0.05, p_miss=0.5))
    ens = stub_ensemble(macs=8_000_000)
    hyper = QHyperParams(epsilon_start=epsilon[0], epsilon_end=epsilon[1])
    table, curve = train_offline(env, ens, episodes=8, seed=2, hyper=hyper)
    generators = []

    def default_rng(seed):
        generators.append(np.random.default_rng(seed))
        return generators[-1]

    monkeypatch.setattr(qsched, "_Draws", default_rng)
    monkeypatch.setattr(qsched, "_QLearner", GeneratorQLearner)
    ref_table, ref_curve = train_offline(env, ens, episodes=8, seed=2, hyper=hyper)
    assert words_drawn(generators[0], 2) > 8 * qsched.RAW_BLOCK
    assert np.array_equal(table.values.view(np.int64), ref_table.values.view(np.int64))
    assert np.array_equal(np.asarray(curve).view(np.int64),
                          np.asarray(ref_curve).view(np.int64))


@pytest.mark.parametrize("epsilon", [(1.0, 1.0), (0.3, 0.01), (0.0, 0.0)],
                         ids=["explore", "annealed", "greedy"])
@pytest.mark.parametrize("macs", [(6_000_000,), (2_000_000, 9_000_000, 4_000_000, 7_000_000)],
                         ids=["n1", "n4"])
def test_train_offline_matches_generator_draws_at_n_1_and_4(monkeypatch, macs, epsilon):
    # the inlined update, action and reward at other widths of the state's
    # l digit, with unequal learner costs, so that a request can brown out
    # on a dearer learner after a cheaper one ran, and a larger beta
    n = len(macs)
    trace = synth_trace(3, "day-night", duration=600.0, period=120.0,
                        high_power=0.03)
    env = EnvConfig(capacitor=Capacitor(capacitance=0.005, v_max=4.2, v_cutoff=1.7),
                    trace=trace, cost_model=CostModel(sleep_power=1e-3),
                    requests=RequestPattern(period=2.5, horizon=600.0),
                    reward=RewardParams(beta=0.4, p_miss=0.5))
    ens = SimpleNamespace(size=n, delta_acc=[0.3, 0.15, 0.05, 0.02][:n],
                          learners=[SimpleNamespace(macs=m) for m in macs])
    hyper = QHyperParams(epsilon_start=epsilon[0], epsilon_end=epsilon[1])
    table, curve = train_offline(env, ens, episodes=8, seed=4, hyper=hyper)
    ends = []

    class Reference(GeneratorQLearner):
        def done(self, l, end):
            ends.append((l, end))
            super().done(l, end)

    monkeypatch.setattr(qsched, "_Draws", np.random.default_rng)
    monkeypatch.setattr(qsched, "_QLearner", Reference)
    ref_table, ref_curve = train_offline(env, ens, episodes=8, seed=4, hyper=hyper)
    assert (0, qsched.OFF) in ends and (0, qsched.BROWNOUT) in ends
    if n > 1:
        assert any(end == qsched.BROWNOUT and macs[l] > macs[l - 1] for l, end in ends if l)
    assert np.array_equal(table.values.view(np.int64), ref_table.values.view(np.int64))
    assert np.array_equal(np.asarray(curve).view(np.int64),
                          np.asarray(ref_curve).view(np.int64))


def greedy_executions(table, env, ens):
    """Replay the trace with the greedy policy; returns learners run per
    request."""
    costs = [inference_cost(l.macs, env.cost_model) for l in ens.learners]
    agent = PolicyAgent(lambda s: act(table.values, table.n + 1, s))
    replay(env, make_device(env), costs, agent)
    return agent.runs


def test_abundant_power_policy_runs_full_ensemble():
    env = abundant_env()
    ens = stub_ensemble()
    table, curve = train_offline(env, ens, episodes=80, seed=0)
    runs = greedy_executions(table, env, ens)
    assert len(runs) == 19   # every 10 s up to the trace's last sample, 199 s
    assert np.mean(np.asarray(runs) == ens.size) >= 0.9
    # learning made the episode reward climb
    assert np.mean(curve[-10:]) >= np.mean(curve[:10])


# ---------------------------------------------------------------------------
# the tracker's trailing mean and state index


def test_observe_bins_match_the_discretizers_at_their_edges():
    cap = Capacitor(capacitance=0.005, v_max=4.2, v_cutoff=1.7)
    one_learner_cost, thresholds = 3e-3, (0.01, 0.02)
    power = []
    for edge in thresholds:
        power += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    trace = PowerTrace(times=np.arange(len(power), dtype=float), power=power)
    device = Device(cap=cap, trace=trace, cost_model=CostModel())
    tracker = qsched.StateTracker(cap, one_learner_cost, thresholds, n=2)
    edges = (one_learner_cost, 0.5 * cap.max_usable_energy,
             cap.max_usable_energy - 1e-9, cap.max_usable_energy)
    energies = []
    for edge in edges:
        e = cap.cutoff_energy + edge
        for _ in range(3):
            e = np.nextafter(e, 0.0)
        for _ in range(7):
            energies.append(float(e))
            e = np.nextafter(e, np.inf)
    seen = set()
    for t in range(len(power)):
        device.advance(float(t))
        for energy in energies:
            device.energy = energy
            ref = SchedulerState(
                e_now=discretize_energy(device.usable_energy, cap, one_learner_cost),
                e_last=discretize_energy(usable_fraction(device) * cap.max_usable_energy,
                                         cap, one_learner_cost),
                p_harv=discretize_power(device.p_harv, thresholds), l=1)
            assert tracker.observe(device, 1) == encode_state(ref, 2)
            seen.add((ref.e_now, ref.p_harv))
    assert seen == {(e, p) for e in range(ENERGY_LEVELS) for p in range(POWER_LEVELS)}


def test_observe_rebins_the_power_for_each_device_and_time():
    # one tracker must rebin the power when time moves over a power change
    # and when another device is observed at the same time, and a draw moves
    # the energy bins but not the power's
    cap = Capacitor(capacitance=0.005, v_max=4.2, v_cutoff=1.7)
    one_learner_cost, thresholds = 3e-3, (0.01, 0.02)
    tracker = qsched.StateTracker(cap, one_learner_cost, thresholds, n=2)

    def device(power):
        trace = PowerTrace(times=np.arange(len(power), dtype=float), power=power)
        return Device(cap=cap, trace=trace, cost_model=CostModel())

    def observed(device, l):
        ref = SchedulerState(
            e_now=discretize_energy(device.usable_energy, cap, one_learner_cost),
            e_last=discretize_energy(usable_fraction(device) * cap.max_usable_energy,
                                     cap, one_learner_cost),
            p_harv=discretize_power(device.p_harv, thresholds), l=l)
        assert tracker.observe(device, l) == encode_state(ref, 2)
        return ref

    rising, falling = device([0.0, 0.015, 0.03]), device([0.03, 0.03, 0.0])
    assert observed(rising, 0).p_harv == 0
    assert rising.draw(0.01)   # the same time, less energy
    seen = observed(rising, 1)
    assert (seen.e_now, seen.p_harv) == (2, 0)
    rising.advance(1.0)        # over a power change
    assert observed(rising, 0).p_harv == 1
    falling.advance(1.0)       # another device at the same time
    assert observed(falling, 0).p_harv == 2
    assert observed(rising, 1).p_harv == 1
    rising.advance(2.0)
    falling.advance(2.0)
    assert observed(falling, 0).p_harv == 0
    assert observed(rising, 0).p_harv == 2
    assert falling.draw(0.02)
    seen = observed(falling, 1)
    assert (seen.e_now, seen.p_harv) == (1, 0)


def test_observe_index_matches_reference_state(monkeypatch):
    # nights drain the store below the cutoff, so requests brown out and
    # find the device off; random decisions visit many states
    trace = synth_trace(1, "day-night", duration=900.0, period=150.0,
                        high_power=0.03)
    env = EnvConfig(capacitor=Capacitor(capacitance=0.005, v_max=4.2, v_cutoff=1.7),
                    trace=trace, cost_model=CostModel(sleep_power=1e-3),
                    requests=RequestPattern(period=2.5, horizon=900.0),
                    reward=RewardParams())
    ens = stub_ensemble(delta=(0.3, 0.15, 0.05, 0.02), macs=8_000_000)
    n = ens.size
    pairs = []
    tracker = qsched.StateTracker

    class CheckedTracker(ObserveMeanTracker):
        def observe(self, device, l):
            s = tracker.observe(self, device, l)
            pairs.append((s, super().observe(device, l)))
            return s

    class Recorder(qsched.Agent):
        def __init__(self):
            self.rng = np.random.default_rng(0)
            self.ends = []

        def decide(self, s):
            return int(s % (n + 1) < n and self.rng.random() < 0.8)

        def done(self, l, end):
            self.ends.append(end)

    monkeypatch.setattr(qsched, "StateTracker", CheckedTracker)
    agent = Recorder()
    costs = [inference_cost(l.macs, env.cost_model) for l in ens.learners]
    replay(env, make_device(env), costs, agent)
    assert {qsched.OFF, qsched.BROWNOUT, qsched.STOP} <= set(agent.ends)
    assert all(s == ref for s, ref in pairs)
    states = {decode_state(s, n) for s, _ in pairs}
    assert {st.e_now for st in states} == set(range(ENERGY_LEVELS))
    assert {st.e_last for st in states} == set(range(ENERGY_LEVELS))
    assert {st.p_harv for st in states} >= {0, 2}
    assert {st.l for st in states} == set(range(n + 1))
