import numpy as np
import pytest
from hypothesis import given, strategies as st

from delayfilt import (
    DelayChannel,
    DelayOutcome,
    DomainError,
    LatencyParams,
    RngStream,
    delay_pmf,
    empirical_delay_histogram,
)
from conftest import ScriptedRng


class TestLatencyParams:
    def test_validates(self):
        p = LatencyParams(0.5, 2)
        assert float(p.p) == 0.5 and p.max_delay == 2

    def test_rejects_negative_delay(self):
        with pytest.raises(DomainError):
            LatencyParams(0.5, -1)

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            LatencyParams(1.5, 2)


class TestDelayPmf:
    def test_zero_latency_forces_zero_delay(self):
        weights, drop = delay_pmf(LatencyParams(0.0, 2))
        assert np.array_equal(weights, [1.0, 0.0, 0.0])
        assert float(drop) == 0.0

    def test_half_latency_exact_values(self):
        weights, drop = delay_pmf(LatencyParams(0.5, 2))
        assert np.array_equal(weights, [0.5, 0.25, 0.125])
        assert float(drop) == 0.125

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=8),
    )
    def test_total_probability(self, p, n):
        weights, drop = delay_pmf(LatencyParams(p, n))
        assert abs(weights.sum() + float(drop) - 1.0) <= 1e-15


class TestChannelStep:
    def test_first_flag_zero_delivers_fresh(self):
        chan = DelayChannel(LatencyParams(0.5, 2), ScriptedRng(randoms=[0.9, 0.9, 0.9]))
        y, outcome = chan.step(7.0)
        assert outcome == DelayOutcome.delivered(0)
        assert y == 7.0

    def test_two_leading_ones_delivers_two_step_delay(self):
        # flags (1,1,0) at p=0.5: values below p are ones
        rng = ScriptedRng(randoms=[0.1, 0.1, 0.9] * 3)
        chan = DelayChannel(LatencyParams(0.5, 2), rng)
        chan.step(1.0)  # clamped at startup
        chan.step(2.0)
        y, outcome = chan.step(3.0)
        assert outcome == DelayOutcome.delivered(2)
        assert y == 1.0  # z from two steps ago

    def test_all_ones_repeats_previous_delivery(self):
        rng = ScriptedRng(randoms=[0.9, 0.9, 0.9] + [0.1, 0.1, 0.1])
        chan = DelayChannel(LatencyParams(0.5, 2), rng)
        y1, _ = chan.step(1.0)
        y2, outcome = chan.step(2.0)
        assert outcome.dropped
        assert y2 == y1 == 1.0

    def test_startup_clamps_to_oldest_measurement(self):
        # k=1 with drawn delay 2: only z_1 exists
        chan = DelayChannel(LatencyParams(0.5, 2), ScriptedRng(randoms=[0.1, 0.1, 0.9]))
        y, outcome = chan.step(5.0)
        assert outcome == DelayOutcome.delivered(0)
        assert y == 5.0

    def test_startup_clamp_partial(self):
        # k=2 with drawn delay 2 clamps to delay 1
        rng = ScriptedRng(randoms=[0.9, 0.9, 0.9] + [0.1, 0.1, 0.9])
        chan = DelayChannel(LatencyParams(0.5, 2), rng)
        chan.step(1.0)
        y, outcome = chan.step(2.0)
        assert outcome == DelayOutcome.delivered(1)
        assert y == 1.0

    def test_loss_at_first_step_delivers_first_measurement(self):
        chan = DelayChannel(LatencyParams(0.5, 2), ScriptedRng(randoms=[0.1, 0.1, 0.1]))
        y, outcome = chan.step(9.0)
        assert outcome.dropped
        assert y == 9.0

    def test_same_packet_delivered_twice(self):
        # delay 1 at k=2 then delay 2 at k=3 both deliver z_1
        rng = ScriptedRng(
            randoms=[0.9, 0.9, 0.9] + [0.1, 0.9, 0.9] + [0.1, 0.1, 0.9]
        )
        chan = DelayChannel(LatencyParams(0.5, 2), rng)
        chan.step(1.0)
        y2, o2 = chan.step(2.0)
        y3, o3 = chan.step(3.0)
        assert y2 == y3 == 1.0
        assert o2 == DelayOutcome.delivered(1)
        assert o3 == DelayOutcome.delivered(2)

    def test_identity_channel_at_zero_latency(self):
        chan = DelayChannel(LatencyParams(0.0, 3), RngStream(11))
        z = RngStream(12).normal(0, 1, 200)
        for z_k in z:
            y, outcome = chan.step(z_k)
            assert y == z_k
            assert outcome == DelayOutcome.delivered(0)

    def test_delivered_measurement_always_from_buffer(self):
        rng = RngStream(13)
        chan = DelayChannel(LatencyParams(0.7, 3), rng.substream(0))
        z_all = []
        for k in range(200):
            z_k = float(rng.substream(1).normal(0, 1)) + k  # distinct values
            z_all.append(z_k)
            y, outcome = chan.step(z_k)
            if not outcome.dropped:
                assert y == z_all[len(z_all) - 1 - outcome.delay]
                assert outcome.delay <= 3


class TestEmpiricalHistogram:
    def test_zero_latency(self):
        freq, drop = empirical_delay_histogram(LatencyParams(0.0, 2), 1000, RngStream(14))
        assert freq[0] == 1.0
        assert drop == 0.0

    def test_certain_loss(self):
        freq, drop = empirical_delay_histogram(LatencyParams(1.0, 2), 1000, RngStream(15))
        assert np.all(freq == 0.0)
        assert drop == 1.0

    def test_matches_pmf_within_three_sigma(self):
        params = LatencyParams(0.5, 2)
        trials = 10**5
        freq, drop = empirical_delay_histogram(params, trials, RngStream(16))
        weights, drop_exact = delay_pmf(params)
        for observed, expected in zip(
            np.append(freq, drop), np.append(weights, float(drop_exact))
        ):
            tol = 3 * np.sqrt(expected * (1 - expected) / trials)
            assert abs(observed - expected) <= tol

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            empirical_delay_histogram(LatencyParams(0.5, 2), 0, RngStream(17))


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_longrun_channel_frequencies_converge(p, n):
    params = LatencyParams(p, n)
    rng = RngStream(1000 + n)
    chan = DelayChannel(params, rng.substream(0))
    steps = 30000
    counts = np.zeros(n + 2)
    for k in range(steps):
        _, outcome = chan.step(float(k))
        counts[n + 1 if outcome.dropped else outcome.delay] += 1
    freq = counts / steps
    weights, drop = delay_pmf(params)
    expected = np.append(weights, float(drop))
    for observed, exp_q in zip(freq, expected):
        # 4 sigma plus slack for the startup clamp's transient
        tol = 4 * np.sqrt(max(exp_q * (1 - exp_q), 1e-12) / steps) + 2e-3
        assert abs(observed - exp_q) <= tol


def test_exactly_one_outcome_per_step():
    rng = RngStream(18)
    chan = DelayChannel(LatencyParams(0.6, 2), rng)
    for k in range(100):
        _, outcome = chan.step(float(k))
        assert outcome.dropped == (outcome.delay is None)
