"""Synthetic generation and the five attack injections.

Label soundness is the load-bearing property here: a record is labeled 1
exactly when injection created it or changed its payload, verified by
diffing against the clean trace.
"""

import dataclasses

import numpy as np
import pytest

from canids.tracegen import (
    AttackSpec,
    SignalGenSpec,
    generate_normal,
    inject_attack,
    inject_suite,
    load_manifest,
    save_manifest,
)
from canids.traces import MessageSchema, from_json

SCHEMA = MessageSchema(message_id=0x55, signal_count=2,
                       nominal_period_ms=15.0)
SINE = SignalGenSpec(kind="sine", lo=-2.0, hi=2.0, amplitude=1.0,
                     period_s=0.5)
WALK = SignalGenSpec(kind="random-walk", lo=0.0, hi=10.0, step_std=0.1)


def clean(duration=3.0, seed=11):
    return generate_normal(SCHEMA, [SINE, WALK], duration, seed=seed)


def diff_labels(before, after):
    """Recompute labels the hard way: changed payload or created record."""
    before_by_ts = {t: before.signals[i] for i, t in
                    enumerate(before.timestamps)}
    out = []
    for i, t in enumerate(after.timestamps):
        orig = before_by_ts.get(float(t))
        created = orig is None
        out.append(1 if created or not np.array_equal(orig, after.signals[i])
                   else 0)
    return np.array(out, dtype=np.int64)


class TestGenerateNormal:
    def test_record_count_and_spacing(self):
        t = generate_normal(SCHEMA, [SINE, WALK], 0.15, seed=0)
        assert len(t) == 10
        assert np.allclose(t.timestamps, np.arange(10) * 0.015)

    def test_deterministic_for_seed(self):
        a = clean(seed=4)
        b = clean(seed=4)
        assert np.array_equal(a.signals, b.signals)
        c = clean(seed=5)
        assert not np.array_equal(a.signals, c.signals)

    def test_zero_labels_everywhere(self):
        assert clean().labels.sum() == 0

    def test_noiseless_sine_matches_closed_form(self):
        spec = SignalGenSpec(kind="sine", lo=-2.0, hi=2.0, amplitude=1.0,
                             period_s=0.5, phase=0.3, center=0.25)
        t = generate_normal(
            MessageSchema(message_id=1, signal_count=1, nominal_period_ms=15),
            [spec], 1.0, seed=0)
        expected = 0.25 + np.sin(2 * np.pi * t.timestamps / 0.5 + 0.3)
        assert np.max(np.abs(t.signals[:, 0] - expected)) < 1e-12

    def test_values_respect_declared_range(self):
        t = clean(duration=30.0)
        assert t.signals[:, 0].min() >= SINE.lo
        assert t.signals[:, 0].max() <= SINE.hi
        assert t.signals[:, 1].min() >= WALK.lo
        assert t.signals[:, 1].max() <= WALK.hi

    def test_too_short_duration_rejected(self):
        with pytest.raises(ValueError):
            generate_normal(SCHEMA, [SINE, WALK], 0.005, seed=0)


class TestConstant:
    def test_overwrite_and_labels(self):
        base = clean()
        spec = AttackSpec(kind="Constant", t_start=1.0, t_end=2.0,
                          target_signal=0, value=7.5)
        out = inject_attack(base, spec, seed=0)
        inside = (out.timestamps >= 1.0) & (out.timestamps < 2.0)
        assert np.all(out.signals[inside, 0] == 7.5)
        assert np.all(out.labels[inside] == 1)
        assert np.array_equal(out.signals[~inside], base.signals[~inside])
        assert np.all(out.labels[~inside] == 0)
        assert np.array_equal(out.labels, diff_labels(base, out))

    def test_untouched_signal_column_intact(self):
        base = clean()
        spec = AttackSpec(kind="Constant", t_start=1.0, t_end=2.0,
                          target_signal=0, value=7.5)
        out = inject_attack(base, spec, seed=0)
        assert np.array_equal(out.signals[:, 1], base.signals[:, 1])


class TestContinuous:
    def test_drift_sequence_clamps_and_holds(self):
        base = clean()
        start_idx = int(np.searchsorted(base.timestamps, 1.0))
        s = base.signals[start_idx, 0]
        spec = AttackSpec(kind="Continuous", t_start=1.0, t_end=2.0,
                          target_signal=0, increment=0.05, target=s + 0.3)
        out = inject_attack(base, spec, seed=0)
        inside = np.where((out.timestamps >= 1.0) & (out.timestamps < 2.0))[0]
        vals = out.signals[inside, 0]
        expected = np.minimum(s + 0.05 * np.arange(len(inside)), s + 0.3)
        assert np.allclose(vals, expected, atol=1e-12)
        # first record still carries the original value, so its label is 0
        assert out.labels[inside[0]] == 0
        assert np.all(out.labels[inside[1:]] == 1)
        assert np.array_equal(out.labels, diff_labels(base, out))

    def test_unreachable_target_rejected(self):
        base = clean()
        start_idx = int(np.searchsorted(base.timestamps, 1.0))
        s = base.signals[start_idx, 0]
        spec = AttackSpec(kind="Continuous", t_start=1.0, t_end=2.0,
                          target_signal=0, increment=-0.05, target=s + 0.3)
        with pytest.raises(ValueError, match="increment"):
            inject_attack(base, spec, seed=0)


class TestReplay:
    def test_payloads_copied_record_for_record(self):
        base = clean()
        spec = AttackSpec(kind="Replay", t_start=2.0, t_end=2.5,
                          source_start=0.5)
        out = inject_attack(base, spec, seed=0)
        tgt = np.where((out.timestamps >= 2.0) & (out.timestamps < 2.5))[0]
        src = np.where((base.timestamps >= 0.5)
                       & (base.timestamps < 1.0))[0]
        assert np.array_equal(out.signals[tgt], base.signals[src[:len(tgt)]])
        # timestamps keep the target grid
        assert np.array_equal(out.timestamps, base.timestamps)
        assert np.array_equal(out.labels, diff_labels(base, out))

    def test_source_must_not_reach_target(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="Replay", t_start=2.0, t_end=2.5,
                       source_start=1.8)

    def test_short_source_rejected(self):
        base = clean()
        # source interval would extend past the data start
        spec = AttackSpec(kind="Replay", t_start=0.3, t_end=0.9,
                          source_start=-0.4)
        with pytest.raises(ValueError):
            inject_attack(base, spec, seed=0)


class TestDropping:
    def test_interval_emptied(self):
        base = clean()
        spec = AttackSpec(kind="Dropping", t_start=1.0, t_end=1.5)
        out = inject_attack(base, spec, seed=0)
        inside = (out.timestamps >= 1.0) & (out.timestamps < 1.5)
        assert inside.sum() == 0
        n_dropped = int(((base.timestamps >= 1.0)
                         & (base.timestamps < 1.5)).sum())
        assert len(out) == len(base) - n_dropped
        assert n_dropped > 0
        assert out.labels.sum() == 0  # removed records carry no labels


class TestDdos:
    def test_flood_count_on_aligned_interval_is_exactly_multiplied(self):
        # interval bounds on the record grid: 40 nominal records, so the
        # flood grid tiles it exactly and the count multiplies cleanly
        base = clean()
        t0, t1 = 1.005, 1.605
        spec = AttackSpec(kind="DDoS", t_start=t0, t_end=t1, multiplier=10)
        out = inject_attack(base, spec, seed=0)
        nominal = int(((base.timestamps >= t0) & (base.timestamps < t1)).sum())
        got = int(((out.timestamps >= t0) & (out.timestamps < t1)).sum())
        assert nominal == 40
        assert abs(got - 10 * nominal) <= 1
        assert np.array_equal(out.labels, diff_labels(base, out))

    def test_flood_count_arithmetic_off_grid(self):
        # flood slots run from the first in-interval record to the interval
        # end at period/multiplier spacing; count them directly
        base = clean()
        spec = AttackSpec(kind="DDoS", t_start=1.0, t_end=2.0, multiplier=10)
        out = inject_attack(base, spec, seed=0)
        step = 0.015 / 10
        anchor = base.timestamps[base.timestamps >= 1.0][0]
        expected = int(np.floor((2.0 - anchor) / step)) + 1
        got = int(((out.timestamps >= 1.0) & (out.timestamps < 2.0)).sum())
        assert abs(got - expected) <= 1
        assert np.array_equal(out.labels, diff_labels(base, out))

    def test_inserted_records_labeled_created_only(self):
        base = clean()
        spec = AttackSpec(kind="DDoS", t_start=1.0, t_end=2.0, multiplier=4)
        out = inject_attack(base, spec, seed=0)
        original = set(float(t) for t in base.timestamps)
        for i, t in enumerate(out.timestamps):
            assert out.labels[i] == (0 if float(t) in original else 1)

    def test_repeat_last_payloads(self):
        base = clean()
        spec = AttackSpec(kind="DDoS", t_start=1.0, t_end=1.3, multiplier=3,
                          payload_mode="repeat-last")
        out = inject_attack(base, spec, seed=0)
        injected = np.where(out.labels == 1)[0]
        for i in injected:
            # every flood frame repeats some earlier legitimate payload
            prev_legit = i - 1
            while out.labels[prev_legit] == 1:
                prev_legit -= 1
            assert np.array_equal(out.signals[i], out.signals[prev_legit])

    def test_random_payloads_stay_in_observed_range(self):
        base = clean()
        spec = AttackSpec(kind="DDoS", t_start=1.0, t_end=2.0, multiplier=5,
                          payload_mode="random")
        out = inject_attack(base, spec, seed=3)
        injected = out.labels == 1
        for j in range(2):
            assert out.signals[injected, j].min() >= base.signals[:, j].min()
            assert out.signals[injected, j].max() <= base.signals[:, j].max()

    def test_timestamps_remain_sorted(self):
        base = clean()
        spec = AttackSpec(kind="DDoS", t_start=1.0, t_end=2.0, multiplier=10)
        out = inject_attack(base, spec, seed=0)
        assert np.all(np.diff(out.timestamps) >= 0)


class TestComposition:
    def test_disjoint_attacks_commute(self):
        base = clean(duration=4.0)
        a = AttackSpec(kind="Constant", t_start=0.5, t_end=1.0,
                       target_signal=0, value=9.0)
        b = AttackSpec(kind="Continuous", t_start=2.0, t_end=2.5,
                       target_signal=1, increment=0.1, target=50.0)
        ab = inject_attack(inject_attack(base, a, seed=1), b, seed=2)
        ba = inject_attack(inject_attack(base, b, seed=2), a, seed=1)
        assert np.array_equal(ab.signals, ba.signals)
        assert np.array_equal(ab.labels, ba.labels)

    def test_overlapping_attacks_rejected(self):
        base = clean(duration=4.0)
        a = AttackSpec(kind="Constant", t_start=0.5, t_end=1.5,
                       target_signal=0, value=9.0)
        b = AttackSpec(kind="Constant", t_start=1.0, t_end=2.0,
                       target_signal=0, value=5.0)
        with pytest.raises(ValueError, match="overlap"):
            inject_attack(inject_attack(base, a, seed=1), b, seed=2)

    def test_out_of_range_interval_rejected(self):
        base = clean(duration=2.0)
        spec = AttackSpec(kind="Constant", t_start=1.5, t_end=3.5,
                          target_signal=0, value=1.0)
        with pytest.raises(ValueError, match="interval"):
            inject_attack(base, spec, seed=0)

    def test_suite_injection_deterministic(self):
        base = clean(duration=4.0)
        specs = [
            AttackSpec(kind="DDoS", t_start=0.5, t_end=1.0, multiplier=3,
                       payload_mode="random"),
            AttackSpec(kind="Dropping", t_start=2.0, t_end=2.4),
        ]
        a = inject_suite(base, specs, seed=7)
        b = inject_suite(base, specs, seed=7)
        assert np.array_equal(a.signals, b.signals)
        assert np.array_equal(a.timestamps, b.timestamps)


class TestEpochTimeBase:
    """A capture logged at Unix-epoch time must be attacked exactly like
    the same capture starting at 0: float64 spacing near 1.7e9 s is about
    2.4e-7 s, so slot comparisons there need a tolerance that scales."""

    T0 = 1.7e9

    def _suite(self, t0):
        return [
            AttackSpec(kind="Constant", t_start=t0 + 0.3, t_end=t0 + 0.6,
                       target_signal=0, value=1.5),
            AttackSpec(kind="DDoS", t_start=t0 + 1.005, t_end=t0 + 1.605,
                       multiplier=10, payload_mode="random"),
            AttackSpec(kind="Replay", t_start=t0 + 2.4, t_end=t0 + 2.7,
                       source_start=t0 + 1.8),
            AttackSpec(kind="Dropping", t_start=t0 + 3.0, t_end=t0 + 3.3),
            AttackSpec(kind="DDoS", t_start=t0 + 3.5, t_end=t0 + 3.8,
                       multiplier=4),
        ]

    def test_same_records_labelled_as_at_time_zero(self):
        base = clean(duration=4.0)
        shifted = dataclasses.replace(base,
                                      timestamps=base.timestamps + self.T0)
        ref = inject_suite(base, self._suite(0.0), seed=5)
        out = inject_suite(shifted, self._suite(self.T0), seed=5)
        assert len(out) == len(ref)
        assert np.array_equal(out.labels, ref.labels)
        assert np.array_equal(out.signals, ref.signals)
        assert np.allclose(out.timestamps - self.T0, ref.timestamps,
                           rtol=0, atol=1e-6)


class TestManifest:
    def test_round_trip(self, tmp_path):
        specs = [
            AttackSpec(kind="Constant", t_start=1.0, t_end=2.0,
                       target_signal=0, value=7.5),
            AttackSpec(kind="Replay", t_start=4.0, t_end=5.0,
                       source_start=0.0),
            AttackSpec(kind="DDoS", t_start=6.0, t_end=7.0, multiplier=10,
                       payload_mode="random"),
        ]
        p = tmp_path / "m.json"
        save_manifest(specs, p, message_id=0x55)
        mid, back = load_manifest(p)
        assert mid == 0x55
        assert back == specs

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(p)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="Fuzz", t_start=0.0, t_end=1.0)

    def test_reversed_interval(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="Dropping", t_start=2.0, t_end=1.0)

    def test_constant_requires_value_and_signal(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="Constant", t_start=0.0, t_end=1.0)

    def test_ddos_multiplier_floor(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="DDoS", t_start=0.0, t_end=1.0, multiplier=1)

    def test_dict_round_trip(self):
        spec = AttackSpec(kind="Continuous", t_start=1.0, t_end=2.0,
                          target_signal=1, increment=0.01, target=3.0)
        assert from_json(AttackSpec, spec.to_dict(), "spec") == spec
