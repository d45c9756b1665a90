"""Scenario generation, noise model, reference-linker behaviors."""

import math

import numpy as np
import pytest

from helpers import AuditedLinker, built_audit, random_stream
from tubestream.linker import LinkerConfig, OnlineLinker, alpha_from_training_error
from tubestream.synthetic import (
    ScenarioSpec,
    TrackSpec,
    generate,
    oracle_link,
    score_only_link,
    track_rate,
)
from tubestream.tubes import DetectionStream

TRACK = TrackSpec(0, 3, 12, (0.2, 0.2, 0.5, 0.6), (0.35, 0.25, 0.65, 0.65))


def plain_spec(**kwargs):
    defaults = dict(
        n_frames=14,
        n_classes=1,
        tracks=(TRACK,),
        context_fraction=0.0,
        distractor_rate=0.0,
        seed=1,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestGenerate:
    def test_noiseless_identity(self):
        stream, gt = generate(plain_spec())
        assert len(gt) == 1 and (gt[0].t_start, gt[0].t_end) == (3, 12)
        for k, frame in enumerate(range(3, 13), start=1):
            boxes = stream.boxes_at(frame)
            assert len(boxes) == 1
            assert boxes[0].geometry == pytest.approx(gt[0].box_at(frame), abs=1e-12)
            assert boxes[0].rate == pytest.approx(k / 10, abs=1e-12)
        assert stream.boxes_at(1) == [] and stream.boxes_at(13) == []

    def test_same_seed_identical_streams(self):
        a, _ = generate(plain_spec(geometry_jitter=0.02, rate_noise=0.05, distractor_rate=1.0))
        b, _ = generate(plain_spec(geometry_jitter=0.02, rate_noise=0.05, distractor_rate=1.0))
        assert a == b

    def test_different_seed_differs(self):
        a, _ = generate(plain_spec(rate_noise=0.05))
        b, _ = generate(plain_spec(rate_noise=0.05, seed=2))
        assert a != b

    def test_context_frames_emitted_flat(self):
        spec = plain_spec(context_fraction=0.3, context_rate=0.25, context_score=(0.7, 1.0))
        stream, _ = generate(spec)
        margin = round(0.3 * 10)
        pre = [f for f in range(3 - margin, 3) if f >= 1]
        post = [f for f in range(13, 13 + margin) if f <= 14]
        for f in pre + post:
            boxes = stream.boxes_at(f)
            assert len(boxes) == 1
            assert boxes[0].rate == 0.25
            assert 0.7 <= boxes[0].confidence <= 1.0

    def test_rate_noise_magnitude(self):
        # Clipped-Gaussian noise on the in-track ramp: over interior frames
        # (where clipping is inert) the mean absolute deviation estimates
        # sqrt(2/pi) * sigma.
        sigma, length, replicates = 0.05, 20, 10_000
        track = TrackSpec(0, 1, length, (0.2, 0.2, 0.5, 0.6), (0.35, 0.25, 0.65, 0.65))
        devs = []
        for rep in range(replicates):
            spec = ScenarioSpec(
                n_frames=length,
                n_classes=1,
                tracks=(track,),
                rate_noise=sigma,
                context_fraction=0.0,
                seed=7 + rep,
            )
            stream, _ = generate(spec)
            for frame in range(3, 18):  # k/L within [0.15, 0.85]: >= 3 sigma from both clips
                box = stream.boxes_at(frame)[0]
                devs.append(abs(box.rate - frame / length))
        mean_dev = float(np.mean(devs))
        assert mean_dev == pytest.approx(math.sqrt(2 / math.pi) * sigma, abs=3 * sigma / math.sqrt(length))

    def test_sawtooth_rates_for_periodic_class(self):
        spec = plain_spec(periodic=(True,), sawtooth_period=4)
        stream, _ = generate(spec)
        rates = [stream.boxes_at(f)[0].rate for f in range(3, 13)]
        assert rates == pytest.approx([0.25, 0.5, 0.75, 1.0, 0.25, 0.5, 0.75, 1.0, 0.25, 0.5], abs=1e-12)
        assert track_rate(spec, spec.tracks[0], 6) == 1.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            plain_spec(tracks=(TrackSpec(0, 3, 20, TRACK.start_box, TRACK.end_box),))
        with pytest.raises(ValueError, match="class"):
            plain_spec(tracks=(TrackSpec(4, 3, 12, TRACK.start_box, TRACK.end_box),))
        with pytest.raises(ValueError, match="discontinuous"):
            plain_spec(tracks=(TrackSpec(0, 3, 4, (0.0, 0.0, 0.1, 0.1), (0.8, 0.8, 0.95, 0.95)),))
        with pytest.raises(ValueError, match="rate_noise must lie in"):
            plain_spec(rate_noise=-0.1)

    def test_from_dict_reads_every_field(self):
        data = {
            "n_frames": 14,
            "n_classes": 1,
            "tracks": [{"class_id": 0, "t_start": 3, "t_end": 12, "start_box": [0.2, 0.2, 0.5, 0.6],
                        "end_box": [0.35, 0.25, 0.65, 0.65]}],
            "geometry_jitter": 0.01,
            "rate_noise": 0.02,
            "in_score": [0.6, 0.9],
            "context_score": [0.1, 0.2],
            "context_fraction": 0.5,
            "context_rate": 0.1,
            "distractor_rate": 0.5,
            "distractor_score": [0.05, 0.25],
            "periodic": [True],
            "sawtooth_period": 4,
            "seed": 3,
            "video_id": "v7",
        }
        assert ScenarioSpec.from_dict(data) == ScenarioSpec(
            n_frames=14,
            n_classes=1,
            tracks=(TRACK,),
            geometry_jitter=0.01,
            rate_noise=0.02,
            in_score=(0.6, 0.9),
            context_score=(0.1, 0.2),
            context_fraction=0.5,
            context_rate=0.1,
            distractor_rate=0.5,
            distractor_score=(0.05, 0.25),
            periodic=(True,),
            sawtooth_period=4,
            seed=3,
            video_id="v7",
        )


MINIMAL = {
    "n_frames": 14,
    "n_classes": 1,
    "tracks": [{"class_id": 0, "t_start": 3, "t_end": 12, "start_box": [0.2, 0.2, 0.5, 0.6]}],
}


def with_track(**track):
    return {**MINIMAL, "tracks": [{**MINIMAL["tracks"][0], **track}]}


class TestScenarioChecks:
    """A scenario is checked when built, so ``synth`` never writes a record
    that ``link`` or ``eval`` rejects, and its JSON is read strictly."""

    @pytest.mark.parametrize(
        "data, message",
        [
            ({**MINIMAL, "sed": 3}, "unknown scenario key 'sed'"),
            (with_track(endbox=[0.2, 0.2, 0.5, 0.6]), "unknown track key 'endbox'"),
            ({**MINIMAL, "n_frames": "14"}, "scenario key 'n_frames' must be an integer, got '14'"),
            ({**MINIMAL, "seed": 1.9}, "scenario key 'seed' must be an integer, got 1.9"),
            ({**MINIMAL, "seed": True}, "scenario key 'seed' must be an integer, got True"),
            ({**MINIMAL, "periodic": ["false"]}, "scenario key 'periodic' must be a list of booleans, got ['false']"),
            ({**MINIMAL, "in_score": [0.5]}, "scenario key 'in_score' must be a (low, high) pair, got [0.5]"),
            ({**MINIMAL, "distractor_score": [0.3, 0.2]}, "scenario key 'distractor_score' must be a (low, high) pair"),
            ({**MINIMAL, "video_id": 7}, "scenario key 'video_id' must be a string, got 7"),
            ({**MINIMAL, "tracks": {}}, "scenario key 'tracks' must be a list of objects, got {}"),
            (with_track(start_box=[0.2, 0.2, 0.5]), "track key 'start_box' must be four numbers"),
            (with_track(t_end=12.0), "track key 't_end' must be an integer, got 12.0"),
            ({"n_frames": 14, "n_classes": 1}, "scenario key 'tracks' is missing"),
            ({**MINIMAL, "tracks": [{"class_id": 0, "t_start": 3, "t_end": 4}]}, "track key 'start_box' is missing"),
            ([MINIMAL], "scenario must be a JSON object"),
        ],
    )
    def test_from_dict_names_the_key(self, data, message):
        with pytest.raises(ValueError) as err:
            ScenarioSpec.from_dict(data)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({**MINIMAL, "in_score": [0.7, 2.0]}, "in_score must lie in [0, 1], got 2.0"),
            ({**MINIMAL, "context_score": [-0.1, 0.2]}, "context_score must lie in [0, 1], got -0.1"),
            ({**MINIMAL, "context_rate": 2}, "context_rate must lie in [0, 1], got 2"),
            ({**MINIMAL, "geometry_jitter": math.nan}, "geometry_jitter must lie in [0, inf), got nan"),
            ({**MINIMAL, "context_fraction": math.inf}, "context_fraction must lie in [0, inf), got inf"),
            ({**MINIMAL, "seed": -1}, "seed must lie in [0, inf), got -1"),
            ({**MINIMAL, "n_frames": 0}, "n_frames must lie in [1, inf), got 0"),
            (with_track(start_box=[0.5, 0.2, 1.4, 0.6]), "start_box must lie in [0, 1], got 1.4"),
            (with_track(end_box=[0.2, -0.1, 0.5, 0.6]), "end_box must lie in [0, 1], got -0.1"),
            (with_track(start_box=[0.5, 0.2, 0.2, 0.6]), "start_box (0.5, 0.2, 0.2, 0.6) is narrower"),
            (with_track(start_box=[0.2, 0.2, 0.2 + 1e-9, 0.6]), "start_box (0.2, 0.2, 0.200000001, 0.6) is narrower"),
            ({**MINIMAL, "video_id": "my clip"}, "video_id must be printable, without whitespace"),
            ({**MINIMAL, "video_id": "tab\tbed"}, "video_id must be printable, without whitespace"),
            ({**MINIMAL, "video_id": ""}, "video_id must be printable, without whitespace"),
            ({**MINIMAL, "video_id": "\ud800"}, "video_id must be printable, without whitespace"),
            ({**MINIMAL, "video_id": "vid\u00e9"}, "video_id must be printable, without whitespace, and ASCII"),
        ],
    )
    def test_spec_rejects_what_a_later_stage_would(self, data, message):
        with pytest.raises(ValueError) as err:
            ScenarioSpec.from_dict(data)
        assert str(err.value).startswith(message)

    def test_minimal_spec_builds_with_defaults(self):
        spec = ScenarioSpec.from_dict(MINIMAL)
        assert spec.tracks == (TrackSpec(0, 3, 12, (0.2, 0.2, 0.5, 0.6), (0.2, 0.2, 0.5, 0.6)),)
        assert (spec.video_id, spec.in_score, spec.periodic) == ("synthetic", (0.7, 1.0), ())


class TestOracleLink:
    def link_both(self, stream, n_classes, cfg):
        linker = AuditedLinker(n_classes, cfg, video_id=stream.video_id)
        for t in stream.ordered_frames():
            linker.step(t, stream.boxes_at(t))
        got = linker.finalize()
        want, want_audit = oracle_link(stream, n_classes, cfg, collect_audit=True)
        return got, linker.audit_log, want, built_audit(want_audit, min(stream.frames, default=None), cfg.max_tubes)

    def assert_equal(self, got, got_audit, want, want_audit):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.video_id, a.class_id, a.t_start, a.t_end, a.entries) == (
                b.video_id,
                b.class_id,
                b.t_start,
                b.t_end,
                b.entries,
            )
            assert a.score == pytest.approx(b.score, abs=1e-9)
        assert got_audit == want_audit

    def test_clean_single_track_identical(self):
        stream, _ = generate(plain_spec())
        self.assert_equal(*self.link_both(stream, 1, LinkerConfig(window=3, alphas=1.0)))

    def test_empty_stream_both_empty(self):
        stream = DetectionStream(video_id="empty", frames={1: [], 2: [], 3: []})
        got, _, want, _ = self.link_both(stream, 1, LinkerConfig())
        assert got == [] and want == []

    def test_stream_without_frames_both_empty(self):
        assert self.link_both(DetectionStream(video_id="none"), 1, LinkerConfig()) == ([], [], [], [])

    def test_randomized_differential(self):
        for seed in range(250):
            stream, n_classes, cfg = random_stream(seed)
            self.assert_equal(*self.link_both(stream, n_classes, cfg))


class TestPeriodicRegime:
    def test_sawtooth_with_tiny_alpha_matches_score_only(self):
        # A class whose rate resets every few frames cannot drive labeling;
        # its trade-off from a large training error (~0) routes everything
        # through scores, reproducing the score-only reference.
        alpha = alpha_from_training_error(1.0)
        assert alpha < 1e-40
        cfg = LinkerConfig(window=6, alphas=alpha)
        spec = ScenarioSpec(
            n_frames=40,
            n_classes=1,
            tracks=(TrackSpec(0, 5, 34, (0.2, 0.2, 0.5, 0.6), (0.35, 0.25, 0.65, 0.65)),),
            periodic=(True,),
            sawtooth_period=5,
            context_fraction=0.0,
            distractor_rate=0.0,
            seed=3,
        )
        stream, _ = generate(spec)
        linker = OnlineLinker(1, cfg, video_id=spec.video_id)
        for t in stream.ordered_frames():
            linker.step(t, stream.boxes_at(t))
        got = linker.finalize()
        want = score_only_link(stream, 1, cfg)
        assert got == want
        assert len(got) == 1  # the tube survives on confidence alone
