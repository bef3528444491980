"""Tests for the streaming extension (playback model, window policy,
viewer integration)."""

from random import Random

import pytest

from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.bt.swarm import Swarm
from repro.sim import Simulator
from repro.streaming import (
    PlaybackSession,
    PlayerState,
    make_streaming,
    streaming_metrics,
    windowed_piece_choice,
)
from repro.streaming.peers import StreamingConfig
from repro.workloads.arrivals import flash_crowd, schedule_arrivals


class TestPlaybackSession:
    def make(self, n=10, duration=1.0, buffer=3):
        sim = Simulator(seed=1)
        session = PlaybackSession(sim, n, piece_duration_s=duration,
                                  startup_buffer=buffer)
        session.begin(0.0)
        return sim, session

    def test_buffering_until_startup_threshold(self):
        sim, session = self.make(buffer=3)
        session.on_piece(0)
        session.on_piece(1)
        assert session.state is PlayerState.BUFFERING
        session.on_piece(2)
        assert session.state is PlayerState.PLAYING
        assert session.startup_latency_s == 0.0

    def test_startup_needs_contiguous_pieces(self):
        sim, session = self.make(buffer=2)
        session.on_piece(0)
        session.on_piece(5)  # not contiguous with the playhead
        assert session.state is PlayerState.BUFFERING
        session.on_piece(1)
        assert session.state is PlayerState.PLAYING

    def test_smooth_playback_finishes_on_time(self):
        sim, session = self.make(n=5, duration=2.0, buffer=1)
        for piece in range(5):
            session.on_piece(piece)
        sim.run()
        assert session.finished
        # 5 pieces x 2 s each, started at t=0
        assert session.finished_at == pytest.approx(10.0)
        assert session.stall_count == 0
        assert session.continuity_index() == pytest.approx(1.0)

    def test_missing_piece_stalls_and_resumes(self):
        sim, session = self.make(n=3, duration=1.0, buffer=1)
        session.on_piece(0)          # playback starts at t=0
        sim.run(until=1.0)           # consume piece 0, piece 1 missing
        assert session.state is PlayerState.STALLED
        assert session.stall_count == 1
        sim.schedule(2.0, session.on_piece, 1)
        sim.schedule(2.0, session.on_piece, 2)
        sim.run()
        assert session.finished
        assert session.total_stall_s == pytest.approx(2.0)
        assert session.continuity_index() < 1.0

    def test_startup_latency_measured_from_begin(self):
        sim = Simulator()
        session = PlaybackSession(sim, 4, startup_buffer=1)
        session.begin(5.0)
        sim.schedule(8.0, session.on_piece, 0)
        sim.run(until=8.0)
        assert session.startup_latency_s == pytest.approx(3.0)

    def test_stall_time_counts_ongoing_stall(self):
        sim, session = self.make(n=3, buffer=1)
        session.on_piece(0)
        sim.run(until=4.0)  # stalled since t=1
        assert session.stall_time_s(4.0) == pytest.approx(3.0)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PlaybackSession(sim, 0)
        with pytest.raises(ValueError):
            PlaybackSession(sim, 5, startup_buffer=0)
        session = PlaybackSession(sim, 5)
        with pytest.raises(IndexError):
            session.on_piece(9)

    def test_buffer_clamped_to_stream_length(self):
        sim = Simulator()
        session = PlaybackSession(sim, 2, startup_buffer=10)
        session.begin(0.0)
        session.on_piece(0)
        session.on_piece(1)
        assert session.state is PlayerState.PLAYING


class TestWindowPolicy:
    def test_in_window_earliest_first(self):
        rng = Random(1)
        piece = windowed_piece_choice({3, 5, 9}, playhead=3, window=4,
                                      neighbor_books=[], rng=rng)
        assert piece == 3

    def test_out_of_window_falls_back_to_lrf(self):
        rng = Random(1)
        piece = windowed_piece_choice(
            {8, 9}, playhead=0, window=4,
            neighbor_books=[{8}, {8}], rng=rng)
        assert piece == 9  # rarer

    def test_empty(self):
        assert windowed_piece_choice(set(), 0, 4, [],
                                     Random(1)) is None

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windowed_piece_choice({1}, 0, -1, [], Random(1))


def streaming_swarm(protocol="tchain", viewers=12, pieces=24, seed=5,
                    config=StreamingConfig(piece_duration_s=1.0,
                                           startup_buffer=2,
                                           window=6)):
    swarm_config = SwarmConfig(n_pieces=pieces, piece_size_kb=64.0,
                               seed=seed)
    swarm = Swarm(swarm_config)
    seeder_cls, leecher_cls = PROTOCOLS[protocol]
    seeder_cls(swarm).join()
    viewer_cls = make_streaming(leecher_cls, config)
    population = []

    def factory():
        viewer = viewer_cls(swarm)
        population.append(viewer)
        return viewer

    schedule_arrivals(swarm, flash_crowd([factory] * viewers,
                                         swarm.sim.rng))
    swarm.run(max_time=2000.0)
    return swarm, population


class TestStreamingViewers:
    def test_factory_cached(self):
        _, leecher_cls = PROTOCOLS["tchain"]
        assert make_streaming(leecher_cls) is \
            make_streaming(leecher_cls)

    def test_all_viewers_finish_playback(self):
        swarm, viewers = streaming_swarm()
        report = streaming_metrics(viewers, swarm.sim.now)
        assert report.finished == report.viewers
        assert report.mean_continuity > 0.8

    def test_viewers_seed_while_watching(self):
        """A viewer that finished downloading stays in the swarm until
        playback ends (and uploads meanwhile)."""
        swarm, viewers = streaming_swarm()
        for viewer in viewers:
            assert viewer.leave_time >= viewer.session.finished_at \
                or viewer.session.finished

    def test_startup_latency_reported(self):
        swarm, viewers = streaming_swarm()
        report = streaming_metrics(viewers, swarm.sim.now)
        assert report.mean_startup_s is not None
        assert report.mean_startup_s > 0

    def test_works_on_bittorrent_too(self):
        swarm, viewers = streaming_swarm(protocol="bittorrent")
        report = streaming_metrics(viewers, swarm.sim.now)
        assert report.finished == report.viewers

    def test_playhead_prioritized(self):
        """Viewers fetch in play order near the playhead, so early
        pieces complete before late ones on average."""
        swarm, viewers = streaming_swarm()
        early_late = []
        for viewer in viewers:
            times = {}
            for t, piece, kind in viewer.piece_log:
                if kind == "decrypted" and piece not in times:
                    times[piece] = t
            if len(times) >= 8:
                pieces = sorted(times)
                early = sum(times[p] for p in pieces[:4]) / 4
                late = sum(times[p] for p in pieces[-4:]) / 4
                early_late.append((early, late))
        assert early_late
        # Statistical, not absolute: prefetch and donor-chosen
        # bootstrap pieces can land a few late pieces early.
        ordered = sum(1 for early, late in early_late if early <= late)
        assert ordered >= 0.8 * len(early_late)
        mean_early = sum(e for e, _ in early_late) / len(early_late)
        mean_late = sum(l for _, l in early_late) / len(early_late)
        assert mean_early < mean_late

    def test_streaming_under_freeriders(self):
        """QoE survives 25% free-riders under T-Chain."""
        from repro.attacks import FreeRiderOptions, make_freerider
        swarm_config = SwarmConfig(n_pieces=24, piece_size_kb=64.0,
                                   seed=6)
        swarm = Swarm(swarm_config)
        seeder_cls, leecher_cls = PROTOCOLS["tchain"]
        seeder_cls(swarm).join()
        viewer_cls = make_streaming(leecher_cls)
        fr_cls = make_freerider(leecher_cls, FreeRiderOptions())
        viewers = []

        def viewer_factory():
            viewer = viewer_cls(swarm)
            viewers.append(viewer)
            return viewer

        factories = [viewer_factory] * 15 \
            + [lambda: fr_cls(swarm)] * 5
        swarm.sim.rng.shuffle(factories)
        schedule_arrivals(swarm, flash_crowd(factories, swarm.sim.rng))
        swarm.run(max_time=2000.0)
        report = streaming_metrics(viewers, swarm.sim.now)
        assert report.finished == report.viewers
        assert report.mean_continuity > 0.7


class TestStreamingMetricsEdges:
    def test_empty_population(self):
        from repro.sim import Simulator
        report = streaming_metrics([], now=0.0)
        assert report.viewers == 0
        assert report.mean_startup_s is None
        assert report.mean_continuity == 0.0

    def test_unstarted_sessions_excluded_from_qoe(self):
        from repro.sim import Simulator

        class FakeViewer:
            def __init__(self, sim):
                self.session = PlaybackSession(sim, 4)

        sim = Simulator()
        viewers = [FakeViewer(sim)]
        viewers[0].session.begin(0.0)
        report = streaming_metrics(viewers, now=10.0)
        assert report.viewers == 1
        assert report.finished == 0
        assert report.mean_startup_s is None


class TestStarvationReannounce:
    def test_starving_peer_reannounces(self):
        """A peer whose neighbors hold nothing it wants goes back to
        the tracker on its re-scan tick (eclipse recovery)."""
        from repro.bt.config import SwarmConfig
        from repro.bt.swarm import Swarm
        from repro.bt.protocols import PROTOCOLS
        swarm = Swarm(SwarmConfig(n_pieces=8, seed=2))
        _, leecher_cls = PROTOCOLS["bittorrent"]
        a = leecher_cls(swarm)
        a.join()
        b = leecher_cls(swarm)
        b.join()
        # nobody has anything: both starve and should re-announce
        before = swarm.tracker.announce_count
        swarm.sim.run(until=25.0)
        assert swarm.tracker.announce_count > before
