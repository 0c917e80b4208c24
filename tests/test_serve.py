"""Tests for repro.serve: the crash-tolerant long-lived service mode.

Covers the ServiceRunner's streaming loop, the chained service digest,
mid-run reconfiguration commands, the supervisor's bounded
restart/backoff schedule, the stall watchdog, invariant-violation
quarantine with crash escalation, the kill/recover soak harness's
digest-identity verdict, and recovery from a checkpoint written by an
earlier version.  Checkpoint *file* defects (truncation,
corruption, version skew) live in ``test_serve_recovery.py``.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.packet import Packet
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    InvariantViolation,
    ServiceCrash,
    ServiceStall,
)
from repro.faults.checkpoint import save_checkpoint
from repro.obs import CallbackSink, DequeueEvent
from repro.serve import (
    DigestTrace,
    ServiceRunner,
    Supervisor,
    build_service_spec,
    run_soak,
    supervise,
)
from repro.serve.soak import InjectedKill

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def small_spec(flows=4, rate=1e6, duration=0.5, seed=7):
    return build_service_spec(flows=flows, rate=rate, duration=duration,
                              seed=seed, waves=2)


# ----------------------------------------------------------------------
# DigestTrace
# ----------------------------------------------------------------------
class TestDigestTrace:
    def test_seeded_and_deterministic(self):
        a, b = DigestTrace(), DigestTrace()
        assert a.digest == b.digest
        assert a.rows == 0

    def test_snapshot_restore_resumes_chain(self):
        spec = small_spec()
        full = ServiceRunner(spec)
        full.run_to(0.5)
        assert full.trace.rows > 0

        head = ServiceRunner(spec)
        head.run_to(0.2)
        snap = head.trace.snapshot()
        resumed = DigestTrace()
        resumed.restore(snap)
        assert resumed.digest == head.trace.digest
        assert resumed.rows == head.trace.rows

    def test_last_active_tracks_flows(self):
        runner = ServiceRunner(small_spec())
        runner.run_to(0.3)
        active = runner.trace.last_active
        assert active and all(t <= runner.now for t in active.values())


# ----------------------------------------------------------------------
# Streaming loop determinism
# ----------------------------------------------------------------------
class TestStreamingLoop:
    def test_slice_boundaries_do_not_change_digest(self):
        """Serving in many small advances == one run_to: the digest is a
        property of the served schedule, not of how the loop was driven."""
        spec = small_spec()
        one = ServiceRunner(spec)
        one.run_to(0.5)

        many = ServiceRunner(spec)
        while many.now < 0.5:
            many.advance(0.01)
        assert many.digest == one.digest
        assert many.trace.rows == one.trace.rows

    def test_checkpoint_cadence_does_not_change_digest(self):
        spec = small_spec()
        plain = ServiceRunner(spec)
        plain.run_to(0.5)

        chatty = ServiceRunner(spec, checkpoint_every=0.03)
        chatty.run_to(0.5)
        assert chatty.digest == plain.digest
        assert chatty.checkpoints_written > 5

    def test_advance_negative_rejected(self):
        runner = ServiceRunner(small_spec())
        with pytest.raises(ConfigurationError):
            runner.advance(-0.1)

    def test_nan_advance_and_cadence_rejected(self):
        runner = ServiceRunner(small_spec())
        with pytest.raises(ConfigurationError):
            runner.advance(float("nan"))
        assert runner.now == 0.0
        with pytest.raises(ConfigurationError):
            ServiceRunner(small_spec(), checkpoint_every=float("nan"))

    def test_nan_run_to_rejected(self):
        # In a child with a timeout: an unguarded run_to(nan) never ends.
        code = textwrap.dedent("""
            from repro.errors import ConfigurationError
            from repro.serve import ServiceRunner, build_service_spec

            runner = ServiceRunner(build_service_spec(flows=4, duration=0.5))
            runner.run_to(0.01)
            try:
                runner.run_to(float("nan"))
            except ConfigurationError:
                print("rejected", runner.now)
            runner.run_to(0.005)  # a target in the past fires nothing
            print("past", runner.now)
        """)
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=30,
                             env=dict(os.environ, PYTHONPATH=SRC))
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["rejected", "0.01", "past", "0.01"]

    def test_network_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceRunner({"kind": "network", "cell": "n"})

    def test_status_snapshot_is_live(self):
        runner = ServiceRunner(small_spec(), checkpoint_every=0.1)
        runner.run_to(0.4)
        status = runner.status()
        assert status["clock"] == runner.now
        assert status["rows"] == runner.trace.rows
        assert status["conservation_balanced"]
        assert status["checkpoints_written"] == runner.checkpoints_written
        assert "WF2Q+" in runner.metrics_report() or runner.metrics_report()

    def test_inject_external_packet(self):
        runner = ServiceRunner(small_spec())
        runner.run_to(0.1)
        assert runner.inject(Packet("f0000", 8000.0)) is True


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
class TestCommands:
    def test_set_share_mutates_live_and_spec(self):
        runner = ServiceRunner(small_spec())
        runner.run_to(0.1)
        runner.submit("set_share", flow="f0000", share=9)
        runner.run_to(0.2)
        assert dict(runner.spec["scheduler"]["flows"])["f0000"] == 9
        assert runner.link.scheduler._flows["f0000"].config.share == 9
        assert runner.commands_applied == 1

    def test_set_link_rate(self):
        runner = ServiceRunner(small_spec())
        runner.submit("set_link_rate", rate=2e6)
        runner.run_to(0.2)
        assert runner.spec["scheduler"]["rate"] == 2e6
        assert runner.link.rate == 2e6

    def test_attach_flow_and_source(self):
        runner = ServiceRunner(small_spec())
        runner.run_to(0.1)
        runner.submit("attach", flow="late", share=2)
        runner.submit("add_source", source={
            "type": "cbr", "flow": "late", "length": 8000.0,
            "rate": 1e5, "start": 0.0, "stop": 0.4})
        runner.run_to(0.5)
        assert "late" in runner.link.scheduler.flow_ids
        assert any(s["flow"] == "late" for s in runner.spec["sources"])
        # The past start time was clamped to the apply boundary.
        late = [s for s in runner.spec["sources"] if s["flow"] == "late"]
        assert late[0]["start"] >= 0.1
        assert runner.trace.last_active.get("late") is not None

    def test_detach_drains_then_removes(self):
        runner = ServiceRunner(small_spec())
        runner.run_to(0.1)
        runner.submit("detach", flow="f0000")
        runner.run_to(0.5)
        assert "f0000" not in runner.link.scheduler.flow_ids
        assert "f0000" in runner.spec["scheduler"]["detached"]
        assert not any(s["flow"] == "f0000" for s in runner.spec["sources"])
        assert "f0000" in runner.quarantined  # detach completion ledger
        # The id is retired: re-attaching (or feeding) it is refused.
        runner.submit("attach", flow="f0000", share=1)
        with pytest.raises(ConfigurationError):
            runner.apply_pending()
        runner.submit("add_source", source={
            "type": "cbr", "flow": "f0000", "length": 1000.0, "rate": 1e4})
        with pytest.raises(ConfigurationError):
            runner.apply_pending()

    def test_fault_command_must_be_future(self):
        runner = ServiceRunner(small_spec())
        runner.run_to(0.2)
        runner.submit("fault", time=0.1, fault_kind="link_rate", value=1e5)
        with pytest.raises(ConfigurationError):
            runner.apply_pending()

    def test_fault_command_applies_and_persists(self):
        runner = ServiceRunner(small_spec())
        runner.submit("fault", time=0.2, fault_kind="link_rate", value=5e5)
        runner.run_to(0.4)
        assert runner.link.rate == 5e5
        assert (0.2, "link_rate", None, 5e5) in runner.spec["faults"]

    def test_unknown_command_rejected(self):
        runner = ServiceRunner(small_spec())
        runner.submit("frobnicate")
        with pytest.raises(ConfigurationError):
            runner.apply_pending()

    def test_commands_survive_recovery(self, tmp_path):
        """Applied commands live in the effective spec, so a recovery
        rebuilds the post-command world without a command log."""
        spec = small_spec()
        runner = ServiceRunner(spec, checkpoint_dir=tmp_path,
                               checkpoint_every=0.05)
        runner.run_to(0.1)
        runner.submit("set_share", flow="f0001", share=7)
        runner.submit("set_link_rate", rate=3e6)
        runner.run_to(0.3)

        revived = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        assert dict(revived.spec["scheduler"]["flows"])["f0001"] == 7
        assert revived.spec["scheduler"]["rate"] == 3e6
        assert revived.link.rate == 3e6
        revived.run_to(0.5)
        runner.run_to(0.5)
        assert revived.digest == runner.digest


# ----------------------------------------------------------------------
# Kill + recover == uninterrupted
# ----------------------------------------------------------------------
class TestRecoveryDigest:
    def test_recovered_digest_matches_uninterrupted(self, tmp_path):
        spec = small_spec()
        baseline = ServiceRunner(spec, checkpoint_every=0.05)
        baseline.run_to(0.5)

        victim = ServiceRunner(spec, checkpoint_dir=tmp_path,
                               checkpoint_every=0.05)
        victim.run_to(0.27)  # dies between checkpoint boundaries
        del victim

        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        assert survivor.now < 0.27  # resumed from the last boundary
        assert survivor.recoveries == 1
        assert [e.category for e in survivor.incidents] == ["crash-recovered"]
        survivor.run_to(0.5)
        assert survivor.digest == baseline.digest
        assert survivor.trace.rows == baseline.trace.rows
        assert survivor.link.scheduler.conservation()["balanced"]

    def test_recover_empty_dir_raises_missing(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            ServiceRunner.recover(tmp_path / "nothing-here")
        assert err.value.reason == "missing"


# ----------------------------------------------------------------------
# Checkpoints written by earlier versions
# ----------------------------------------------------------------------
#: A serve checkpoint payload as earlier versions wrote it, taken at the
#: t=0.02 boundary (one packet in flight) of
#: ``build_service_spec(flows=2, rate=1e6, duration=0.05, seed=3,
#: waves=2)`` with ``checkpoint_every=0.01``.  Its scheduler spec still
#: carries ``"backend": "exact"``, which every such checkpoint did.
LEGACY_CHECKPOINT = {
    "kind": "serve",
    "spec": {
        "cell": "serve-soak", "kind": "flat",
        "scheduler": {
            "kind": "flat", "policy": "wf2qplus", "rate": 1000000.0,
            "flows": [("f0000", 1), ("f0001", 2)], "backend": "exact",
        },
        "sources": [
            {
                "type": "cbr", "flow": "f0000", "length": 8000.0,
                "rate": 900000.0, "start": 0.0005949115677297285,
                "stop": 0.020594911567729732,
            },
            {
                "type": "cbr", "flow": "f0001", "length": 8000.0,
                "rate": 900000.0, "start": 0.02636057306323988,
                "stop": 0.04636057306323989,
            },
        ],
        "faults": [],
    },
    "clock": 0.02,
    "link": {
        "transmitting": True, "paused": False, "bits_sent": 16000.0,
        "packets_sent": 2, "packets_dropped": 0, "busy_time": 0.016,
        "current": {
            "packet": {
                "uid": 2, "flow_id": "f0000", "length": 8000.0,
                "arrival_time": 0.018372689345507506, "seqno": 2,
                "payload": None,
            },
            "start_time": 0.018372689345507506,
            "finish_time": 0.026372689345507506, "virtual_start": 0,
            "virtual_finish": 0.024,
        },
        "scheduler": {
            "scheduler": "WF2Q+", "rate": 1000000.0,
            "clock": 0.018372689345507506, "free_at": 0.026372689345507506,
            "tag_epoch": 3, "next_flow_index": 2, "arrivals": 3, "enqueues": 3,
            "dequeues": 3, "drops": {}, "drops_total": 0, "drops_lifetime": 0,
            "backlog_packets": 0, "backlog_bits": 0.0, "buffer_limits": {},
            "drop_policies": {}, "shared_limit": None, "shared_policy": "tail",
            "batch_calls": 0, "batch_packets": 0,
            "batch_hist": [0, 0, 0, 0, 0],
            "flows": {
                "f0000": {
                    "queue": [], "start_tag": 0, "finish_tag": 0.024,
                    "bits_queued": 0.0, "index": 0, "tag_epoch": 3, "share": 1,
                },
                "f0001": {
                    "queue": [], "start_tag": 0, "finish_tag": 0,
                    "bits_queued": 0, "index": 1, "tag_epoch": 0, "share": 2,
                },
            },
            "evicted": {},
            "extra": {
                "virtual": 0.0, "virtual_stamp": 0.018372689345507506,
                "eligible": {"seq": 3, "entries": []},
                "ineligible": {"seq": 0, "entries": []},
            },
        },
    },
    "sources": [
        {
            "flow_id": "f0000", "packets_sent": 3, "bits_sent": 24000.0,
            "pending_time": 0.027261578234396393, "timetable": [],
            "timetable_idx": 0, "extra": None,
        },
        {
            "flow_id": "f0001", "packets_sent": 0, "bits_sent": 0,
            "pending_time": 0.02636057306323988, "timetable": [],
            "timetable_idx": 0, "extra": None,
        },
    ],
    "digest": {
        "digest": ("83833a06fcea7636d9b3c81e6dda16fa"
                   "35a38408286de26fc63fef41b7652d4c"),
        "rows": 2, "arrivals": 3,
        "last_active": {"f0000": 0.018372689345507506},
    },
    "ingress": {"blocked": [], "dropped": 0},
    "quarantine": {"pending": [], "done": []},
    "stats": {"commands": 0, "checkpoints": 1, "recoveries": 0},
}

#: The digest of that workload run uninterrupted to t=0.05 (5 rows).
LEGACY_FINAL_DIGEST = ("397c7a1661174b5e504960b3e1a68079"
                       "7d28a3aa8502075ffa508ff7e6b59c6e")


class TestLegacyCheckpoint:
    def spec(self):
        return build_service_spec(flows=2, rate=1e6, duration=0.05, seed=3,
                                  waves=2)

    def test_spec_no_longer_names_a_backend(self):
        spec = self.spec()
        assert "backend" not in spec["scheduler"]
        legacy = LEGACY_CHECKPOINT["spec"]
        assert {**spec["scheduler"], "backend": "exact"} == legacy["scheduler"]

    def test_recovers_and_continues_to_the_uninterrupted_digest(
            self, tmp_path):
        save_checkpoint(tmp_path / "ckpt-00000002.bin", LEGACY_CHECKPOINT)
        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.01)
        assert survivor.now == 0.02
        assert survivor.trace.rows == 2
        survivor.run_to(0.05)

        baseline = ServiceRunner(self.spec(), checkpoint_every=0.01)
        baseline.run_to(0.05)
        assert baseline.digest == LEGACY_FINAL_DIGEST
        assert survivor.digest == baseline.digest
        assert survivor.trace.rows == baseline.trace.rows == 5
        assert survivor.link.scheduler.conservation()["balanced"]


#: A serve checkpoint payload written when sources pre-drew their
#: arrival times, taken at the t=0.03 boundary of
#: ``build_service_spec(flows=2, rate=1e6, duration=0.1, seed=3,
#: waves=1)`` with ``checkpoint_every=0.01``.  Each CBR source still owes
#: one pre-drawn time after its pending emission.
PARENT_TIMETABLE_CHECKPOINT = {
    "kind": "serve",
    "spec": {
        "cell": "serve-soak", "kind": "flat",
        "scheduler": {
            "kind": "flat", "policy": "wf2qplus", "rate": 1000000.0,
            "flows": [("f0000", 1), ("f0001", 2)],
        },
        "sources": [
            {
                "type": "cbr", "flow": "f0000", "length": 8000.0,
                "rate": 450000.0, "start": 0.002379646270918914,
                "stop": 0.08237964627091893,
            },
            {
                "type": "cbr", "flow": "f0001", "length": 8000.0,
                "rate": 450000.0, "start": 0.005442292252959519,
                "stop": 0.08544229225295953,
            },
        ],
        "faults": [],
    },
    "clock": 0.03,
    "link": {
        "transmitting": True, "paused": False, "bits_sent": 24000.0,
        "packets_sent": 3, "packets_dropped": 0, "busy_time": 0.024,
        "current": {
            "packet": {
                "uid": 3, "flow_id": "f0001", "length": 8000.0,
                "arrival_time": 0.023220070030737297, "seqno": 1,
                "payload": None,
            },
            "start_time": 0.028157424048696693,
            "finish_time": 0.03615742404869669,
            "virtual_start": 0.0030626459820406043,
            "virtual_finish": 0.015062645982040605,
        },
        "scheduler": {
            "scheduler": "WF2Q+", "rate": 1000000.0,
            "clock": 0.028157424048696693, "free_at": 0.03615742404869669,
            "tag_epoch": 2, "next_flow_index": 2, "arrivals": 4, "enqueues": 4,
            "dequeues": 4, "drops": {}, "drops_total": 0, "drops_lifetime": 0,
            "backlog_packets": 0, "backlog_bits": 0.0, "buffer_limits": {},
            "drop_policies": {}, "shared_limit": None, "shared_policy": "tail",
            "batch_calls": 0, "batch_packets": 0,
            "batch_hist": [0, 0, 0, 0, 0],
            "flows": {
                "f0000": {
                    "queue": [], "start_tag": 0, "finish_tag": 0.024,
                    "bits_queued": 0.0, "index": 0, "tag_epoch": 2, "share": 1,
                },
                "f0001": {
                    "queue": [], "start_tag": 0.0030626459820406043,
                    "finish_tag": 0.015062645982040605, "bits_queued": 0.0,
                    "index": 1, "tag_epoch": 2, "share": 2,
                },
            },
            "evicted": {},
            "extra": {
                "virtual": 0.008, "virtual_stamp": 0.028157424048696693,
                "eligible": {"seq": 4, "entries": []},
                "ineligible": {"seq": 0, "entries": []},
            },
        },
    },
    "sources": [
        {
            "flow_id": "f0000", "packets_sent": 2, "bits_sent": 16000.0,
            "pending_time": 0.037935201826474474,
            "timetable": [0.055712979604252255], "timetable_idx": 0,
            "extra": None,
        },
        {
            "flow_id": "f0001", "packets_sent": 2, "bits_sent": 16000.0,
            "pending_time": 0.04099784780851508,
            "timetable": [0.05877562558629286], "timetable_idx": 0,
            "extra": None,
        },
    ],
    "digest": {
        "digest": ("065b749aadd77b7d9f23ddc935ae3795"
                   "c0a0f5d4d9e5811c806a59fc3f1edaf7"),
        "rows": 3, "arrivals": 4,
        "last_active": {"f0000": 0.028157424048696693,
                        "f0001": 0.023220070030737297},
    },
    "ingress": {"blocked": [], "dropped": 0},
    "quarantine": {"pending": [], "done": []},
    "stats": {"commands": 0, "checkpoints": 2, "recoveries": 0},
}

#: The digest of that workload run uninterrupted to t=0.1 (10 rows).
PARENT_TIMETABLE_FINAL_DIGEST = ("53c0185c11faa4f43f3249459c5111c0"
                                 "ae8706d98748325ed2178db6ebeb395e")


class TestParentTimetableCheckpoint:
    def test_recovers_and_continues_to_the_uninterrupted_digest(
            self, tmp_path):
        save_checkpoint(tmp_path / "ckpt-00000003.bin",
                        PARENT_TIMETABLE_CHECKPOINT)
        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.01)
        assert survivor.now == 0.03
        assert [s.snapshot()["timetable"] for s in survivor.sources] == [
            [0.055712979604252255], [0.05877562558629286]]
        survivor.run_to(0.1)

        spec = build_service_spec(flows=2, rate=1e6, duration=0.1, seed=3,
                                  waves=1)
        baseline = ServiceRunner(spec, checkpoint_every=0.01)
        baseline.run_to(0.1)
        assert baseline.digest == PARENT_TIMETABLE_FINAL_DIGEST
        assert survivor.digest == baseline.digest
        assert survivor.trace.rows == baseline.trace.rows == 10
        assert [s.packets_sent for s in survivor.sources] == [5, 5]
        assert survivor.link.scheduler.conservation()["balanced"]


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_restarts_with_exponential_backoff(self, tmp_path):
        spec = small_spec()
        sleeps = []
        kills = iter([0.18, 0.31])

        def work(runner):
            cut = next(kills, None)
            if cut is not None and runner.now < cut:
                runner.run_to(cut)
                raise InjectedKill(f"t={cut}")
            runner.run_to(0.5)
            return runner

        result, sup = supervise(
            spec, work, tmp_path, max_restarts=3, backoff=0.2,
            sleep=sleeps.append, checkpoint_every=0.05)
        assert sup.restarts == 2
        assert sleeps == [0.2, 0.4]  # backoff * 2**(restart-1)
        assert len(sup.failures) == 2
        assert result.now == 0.5

        uninterrupted = ServiceRunner(spec, checkpoint_every=0.05)
        uninterrupted.run_to(0.5)
        assert result.digest == uninterrupted.digest

    def test_exhausted_budget_wraps_in_service_crash(self):
        boom = RuntimeError("always dies")

        def work(_runner):
            raise boom

        sup = Supervisor(lambda: object(), lambda: object(),
                         max_restarts=2, backoff=0.1, sleep=lambda _s: None)
        with pytest.raises(ServiceCrash) as err:
            sup.run(work)
        assert err.value.__cause__ is boom
        assert sup.restarts == 2
        assert len(sup.failures) == 3  # initial + two retries

    def test_base_exceptions_pass_through(self):
        def work(_runner):
            raise KeyboardInterrupt

        sup = Supervisor(lambda: object(), lambda: object(),
                         sleep=lambda _s: None)
        with pytest.raises(KeyboardInterrupt):
            sup.run(work)
        assert sup.restarts == 0


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
class FakeWall:
    """A wall clock that leaps 1s per reading: every budget check after
    the first concludes the wall budget is spent."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestWatchdog:
    def _poisoned(self, stall_at, **opts):
        runner = ServiceRunner(small_spec(), stall_wall=0.5,
                               wall_clock=FakeWall(), **opts)

        def poison():
            runner.sim.schedule(stall_at, poison)

        runner.sim.schedule(stall_at, poison)
        return runner

    def test_stall_raises_after_wall_budget(self):
        runner = self._poisoned(0.2)
        with pytest.raises(ServiceStall):
            runner.run_to(0.5)
        assert runner.now == 0.2  # true progress point, not the horizon
        stalls = [e for e in runner.incidents if e.category == "stall"]
        assert len(stalls) == 1 and "0.2" in stalls[0].detail

    def test_progress_renews_the_budget(self):
        """A slow-but-progressing run exhausts many wall budgets yet never
        stalls: the watchdog only fires when simulated time is stuck."""
        runner = ServiceRunner(small_spec(), stall_wall=0.5,
                               wall_clock=FakeWall())
        runner.run_to(0.5)
        assert runner.now == 0.5
        assert not [e for e in runner.incidents if e.category == "stall"]


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
def tripwire(flow, after):
    """A sink raising an InvariantViolation naming ``flow`` once the
    service clock passes ``after`` — a stand-in for a real checker trip."""

    def fn(event):
        if (isinstance(event, DequeueEvent) and event.flow_id == flow
                and event.time >= after):
            raise InvariantViolation(
                "tripwire", f"injected violation on {flow}", event=event)

    return CallbackSink(fn)


class TestQuarantine:
    def test_offending_flow_quarantined_service_continues(self):
        incidents = []
        runner = ServiceRunner(small_spec(), checkpoint_every=0.05,
                               on_incident=incidents.append)
        runner.link.attach_observer(tripwire("f0001", 0.18))
        runner.run_to(0.5)

        categories = [e.category for e in incidents]
        assert categories.count("quarantine") == 1
        quarantine = next(e for e in incidents if e.category == "quarantine")
        assert quarantine.target == "f0001"
        assert "tripwire" in quarantine.detail
        # Blocklisted at ingress, sources dropped, eventually detached.
        assert runner.inject(Packet("f0001", 1000.0)) is False
        assert runner.status()["ingress_dropped"] == 1
        assert not any(s["flow"] == "f0001" for s in runner.spec["sources"])
        assert "f0001" in runner.quarantined
        assert "f0001" not in runner.link.scheduler.flow_ids
        # Everyone else kept being served past the violation point.
        assert runner.now == 0.5
        assert runner.trace.rows > 0
        assert runner.link.scheduler.conservation()["balanced"]

    def test_quarantined_run_equals_world_without_the_flow(self):
        """Rollback-and-replay-minus-flow: after the quarantine point the
        service behaves as a checkpoint-rebuilt world without the flow."""
        runner = ServiceRunner(small_spec(), checkpoint_every=0.05)
        runner.link.attach_observer(tripwire("f0001", 0.18))
        runner.run_to(0.5)
        assert "f0001" in runner.status()["ingress_blocked"]
        # The effective spec no longer feeds the flow; a recovery-shaped
        # rebuild from the live payload must agree with the survivor.
        resumed = ServiceRunner(runner._last_payload["spec"],
                                checkpoint_every=0.05,
                                _restore=runner._last_payload)
        resumed.run_to(0.5)
        assert resumed.digest == runner.digest

    def test_anonymous_violation_escalates_to_crash(self):
        def fn(event):
            if isinstance(event, DequeueEvent) and event.time >= 0.15:
                raise InvariantViolation("tripwire", "no flow named")

        runner = ServiceRunner(small_spec(), checkpoint_every=0.05)
        runner.link.attach_observer(CallbackSink(fn))
        with pytest.raises(ServiceCrash):
            runner.run_to(0.5)
        assert [e.category for e in runner.incidents] == ["crash"]

    def test_repeat_offender_escalates_to_crash(self):
        """A violation re-naming an already-blocked flow means the replay
        deterministically re-trips: crash, don't loop."""
        runner = ServiceRunner(small_spec(), checkpoint_every=0.05)
        runner.run_to(0.1)
        runner._blocked.add("f0000")
        event = DequeueEvent(0.1, "wf2q+", "f0000", 1, 1000.0, 0.0, 0.1,
                             0.101, 0.0, 0.001, 0.0, True, 0)
        with pytest.raises(ServiceCrash):
            runner._quarantine(
                InvariantViolation("tripwire", "again", event=event))


# ----------------------------------------------------------------------
# Soak harness
# ----------------------------------------------------------------------
class TestSoak:
    def test_soak_verdict_ok_and_digest_identical(self, tmp_path):
        result = run_soak(flows=8, duration=0.5, kills=3, seed=3,
                          idle_ttl=0.2, directory=tmp_path)
        assert result["ok"], result
        assert result["digest_baseline"] == result["digest_recovered"]
        assert result["rows_baseline"] == result["rows_recovered"] > 0
        assert result["restarts"] == 3
        assert len(result["kills"]) == 3
        # recoveries is checkpoint-persisted state: kills landing inside
        # one checkpoint interval collapse in the surviving lineage.
        assert 1 <= result["recoveries"] <= 3
        assert result["bad_incidents"] == []
        assert result["conservation_ok"]
        assert 0 < result["peak_live_flows"] <= result["flows"]

    def test_soak_rejects_unworkable_cadence(self):
        with pytest.raises(ValueError):
            run_soak(flows=4, duration=0.1, kills=1, checkpoint_every=0.06)
        with pytest.raises(ValueError):
            run_soak(flows=4, duration=0.5, kills=0)

    def test_build_service_spec_deterministic(self):
        assert build_service_spec(seed=5) == build_service_spec(seed=5)
        assert build_service_spec(seed=5) != build_service_spec(seed=6)
