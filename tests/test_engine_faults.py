"""Chaos suite: deterministic fault injection against the batch layer.

Every fault test here arms a :mod:`repro.devtools.faults` plan —
in-process or through :envvar:`REPRO_FAULTS` for worker processes — and
asserts the engine's fault-tolerance contract: batches complete in
request order, failures are isolated to their request as structured
error reports, crash recovery is bounded and accounted for, no
shared-memory segment outlives the engine, and no worker outlives a
parent killed mid-batch.  The lane dispatch tests pin which lane runs
each request of a batch.  Nothing in this file depends on timing races:
faults are keyed on request tags, so the same request fails the same way
every run, and the dispatch tests hold lanes with tagged hangs, so which
lane finishes first does not change where a repeat runs.  The one wait
is the idle-orphan test's second before its kill, which only has to
outlast the batch parent's first two sends.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import (
    STATUS_ABORTED,
    STATUS_ERROR,
    STATUS_OK,
    GraphSpec,
    MBBEngine,
    PreparedGraphCache,
    RetryPolicy,
    SolveRequest,
)
from repro.api.engine import _choose_request
from repro.api.request import (
    ERROR_KIND_INJECTED_FAULT,
    ERROR_KIND_TIMEOUT,
    ERROR_KIND_WORKER_CRASH,
)
from repro.devtools import faults
from repro.devtools.faults import (
    ACTION_EXIT,
    ACTION_HANG,
    ACTION_RAISE,
    MAX_HANG_SECONDS,
    SCOPE_WORKER,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.exceptions import InvalidParameterError


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    faults.disarm()


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


def _assert_no_new_shm_segments(before, deadline_seconds=5.0):
    """Assert no /dev/shm entry survives beyond ``before`` (with a short
    grace period for the resource tracker's asynchronous unlink)."""
    if before is None:  # pragma: no cover - non-Linux fallback
        return
    deadline = time.monotonic() + deadline_seconds
    while True:
        leaked = _shm_entries() - before
        if not leaked:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"leaked shared-memory segments: {sorted(leaked)}")
        time.sleep(0.05)


def _requests(count, *, backend="dense", size=7, **kwargs):
    return [
        SolveRequest(
            graph=GraphSpec.random(size, size, 0.5, seed=seed),
            backend=backend,
            tag=f"g{seed}",
            **kwargs,
        )
        for seed in range(count)
    ]


class TestFaultSpecs:
    def test_entry_round_trip(self):
        spec = FaultSpec(
            point="worker.solve",
            action=ACTION_EXIT,
            nth=2,
            times=3,
            match="cell:sparse:g2",  # sweep tags contain ':'
            scope=SCOPE_WORKER,
        )
        assert FaultSpec.from_entry(spec.to_entry()) == spec

    def test_entry_omits_defaults(self):
        assert FaultSpec(point="worker.solve").to_entry() == "point=worker.solve"

    def test_plan_env_round_trip(self):
        plan = FaultPlan.of(
            FaultSpec(point="worker.hang", action=ACTION_HANG, arg=2.5),
            FaultSpec(point="worker.solve", match="g1", scope=SCOPE_WORKER),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point": ""},
            {"point": "p", "action": "explode"},
            {"point": "p", "scope": "sometimes"},
            {"point": "p", "nth": 0},
            {"point": "p", "times": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FaultSpec(**kwargs)

    def test_unknown_entry_field_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultSpec.from_entry("point=p,when=now")


class TestHitCounters:
    def test_nth_and_times_select_a_window_of_hits(self):
        faults.arm(FaultSpec(point="p", nth=2, times=2))
        faults.hit("p")  # 1st: below the window
        with pytest.raises(InjectedFault):
            faults.hit("p")  # 2nd
        with pytest.raises(InjectedFault):
            faults.hit("p")  # 3rd
        faults.hit("p")  # 4th: window exhausted

    def test_match_filters_on_hit_key(self):
        faults.arm(FaultSpec(point="p", match="g2"))
        faults.hit("p", key="g0")
        faults.hit("p", key="g1")
        with pytest.raises(InjectedFault):
            faults.hit("p", key="g2")

    def test_counters_are_per_spec(self):
        faults.arm(
            FaultSpec(point="p", match="a", nth=2),
            FaultSpec(point="p", match="b", nth=1),
        )
        faults.hit("p", key="a")  # spec 'a' count 1: no fire
        with pytest.raises(InjectedFault):
            faults.hit("p", key="b")  # spec 'b' fires on its own 1st hit
        with pytest.raises(InjectedFault):
            faults.hit("p", key="a")  # spec 'a' count 2

    def test_worker_scope_is_inert_in_the_parent_process(self):
        faults.arm(FaultSpec(point="p", scope=SCOPE_WORKER))
        faults.hit("p")  # would raise if scope were honoured here

    def test_plan_context_manager_arms_and_disarms(self):
        plan = FaultPlan.of(FaultSpec(point="p"))
        with plan:
            assert faults.armed() == plan.specs
            with pytest.raises(InjectedFault):
                faults.hit("p")
        assert faults.armed() == ()
        faults.hit("p")

    def test_env_armed_specs_fire(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(point="p", match="k"))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        with pytest.raises(InjectedFault):
            faults.hit("p", key="k")

    def test_hang_sleep_is_capped(self, monkeypatch):
        slept = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        faults.arm(FaultSpec(point="p", action=ACTION_HANG, arg=1e9))
        faults.hit("p")
        assert slept == [MAX_HANG_SECONDS]


class TestHandoff:
    """What a lane hands its new worker, and what the worker makes of it."""

    def test_handoff_carries_the_armed_specs_and_the_env_text(self, monkeypatch):
        env_plan = FaultPlan.of(FaultSpec(point="q", match="g2"))
        monkeypatch.setenv(faults.ENV_VAR, env_plan.to_env())
        spec = FaultSpec(point="p", match="g1")
        faults.arm(spec)
        assert faults.handoff() == ((spec,), env_plan.to_env())

    def test_a_process_without_faults_hands_off_nothing(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.handoff() == ((), "")

    def test_adopt_replaces_the_armed_specs(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.arm(FaultSpec(point="own"))
        handed = FaultSpec(point="handed")
        faults.adopt(((handed,), ""))
        assert faults.armed() == (handed,)
        faults.hit("own")
        with pytest.raises(InjectedFault):
            faults.hit("handed")

    def test_adopt_counts_hits_afresh(self, monkeypatch):
        # A window this process has used up fires again in the worker.
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.arm(FaultSpec(point="p", times=1))
        with pytest.raises(InjectedFault):
            faults.hit("p")
        faults.hit("p")
        faults.adopt(faults.handoff())
        with pytest.raises(InjectedFault):
            faults.hit("p")

    def test_adopt_sets_the_handed_env_text(self, monkeypatch):
        # A fork server's worker starts with the server's environment,
        # which may predate the variable.
        monkeypatch.setenv(faults.ENV_VAR, "")
        plan = FaultPlan.of(FaultSpec(point="p", match="g1"))
        faults.adopt(((), plan.to_env()))
        assert os.environ[faults.ENV_VAR] == plan.to_env()
        with pytest.raises(InjectedFault):
            faults.hit("p", key="g1")

    def test_adopt_drops_an_env_text_the_parent_does_not_have(self, monkeypatch):
        # A worker forked from a server started while the variable was
        # set must not fire what the batch parent has since unset.
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan.of(FaultSpec(point="p")).to_env())
        faults.adopt(((), ""))
        assert faults.ENV_VAR not in os.environ
        faults.hit("p")

    def test_a_malformed_env_text_fails_at_the_injection_point(self, monkeypatch):
        # Adopting does not parse the text, so the worker starts and each
        # request meets the error where the batch parent would.
        monkeypatch.setenv(faults.ENV_VAR, "")
        faults.adopt(((), "point=p,when=now"))
        with pytest.raises(InvalidParameterError):
            faults.hit("p")

    def test_a_match_the_env_form_cannot_carry_survives_the_handoff(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        spec = FaultSpec(point="p", match="cell;a,b")
        with pytest.raises(InvalidParameterError):
            FaultPlan.from_env(FaultPlan.of(spec).to_env())
        faults.arm(spec)
        faults.adopt(faults.handoff())
        assert faults.armed() == (spec,)
        with pytest.raises(InjectedFault):
            faults.hit("p", key="sweep:cell;a,b")


class TestWorkerFaults:
    def test_injected_raise_isolates_one_request(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_RAISE,
                match="g1",
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(_requests(4))
        finally:
            engine.shutdown()
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert [r.status for r in reports] == [
            STATUS_OK,
            STATUS_ERROR,
            STATUS_OK,
            STATUS_OK,
        ]
        failed = reports[1]
        assert failed.error is not None
        assert failed.error.kind == ERROR_KIND_INJECTED_FAULT
        assert failed.error.attempts == 1  # injected faults are not retryable
        _assert_no_new_shm_segments(before)

    def test_worker_death_mid_batch_recovers_deterministically(self, monkeypatch):
        # Acceptance criterion: a worker that dies hard (os._exit, as a
        # SIGKILL/OOM stand-in) on the request tagged g2 costs neither the
        # batch nor the other requests.  The pool is rebuilt up to
        # max_attempts submissions for g2; with in_process_fallback the
        # poison request then gets one in-process run (worker-scoped
        # faults are inert there) and still completes; the accounting is
        # exact because the fault follows the tag, not pool scheduling.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g2",
                times=3,  # every pool submission of g2 dies
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(
                _requests(4), retry_policy=RetryPolicy(in_process_fallback=True)
            )
        finally:
            engine.shutdown()
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert all(r.status == STATUS_OK for r in reports)
        poisoned = reports[2]
        # 3 crashed pool submissions + 1 in-process isolation run.
        assert poisoned.stats["worker_retries"] == 3
        assert poisoned.stats["pool_rebuilds"] == 3
        # The batch agrees with a fault-free serial run.
        serial = MBBEngine().solve_many(_requests(4), parallel=False)
        assert [r.side_size for r in reports] == [r.side_size for r in serial]
        _assert_no_new_shm_segments(before)

    def test_poison_request_errors_without_in_process_fallback(self, monkeypatch):
        # Default policy: a request that kills its worker on every run is
        # finished as a structured worker_crash report — it is NOT re-run
        # in the parent, where a genuine segfault/OOM would take the whole
        # batch (and every collected report) down with it.  With two
        # workers, g3 may be running on the other lane when g2 kills its
        # worker; each worker holds one request, so the death is charged
        # to g2 alone and every other status is deterministically ok.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g2",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(_requests(4))
        finally:
            engine.shutdown()
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        poisoned = reports[2]
        assert poisoned.status == STATUS_ERROR
        assert poisoned.error is not None
        assert poisoned.error.kind == ERROR_KIND_WORKER_CRASH
        assert poisoned.error.attempts == 3  # max_attempts, all crashed
        assert poisoned.stats["worker_retries"] == 2
        assert poisoned.stats["pool_rebuilds"] == 3
        others = [r for i, r in enumerate(reports) if i != 2]
        assert all(r.status == STATUS_OK for r in others)
        _assert_no_new_shm_segments(before)

    def test_no_retry_policy_fails_fast_with_worker_crash_report(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g1",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        # One worker: requests run one at a time, so the crash costs
        # exactly the crashing request and the rest of the batch drains
        # deterministically.
        engine = MBBEngine(max_workers=1)
        try:
            reports = engine.solve_many(
                _requests(3), retry_policy=RetryPolicy.none()
            )
        finally:
            engine.shutdown()
        # max_attempts=1, max_pool_rebuilds=0, no in-process fallback: the
        # first crash is final and surfaces as a structured report.
        assert [r.status for r in reports] == [STATUS_OK, STATUS_ERROR, STATUS_OK]
        failed = reports[1]
        assert failed.error is not None
        assert failed.error.kind == ERROR_KIND_WORKER_CRASH
        assert failed.error.attempts == 1

    def test_poison_isolation_opt_in_recovers_on_first_crash(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g1",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(
                _requests(3),
                retry_policy=RetryPolicy(
                    max_attempts=1,
                    max_pool_rebuilds=0,
                    in_process_fallback=True,
                ),
            )
        finally:
            engine.shutdown()
        # max_attempts=1 with the opt-in: no pool retry, straight to
        # in-process isolation, where the worker-scoped fault cannot fire
        # — the request recovers.
        assert all(r.status == STATUS_OK for r in reports)
        assert reports[1].stats["worker_retries"] == 1
        assert reports[1].stats["pool_rebuilds"] == 1

    def test_queued_requests_do_not_burn_watchdog_budget(self, monkeypatch):
        # Regression: deadlines used to be stamped at submission time for
        # the whole batch, so with more requests than workers a slow first
        # wave falsely aborted every queued request once its
        # time_budget + grace elapsed — with the clock running while the
        # request was still waiting for a slot.  The deadline clock must
        # start only when a worker actually picks the request up.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=1.5,
                match="g0",
                scope=SCOPE_WORKER,
            ),
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=1.5,
                match="g1",
                scope=SCOPE_WORKER,
            ),
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        slow = _requests(2)  # g0, g1: no budget, stalled 1.5s by the fault
        fast = [
            SolveRequest(
                graph=GraphSpec.random(7, 7, 0.5, seed=seed),
                backend="dense",
                tag=f"g{seed}",
                time_budget=0.25,
            )
            for seed in (2, 3)
        ]
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(
                slow + fast,
                retry_policy=RetryPolicy(watchdog_grace_seconds=0.25),
            )
        finally:
            engine.shutdown()
        # g2/g3 wait ~1.5s for a worker slot — three times their 0.5s
        # deadline — and must still complete, never be falsely aborted.
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert [r.status for r in reports] == [STATUS_OK] * 4

    def test_hung_worker_is_aborted_by_the_watchdog(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=20.0,
                match="g1",
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        start = time.monotonic()
        try:
            reports = engine.solve_many(_requests(4), watchdog_seconds=2.0)
        finally:
            engine.shutdown()
        elapsed = time.monotonic() - start
        # Acceptance criterion: the batch returns within the watchdog bound
        # (plus pool teardown/rebuild slack), not after the 20s hang.
        assert elapsed < 15.0
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        hung = reports[1]
        assert hung.status == STATUS_ABORTED
        assert hung.error is not None and hung.error.kind == ERROR_KIND_TIMEOUT
        others = [r for i, r in enumerate(reports) if i != 1]
        assert all(r.status == STATUS_OK for r in others)
        _assert_no_new_shm_segments(before)


def _retry_stats(report):
    return report.stats.get("worker_retries", 0), report.stats.get("pool_rebuilds", 0)


class TestLanes:
    """Each request runs alone in its worker process, so a worker death or
    a watchdog kill is charged to that request and no other."""

    def test_a_crash_on_one_lane_costs_the_other_lane_nothing(self, monkeypatch):
        # g0 stalls on one lane while g1 kills its worker on every run on
        # the other: g0 must not be retried or charged a rebuild.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=1.0,
                match="g0",
                scope=SCOPE_WORKER,
            ),
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g1",
                times=3,
                scope=SCOPE_WORKER,
            ),
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        reports = MBBEngine(max_workers=2).solve_many(_requests(2))
        assert [r.request.tag for r in reports] == ["g0", "g1"]
        innocent, crasher = reports
        assert innocent.status == STATUS_OK
        assert _retry_stats(innocent) == (0, 0)
        assert crasher.status == STATUS_ERROR
        assert crasher.error is not None
        assert crasher.error.kind == ERROR_KIND_WORKER_CRASH
        assert crasher.error.attempts == 3
        assert crasher.stats["pool_rebuilds"] == 3

    def test_spent_restart_budget_never_runs_a_crasher_in_process(self, monkeypatch):
        # Two crashers spend the single restart between them.  A request
        # that killed a worker is then finished as worker_crash, not run
        # in the parent; the requests no lane is left for, which killed
        # nothing, run in-process.
        plan = FaultPlan.of(
            *(
                FaultSpec(
                    point="worker.solve",
                    action=ACTION_EXIT,
                    match=tag,
                    times=3,
                    scope=SCOPE_WORKER,
                )
                for tag in ("g0", "g1")
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        reports = MBBEngine(max_workers=2).solve_many(
            _requests(4), retry_policy=RetryPolicy(max_pool_rebuilds=1)
        )
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert [r.status for r in reports] == [
            STATUS_ERROR,
            STATUS_ERROR,
            STATUS_OK,
            STATUS_OK,
        ]
        for crasher in reports[:2]:
            assert crasher.error is not None
            assert crasher.error.kind == ERROR_KIND_WORKER_CRASH
        for report in reports[2:]:
            assert _retry_stats(report) == (0, 0)

    def test_no_lane_process_outlives_a_batch(self, monkeypatch):
        # Idle workers hold copies of each other's pipe ends, so none of
        # them reads EOF when the parent closes its end: every path must
        # stop or kill its workers explicitly and reap them.
        before = set(multiprocessing.active_children())
        crash = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g2",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        hang = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=20.0,
                match="g1",
                scope=SCOPE_WORKER,
            )
        )
        for name, plan, options in (
            ("clean", None, {}),
            ("crash", crash, {}),
            ("watchdog", hang, {"watchdog_seconds": 1.0}),
        ):
            if plan is None:
                monkeypatch.delenv(faults.ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
            reports = MBBEngine(max_workers=2).solve_many(_requests(4), **options)
            assert len(reports) == 4, name
            assert set(multiprocessing.active_children()) <= before, name

    def test_refused_worker_processes_run_the_batch_in_process(self, monkeypatch):
        # A platform that cannot start a worker process still gets one
        # report per request, from the serial in-process path.
        def refuse(process):
            raise OSError("no worker processes on this platform")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        reports = MBBEngine(max_workers=2).solve_many(_requests(3))
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2"]
        assert [r.status for r in reports] == [STATUS_OK] * 3
        serial = MBBEngine().solve_many(_requests(3), parallel=False)
        assert [r.side_size for r in reports] == [r.side_size for r in serial]


#: A batch parent for the orphan tests: it prints each lane worker's pid as
#: the lane starts, then runs a 2-lane batch of g0 to g3, one of which the
#: armed fault plan hangs in its worker.  It starts no thread, so its forks
#: are safe on every interpreter.
_KILLED_PARENT = """
from repro.api import GraphSpec, MBBEngine, SolveRequest, engine

start = engine._Lane.start.__func__


def start_and_print(cls, *args):
    lane = start(cls, *args)
    if lane is not None:
        print(lane.process.pid, flush=True)
    return lane


engine._Lane.start = classmethod(start_and_print)
MBBEngine(max_workers=2).solve_many(
    [
        SolveRequest(
            graph=GraphSpec.random(7, 7, 0.5, seed=seed), backend="dense", tag=f"g{seed}"
        )
        for seed in range(4)
    ]
)
"""


def _exited(pid):
    """Whether process ``pid`` has exited: it is gone, or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            # The state follows the parenthesised command name, which may
            # itself hold spaces or parentheses.
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state == "Z"


def _alive_after(pids, seconds):
    """The ``pids`` that have not exited within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not all(map(_exited, pids)):
        time.sleep(0.05)
    return [pid for pid in pids if not _exited(pid)]


@contextlib.contextmanager
def _batch_parent(hang_seconds, tag):
    """Run :data:`_KILLED_PARENT` with ``tag``'s request hanging in its
    worker, and yield the parent with its two lane worker pids.

    On the way out the parent is killed and any worker still alive too.
    """
    hang = FaultPlan.of(
        FaultSpec(
            point="worker.hang",
            action=ACTION_HANG,
            arg=hang_seconds,
            match=tag,
            scope=SCOPE_WORKER,
        )
    )
    env = dict(os.environ)
    env[faults.ENV_VAR] = hang.to_env()
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    parent = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    pids = []
    try:
        for _ in range(2):
            line = parent.stdout.readline()
            assert line, "the batch parent exited before starting both lanes"
            pids.append(int(line))
        yield parent, pids
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        for pid in pids:
            if not _exited(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states in /proc")
class TestParentDeath:
    def test_lane_workers_exit_when_their_parent_is_killed(self):
        # g0 holds one lane for 2 s, so the parent is SIGKILLed mid-batch.
        # Each worker must then exit on its own, at the latest once its
        # request is done: nobody is left to stop it or read its report.
        with _batch_parent(2.0, "g0") as (parent, pids):
            parent.kill()
            parent.wait(timeout=10)
            assert _alive_after(pids, 10.0) == []

    def test_an_idle_lane_exits_while_a_later_lane_still_runs(self):
        # g1 holds the second lane for 6 s, and the first lane runs g0, g2
        # and g3 meanwhile, so it is done with them when the parent is
        # SIGKILLed 1 s in.  The first lane's worker must exit at once,
        # not when the second lane's request ends: no other worker holds
        # a copy of its pipe's parent end.
        with _batch_parent(6.0, "g1") as (parent, (first, second)):
            time.sleep(1.0)
            parent.kill()
            parent.wait(timeout=10)
            assert _alive_after([first], 2.0) == []
            assert not _exited(second), "the hang ended before the check, so it shows nothing"


#: A batch parent under the start method named by its first argument, given
#: a fault plan as its second.  Its first batch runs with no plan (under
#: ``forkserver`` it starts the fork server); the second runs with
#: REPRO_FAULTS set only afterwards, the third with the plan armed
#: in-process instead.  It prints ``tag status error-kind`` per report of
#: the last two batches.
_START_METHOD_PARENT = """
import multiprocessing
import os
import sys

from repro.api import GraphSpec, MBBEngine, SolveRequest
from repro.devtools import faults

multiprocessing.set_start_method(sys.argv[1])
requests = [
    SolveRequest(graph=GraphSpec.random(7, 7, 0.5, seed=seed), backend="dense", tag=f"g{seed}")
    for seed in range(2)
]
MBBEngine(max_workers=2).solve_many(requests)
os.environ[faults.ENV_VAR] = sys.argv[2]
batches = [MBBEngine(max_workers=2).solve_many(requests)]
del os.environ[faults.ENV_VAR]
with faults.FaultPlan.from_env(sys.argv[2]):
    batches.append(MBBEngine(max_workers=2).solve_many(requests))
for reports in batches:
    for report in reports:
        print(report.request.tag, report.status, report.error and report.error.kind)
"""


def _run_start_method_parent(method):
    """Run :data:`_START_METHOD_PARENT` under ``method`` with a plan that
    fails the request tagged ``g1`` in a worker; return its report lines."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is unavailable")
    plan = FaultPlan.of(
        FaultSpec(point="worker.solve", action=ACTION_RAISE, match="g1", scope=SCOPE_WORKER)
    )
    env = {key: value for key, value in os.environ.items() if key != faults.ENV_VAR}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    parent = subprocess.run(
        [sys.executable, "-c", _START_METHOD_PARENT, method, plan.to_env()],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert parent.returncode == 0, parent.stderr
    return parent.stdout.splitlines()


class TestStartMethods:
    OK, FAILED = "g0 ok None", f"g1 error {ERROR_KIND_INJECTED_FAULT}"

    def test_a_plan_set_after_the_fork_server_started_reaches_its_workers(self):
        # A forkserver worker forks from the server, not from the batch
        # parent, so it inherits neither the parent's armed specs nor an
        # environment variable set after the server started.  The lane
        # hands the plan over instead, and the tagged request must fail.
        lines = _run_start_method_parent("forkserver")
        assert lines == [self.OK, self.FAILED, self.OK, self.FAILED]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_an_env_or_armed_plan_reaches_the_workers(self, method):
        # A spawned worker starts a fresh interpreter, so it has none of
        # the parent's armed specs unless the lane hands them over; a
        # forked worker's copy of them and of the environment must not
        # fire twice or go stale either.
        lines = _run_start_method_parent(method)
        assert lines == [self.OK, self.FAILED, self.OK, self.FAILED]


class TestChooseRequest:
    """The dispatch rule on its own: batch indices in, a queue position out."""

    def test_a_lane_takes_its_own_repeat_ahead_of_a_later_new_spec(self):
        # Request 0 is lane 1's spec, request 1 lane 0's, request 2 unseen.
        keys = {0: 20, 1: 10, 2: 30}
        assert _choose_request([0, 1, 2], keys, 0, [{10}, {20}]) == 1

    def test_a_lane_skips_a_repeat_another_live_lane_has_run(self):
        keys = {0: 20, 1: 30}
        assert _choose_request([0, 1], keys, 0, [{10}, {20}]) == 1

    def test_a_lane_takes_the_head_when_no_request_qualifies(self):
        keys = {0: 20, 1: 21, 2: 20}
        assert _choose_request([0, 1, 2], keys, 0, [{10}, {20, 21}]) == 0

    def test_a_dead_lanes_specs_count_as_run_by_no_lane(self):
        # Lane 1 ran spec 10 and lane 2 spec 20.  While lane 1 lives,
        # nothing qualifies for lane 0; once it is dead (None), spec 10
        # counts as run by no live lane.
        keys = {0: 20, 1: 10}
        assert _choose_request([0, 1], keys, 0, [set(), {10}, {20}]) == 0
        assert _choose_request([0, 1], keys, 0, [set(), None, {20}]) == 1

    def test_distinct_specs_dispatch_in_fifo_order(self):
        # Three lanes go idle in a shuffled pattern; each takes the head.
        pending = list(range(9))
        keys = {idx: 100 + idx for idx in pending}
        ran = [set(), set(), set()]
        order = []
        for lane in (0, 1, 2, 1, 1, 0, 2, 0, 1):
            idx = pending.pop(_choose_request(pending, keys, lane, ran))
            ran[lane].add(keys[idx])
            order.append(idx)
        assert order == list(range(9))


def _sparse_request(name, tag=None):
    return SolveRequest(graph=GraphSpec.dataset(name), backend="sparse", tag=tag or name)


def _cache_counts(reports):
    return [
        (r.stats.get("prepared_cache_hits", 0), r.stats.get("prepared_cache_misses", 0))
        for r in reports
    ]


class TestLaneDispatch:
    """Real batches on worker lanes, read through each report's
    prepared-cache hits and misses."""

    def test_each_repeat_goes_back_to_the_lane_that_prepared_its_graph(self, monkeypatch):
        # Each repeat holds its lane for 1 s, far longer than a cold
        # stand-in solve.  So whichever first request ends first, the
        # other lane is done with its own before only its repeat is left
        # pending; no lane ever has to take the other lane's repeat.
        hang = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=1.0,
                match="repeat",
                times=2,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, hang.to_env())
        batch = [
            _sparse_request(name, tag)
            for name, tag in (
                ("unicodelang", "a"),
                ("moreno-crime", "b"),
                ("unicodelang", "a repeat"),
                ("moreno-crime", "b repeat"),
            )
        ]
        reports = MBBEngine(max_workers=2).solve_many(batch)
        assert [r.status for r in reports] == [STATUS_OK] * 4
        assert _cache_counts(reports) == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_one_spec_runs_on_both_lanes(self):
        # The second lane finds only the first lane's spec pending and
        # takes the head rather than idle: one miss per lane.
        reports = MBBEngine(max_workers=2).solve_many([_sparse_request("unicodelang")] * 4)
        assert [r.status for r in reports] == [STATUS_OK] * 4
        assert sum(misses for _, misses in _cache_counts(reports)) == 2

    def test_a_worker_cache_holds_as_many_graphs_as_the_engines(self):
        # One lane runs nine distinct specs, then the same nine, so each
        # repeat comes nine graphs after its first copy: past the default
        # capacity of 8, within the engine's 16.
        names = [
            "unicodelang",
            "moreno-crime",
            "dbpedia-producer",
            "bibsonomy-2ui",
            "dbpedia-starring",
            "edit-frwiktionary",
            "dbpedia-writer",
            "pics-ut",
            "dbpedia-occupation",
        ]
        engine = MBBEngine(max_workers=1, prepared_cache=PreparedGraphCache(capacity=16))
        reports = engine.solve_many([_sparse_request(name) for name in names * 2])
        assert [r.status for r in reports] == [STATUS_OK] * 18
        assert _cache_counts(reports) == [(0, 1)] * 9 + [(1, 0)] * 9

    def test_a_spec_python_cannot_hash_still_dispatches(self):
        # List edges survive the wire (they read back as tuples) but make
        # the spec unhashable; the dispatch keys specs by their wire form.
        spec = GraphSpec(kind="edges", edges=[[1, "a"], [2, "a"]])
        request = SolveRequest(graph=spec, backend="dense", tag="lists")
        reports = MBBEngine(max_workers=2).solve_many([request] * 3)
        assert [(r.status, r.side_size) for r in reports] == [(STATUS_OK, 1)] * 3
