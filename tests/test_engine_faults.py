"""Chaos suite: deterministic fault injection against the batch layer.

Every test here arms a :mod:`repro.devtools.faults` plan — in-process or
through :envvar:`REPRO_FAULTS` for worker processes — and asserts the
engine's fault-tolerance contract: batches complete in request order,
failures are isolated to their request as structured error reports,
crash recovery is bounded and accounted for, and no shared-memory
segment outlives the engine.  Nothing in this file depends on timing
races: faults are keyed on request tags, so the same request fails the
same way every run.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.api import (
    STATUS_ABORTED,
    STATUS_ERROR,
    STATUS_OK,
    GraphSpec,
    MBBEngine,
    RetryPolicy,
    SolveRequest,
)
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
