"""Deterministic fault injection for chaos-testing the engine's pool layer.

``MBBEngine.solve_many`` promises per-request error isolation, bounded
crash recovery and watchdog-bounded hangs — promises that only count if
they are *provable*, and timing-based chaos tests (kill a random worker,
hope the race lands) prove nothing reproducibly.  This module gives the
test suite named **injection points** compiled into the engine's fault
boundaries:

``worker.solve``
    Inside the worker fault boundary, after the request is decoded and
    before the solve runs.  A ``raise`` fault here exercises per-request
    error reports; an ``exit`` fault simulates a SIGKILL/OOM worker
    death (``BrokenProcessPool`` on the engine side).
``worker.hang``
    Same boundary, polled before ``worker.solve``.  A ``hang`` fault
    sleeps for a bounded number of seconds — long enough to trip the
    engine watchdog, short enough that an escaped hang cannot wedge the
    test suite.

Every point is **inert in production**: :func:`hit` is two dict lookups
when nothing is armed.  Tests arm faults either in-process via
:func:`arm`/:class:`FaultPlan` (a context manager) or across the pool
boundary via the :envvar:`REPRO_FAULTS` environment variable, whose spec
string is what :meth:`FaultPlan.to_env` prints.  Hit counters are
per-process, and specs can be matched on the hit key (the request tag
for ``worker.*`` points), so "the 2nd solve of the request tagged
``g3``, in a worker process, exits hard" is expressible independent of
pool scheduling — the crash lands on the same request every run.

Firing is scoped: ``scope="worker"`` specs only fire inside a process
that has a parent (``multiprocessing.parent_process() is not None``), so
an armed ``exit``/``hang`` fault cannot take down the test runner when
the engine runs a request in-process — the serial degradation paths, or
a poison re-run under ``RetryPolicy(in_process_fallback=True)``.

reprolint rule RPL009 pins the discipline that injection points stay
confined to this module and the engine's fault boundaries — scattering
``hit()`` calls through kernel code would turn a test harness into a
production liability.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.exceptions import InvalidParameterError

#: Environment variable carrying a fault spec across the pool boundary.
ENV_VAR = "REPRO_FAULTS"

#: ``FaultSpec.action`` values.
ACTION_RAISE = "raise"
ACTION_EXIT = "exit"
ACTION_HANG = "hang"

_ACTIONS = (ACTION_RAISE, ACTION_EXIT, ACTION_HANG)

#: ``FaultSpec.scope`` values: fire anywhere, or only in pool workers.
SCOPE_ANY = "any"
SCOPE_WORKER = "worker"

_SCOPES = (SCOPE_ANY, SCOPE_WORKER)

#: Exit status used by ``exit`` faults (distinctive in pool tracebacks).
EXIT_STATUS = 87

#: Hard ceiling on ``hang`` sleeps: an escaped hang fault must never
#: wedge a test run for longer than a watchdog-scale pause.
MAX_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """Raised by an armed ``raise`` fault at its injection point."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it fires, what it does, and when.

    ``nth``/``times`` select *which* hits fire: the spec triggers on the
    ``nth`` matching hit (1-based, counted per process) and the
    ``times - 1`` hits after it.  ``match`` restricts matching hits to
    those whose key contains the substring — for ``worker.*`` points the
    key is the request tag, so a fault follows its request across
    retries and pool rebuilds instead of following scheduling accidents.
    """

    point: str
    action: str = ACTION_RAISE
    nth: int = 1
    times: int = 1
    #: Action argument: ``hang`` seconds (capped).
    arg: float = 0.0
    match: Optional[str] = None
    scope: str = SCOPE_ANY

    def __post_init__(self) -> None:
        if not self.point:
            raise InvalidParameterError("fault spec requires a point name")
        if self.action not in _ACTIONS:
            raise InvalidParameterError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.scope not in _SCOPES:
            raise InvalidParameterError(
                f"unknown fault scope {self.scope!r}; expected one of {_SCOPES}"
            )
        if self.nth < 1 or self.times < 1:
            raise InvalidParameterError(
                f"fault nth/times must be >= 1, got nth={self.nth} times={self.times}"
            )

    def to_entry(self) -> str:
        """Compact ``key=value`` form for the env spec (inverse of
        :meth:`from_entry`); defaults are omitted."""
        parts = [f"point={self.point}"]
        for spec_field in fields(self):
            if spec_field.name == "point":
                continue
            value = getattr(self, spec_field.name)
            if value == spec_field.default:
                continue
            parts.append(f"{spec_field.name}={value}")
        return ",".join(parts)

    @classmethod
    def from_entry(cls, entry: str) -> "FaultSpec":
        """Parse one env-spec entry written by :meth:`to_entry`."""
        known = {spec_field.name: spec_field for spec_field in fields(cls)}
        data: Dict[str, object] = {}
        for item in entry.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, raw = item.partition("=")
            if name not in known:
                raise InvalidParameterError(
                    f"unknown fault spec field {name!r} in {entry!r}; "
                    f"expected one of {sorted(known)}"
                )
            if name in ("nth", "times"):
                data[name] = int(raw)
            elif name == "arg":
                data[name] = float(raw)
            else:
                data[name] = raw
        if "point" not in data:
            raise InvalidParameterError(f"fault spec entry {entry!r} lacks point=")
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` armed together.

    Usable as a context manager (arms on entry, disarms on exit) for
    in-process tests, or serialised with :meth:`to_env` into
    :envvar:`REPRO_FAULTS` so pool workers — fork *or* spawn — arm the
    same plan with their own fresh hit counters.
    """

    specs: Tuple[FaultSpec, ...]

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    def to_env(self) -> str:
        """The :envvar:`REPRO_FAULTS` value arming this plan."""
        return ";".join(spec.to_entry() for spec in self.specs)

    @classmethod
    def from_env(cls, text: str) -> "FaultPlan":
        """Parse an env spec (``;``-separated :meth:`FaultSpec.to_entry`)."""
        specs = tuple(
            FaultSpec.from_entry(entry)
            for entry in text.split(";")
            if entry.strip()
        )
        return cls(specs=specs)

    def __enter__(self) -> "FaultPlan":
        arm(*self.specs)
        return self

    def __exit__(self, *exc_info: object) -> None:
        disarm()


#: In-process armed specs (tests in this process) and per-spec hit
#: counters.  Counters key on the spec identity, not the bare point, so
#: two specs watching one point count independently and deterministically.
_ARMED: List[FaultSpec] = []
_HITS: Dict[Tuple[object, ...], int] = {}

#: Memoised parse of the env spec, keyed by the exact string.
_ENV_CACHE: Optional[Tuple[str, Tuple[FaultSpec, ...]]] = None


def arm(*specs: FaultSpec) -> None:
    """Arm ``specs`` in this process and reset the hit counters."""
    _ARMED.clear()
    _ARMED.extend(specs)
    _HITS.clear()


def disarm() -> None:
    """Disarm every in-process spec and reset the hit counters."""
    _ARMED.clear()
    _HITS.clear()


def armed() -> Tuple[FaultSpec, ...]:
    """The specs currently armed in this process (env specs excluded)."""
    return tuple(_ARMED)


def _env_specs() -> Tuple[FaultSpec, ...]:
    global _ENV_CACHE
    text = os.environ.get(ENV_VAR, "")
    if not text:
        return ()
    if _ENV_CACHE is not None and _ENV_CACHE[0] == text:
        return _ENV_CACHE[1]
    specs = FaultPlan.from_env(text).specs
    _ENV_CACHE = (text, specs)
    return specs


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def hit(point: str, *, key: str = "") -> None:
    """Poll the injection point ``point``; a no-op unless a fault is armed.

    ``key`` identifies the specific hit (the request tag) for
    ``match`` filtering.  Counters increment per matching spec, so
    ``nth`` means "the nth time *this spec's* filter matched in this
    process" — deterministic under retries and pool scheduling.
    """
    if not _ARMED and ENV_VAR not in os.environ:
        return
    for spec in (*_ARMED, *_env_specs()):
        if spec.point != point:
            continue
        if spec.match is not None and spec.match not in key:
            continue
        if spec.scope == SCOPE_WORKER and not _in_worker():
            continue
        counter = (
            spec.point,
            spec.action,
            spec.nth,
            spec.times,
            spec.arg,
            spec.match,
            spec.scope,
        )
        count = _HITS.get(counter, 0) + 1
        _HITS[counter] = count
        if spec.nth <= count < spec.nth + spec.times:
            _fire(spec, point, key)


def _fire(spec: FaultSpec, point: str, key: str) -> None:
    where = f"{point}" + (f" ({key})" if key else "")
    if spec.action == ACTION_RAISE:
        raise InjectedFault(f"injected fault at {where}")
    if spec.action == ACTION_EXIT:
        # Simulates SIGKILL/OOM: no exception, no cleanup, the pool sees
        # a dead worker.
        os._exit(EXIT_STATUS)
    if spec.action == ACTION_HANG:
        time.sleep(min(max(spec.arg, 0.0), MAX_HANG_SECONDS))
