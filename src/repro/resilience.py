"""Unified resilience policies: retry/backoff, health scoring, fault plans.

Before this module every layer hand-rolled its own recovery — the worker
agent slept a fixed second between reconnects, the controller evicted a
host on one missed ping, a flapping host could re-register into an
endless crash→rejoin loop, and the serve clients had a single hard-coded
stale-connection retry.  The three policies here replace those local
conventions with one audited subsystem:

* :class:`RetryPolicy` — capped exponential backoff with *deterministic*
  seeded jitter and deadline-aware budgets.  Stateless and hashable; per
  attempt state lives in :class:`RetryState` so one policy object can be
  shared by every connection.
* :class:`HealthTracker` — a per-key circuit breaker: K failures inside a
  sliding window quarantine the key; after the quarantine period a single
  *probe* admission tests recovery (success closes the circuit, failure
  re-quarantines).  The controller keys it by host *name*, so a flapper
  that re-registers under a fresh ``host_id`` is still recognised.
* :class:`FaultPlan` / :class:`FaultInjector` — deterministic seeded
  fault-injection schedules (``crash`` / ``disconnect`` / ``delay`` /
  ``drop_frame`` at step *k*).  Plans round-trip through a compact string spec
  (``"delay@2:0.5,crash@5+"``) so the same schedule travels through CLI
  flags, environment variables and the chaos harness unchanged.

Everything here is dependency-free (stdlib only) and deliberately knows
nothing about sockets, frames or kernels — the runtime, remote and serve
layers *consume* these policies; they never subclass them.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from collections import deque

__all__ = [
    "RetryPolicy",
    "RetryState",
    "retry_call",
    "HealthTracker",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "FAULT_KINDS",
]


def seed_from_name(name: str) -> int:
    """A stable 32-bit seed derived from an identifier string.

    Used to de-correlate jitter across a fleet deterministically: every
    agent jitters differently, but the same agent name always produces
    the same schedule (reproducible soak runs).
    """
    return zlib.crc32(name.encode("utf-8", "replace")) & 0xFFFFFFFF


# ---------------------------------------------------------------------- #
# Retry / backoff
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter and budgets.

    Attributes
    ----------
    base_delay:
        Delay before the first retry (seconds); attempt *n* waits
        ``base_delay * multiplier**n`` capped at ``max_delay``.
    max_delay:
        Upper bound on any single delay.
    multiplier:
        Exponential growth factor (>= 1).
    jitter:
        Fractional jitter: each delay is scaled by a uniform draw from
        ``[1 - jitter, 1 + jitter]``.  ``0`` disables jitter.
    max_attempts:
        Retries allowed before giving up (``None`` = unbounded — bound by
        ``deadline_s`` or the caller instead).
    deadline_s:
        Total sleep budget across all retries of one :class:`RetryState`
        (``None`` = unbounded).  The final delay is truncated to the
        remaining budget rather than overshooting it.
    seed:
        Seed of the jitter stream.  ``None`` draws from the process RNG
        (non-reproducible); any int makes ``delay(attempt, salt=...)`` a
        pure function — the chaos harness and the tests rely on that.
    """

    base_delay: float = 0.5
    max_delay: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_attempts: Optional[int] = None
    deadline_s: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_attempts is not None and self.max_attempts < 0:
            raise ValueError(
                f"max_attempts must be >= 0, got {self.max_attempts}"
            )

    def backoff(self, attempt: int) -> float:
        """The un-jittered delay of retry ``attempt`` (0-based)."""
        return min(self.max_delay, self.base_delay * self.multiplier ** attempt)

    def delay(self, attempt: int, *, salt: int = 0) -> float:
        """The jittered delay of retry ``attempt``.

        With a ``seed`` this is a pure function of ``(attempt, salt)``;
        ``salt`` de-correlates independent consumers of one shared
        policy (e.g. per-host or per-connection).
        """
        base = self.backoff(attempt)
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        if self.seed is None:
            u = random.random()
        else:
            # One integer from (seed, salt, attempt) — multiplicative
            # mixing, not hash(), which is per-process salted for str.
            mix = (
                (self.seed & 0xFFFFFFFF) * 0x9E3779B1
                + (salt & 0xFFFFFFFF) * 0x85EBCA6B
                + attempt * 0xC2B2AE35
            ) & 0xFFFFFFFFFFFFFFFF
            u = random.Random(mix).random()
        return base * (1.0 - self.jitter + 2.0 * self.jitter * u)

    def start(
        self, *, salt: int = 0, clock: Callable[[], float] = time.monotonic
    ) -> "RetryState":
        """A fresh attempt-tracking state for one retry sequence."""
        return RetryState(policy=self, salt=salt, clock=clock)


@dataclass
class RetryState:
    """Mutable per-sequence state of one :class:`RetryPolicy` consumer."""

    policy: RetryPolicy
    salt: int = 0
    clock: Callable[[], float] = time.monotonic
    attempts: int = 0
    _deadline: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.policy.deadline_s is not None:
            self._deadline = self.clock() + self.policy.deadline_s

    def next_delay(self) -> Optional[float]:
        """Seconds to wait before the next retry, or ``None`` when the
        attempt/deadline budget is spent (caller should give up)."""
        policy = self.policy
        if (
            policy.max_attempts is not None
            and self.attempts >= policy.max_attempts
        ):
            return None
        delay = policy.delay(self.attempts, salt=self.salt)
        if self._deadline is not None:
            remaining = self._deadline - self.clock()
            if remaining <= 0.0:
                return None
            delay = min(delay, remaining)
        self.attempts += 1
        return delay

    def sleep(self, interrupt: Optional[threading.Event] = None) -> bool:
        """Wait out the next delay.  Returns ``False`` when the budget is
        spent or ``interrupt`` fired during the wait."""
        delay = self.next_delay()
        if delay is None:
            return False
        if interrupt is not None:
            return not interrupt.wait(delay)
        time.sleep(delay)
        return True


def retry_call(
    fn: Callable[[], object],
    *,
    policy: RetryPolicy,
    retry_on: Tuple[type, ...] = (ConnectionError, OSError, TimeoutError),
    on_retry: Optional[Callable[[BaseException, int, float], None]] = None,
    salt: int = 0,
):
    """Call ``fn`` under ``policy``, retrying on ``retry_on`` exceptions.

    The last exception propagates once the budget is spent.  ``on_retry``
    (if given) observes ``(exc, attempt_number, delay)`` before each
    sleep — the serve clients use it to count retries.
    """
    state = policy.start(salt=salt)
    while True:
        try:
            return fn()
        except retry_on as exc:
            delay = state.next_delay()
            if delay is None:
                raise
            if on_retry is not None:
                on_retry(exc, state.attempts, delay)
            time.sleep(delay)


# ---------------------------------------------------------------------- #
# Health tracking / circuit breaking
# ---------------------------------------------------------------------- #
_CLOSED = "closed"
_OPEN = "quarantined"
_PROBING = "probing"


class _KeyHealth:
    __slots__ = ("failures", "state", "quarantined_until", "probe_open")

    def __init__(self) -> None:
        self.failures: Deque[float] = deque()
        self.state = _CLOSED
        self.quarantined_until = 0.0
        self.probe_open = False


class HealthTracker:
    """Per-key circuit breaker with quarantine and probing re-admission.

    State machine per key (thread-safe)::

        closed --(K failures in window)--> quarantined
        quarantined --(quarantine_s elapses, next allow())--> probing
        probing --(record_success)--> closed
        probing --(record_failure)--> quarantined   (fresh period)

    ``allow(key)`` answers "may this key be admitted right now?".  While
    probing, exactly one admission is outstanding at a time, so a single
    probe — not a thundering herd — tests the recovered key.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        failure_window_s: float = 30.0,
        quarantine_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        self.failure_window_s = float(failure_window_s)
        self.quarantine_s = float(quarantine_s)
        self.clock = clock
        self.quarantines = 0
        self.probes = 0
        self._keys: Dict[str, _KeyHealth] = {}
        self._lock = threading.Lock()

    # -- transitions --------------------------------------------------- #
    def _quarantine(self, entry: _KeyHealth, now: float) -> None:
        entry.state = _OPEN
        entry.quarantined_until = now + self.quarantine_s
        entry.failures.clear()
        entry.probe_open = False
        self.quarantines += 1

    def record_failure(self, key: str) -> bool:
        """Score one failure; returns True when the key just got (or
        stays) quarantined."""
        now = self.clock()
        with self._lock:
            entry = self._keys.setdefault(key, _KeyHealth())
            if entry.state == _PROBING:
                # The probe failed: straight back to quarantine.
                self._quarantine(entry, now)
                return True
            if entry.state == _OPEN:
                return True
            entry.failures.append(now)
            horizon = now - self.failure_window_s
            while entry.failures and entry.failures[0] < horizon:
                entry.failures.popleft()
            if len(entry.failures) >= self.failure_threshold:
                self._quarantine(entry, now)
                return True
            return False

    def record_success(self, key: str) -> None:
        """A successful exchange closes the circuit and clears scoring."""
        with self._lock:
            entry = self._keys.get(key)
            if entry is None:
                return
            entry.state = _CLOSED
            entry.failures.clear()
            entry.probe_open = False

    def allow(self, key: str) -> bool:
        """May ``key`` be admitted right now?  Transitions quarantined
        keys to probing once their period elapsed (one probe at a time)."""
        now = self.clock()
        with self._lock:
            entry = self._keys.get(key)
            if entry is None or entry.state == _CLOSED:
                return True
            if entry.state == _OPEN:
                if now < entry.quarantined_until:
                    return False
                entry.state = _PROBING
                entry.probe_open = True
                self.probes += 1
                return True
            # probing: one outstanding admission at a time
            if entry.probe_open:
                return False
            entry.probe_open = True
            self.probes += 1
            return True

    def state(self, key: str) -> str:
        with self._lock:
            entry = self._keys.get(key)
            return _CLOSED if entry is None else entry.state

    def quarantined_now(self) -> int:
        now = self.clock()
        with self._lock:
            return sum(
                1
                for e in self._keys.values()
                if e.state == _OPEN and now < e.quarantined_until
            )

    def stats(self) -> Dict[str, int]:
        return {
            "quarantined_hosts": self.quarantines,
            "quarantined_now": self.quarantined_now(),
            "probes": self.probes,
        }


# ---------------------------------------------------------------------- #
# Fault injection
# ---------------------------------------------------------------------- #
#: The fault vocabulary every injection site understands (sites map kinds
#: they cannot express onto the closest one they can — e.g. the HTTP
#: server treats ``drop_frame`` as ``disconnect``).
FAULT_KINDS = ("crash", "disconnect", "delay", "drop_frame")


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``step`` is the 1-based ordinal of the guarded operation (RUN frames
    for a worker agent, requests for a server).  ``sticky`` faults fire
    at ``step`` *and every step after it* — a crashed process stays
    crashed.
    ``arg`` carries the kind's parameter (seconds for ``delay``).
    """

    kind: str
    step: int
    arg: float = 0.0
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.step < 1:
            raise ValueError(f"fault step must be >= 1, got {self.step}")

    def to_spec(self) -> str:
        spec = f"{self.kind}@{self.step}"
        if self.sticky:
            spec += "+"
        if self.arg:
            spec += f":{self.arg:g}"
        return spec


class FaultPlan:
    """A deterministic schedule of :class:`Fault` events.

    Plans are immutable; the per-site step counter lives in
    :class:`FaultInjector`.  String spec grammar (comma-separated)::

        <kind>@<step>            fire once at step
        <kind>@<step>+           fire at step and every later step
        <kind>@<step>:<arg>      with a parameter (delay seconds)

    e.g. ``"delay@2:0.5,drop_frame@4,crash@7+"``.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        ordered = sorted(faults, key=lambda f: (f.step, f.kind))
        self._exact: Dict[int, Fault] = {
            f.step: f for f in ordered if not f.sticky
        }
        self._sticky: List[Fault] = [f for f in ordered if f.sticky]
        self._faults = tuple(ordered)

    # -- constructors --------------------------------------------------- #
    @classmethod
    def crash_after(cls, n: int) -> "FaultPlan":
        """Crash on the Nth guarded step and every one after it
        (``crash@N+``: a dead process stays dead until something restarts
        it)."""
        return cls([Fault("crash", int(n), sticky=True)])

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse the string grammar; ``None``/empty yields an empty plan."""
        if not spec:
            return cls()
        faults: List[Fault] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                kind, _, rest = token.partition("@")
                step_part, _, arg_part = rest.partition(":")
                sticky = step_part.endswith("+")
                if sticky:
                    step_part = step_part[:-1]
                faults.append(
                    Fault(
                        kind=kind.strip(),
                        step=int(step_part),
                        arg=float(arg_part) if arg_part else 0.0,
                        sticky=sticky,
                    )
                )
            except ValueError as exc:
                raise ValueError(
                    f"bad fault spec token {token!r} "
                    f"(grammar: kind@step[+][:arg]): {exc}"
                ) from None
        return cls(faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        steps: int,
        rate: float = 0.25,
        kinds: Sequence[str] = FAULT_KINDS,
        max_delay_s: float = 0.5,
        start: int = 1,
    ) -> "FaultPlan":
        """A pseudo-random schedule, fully determined by ``seed``.

        Each step in ``[start, start + steps)`` independently carries a
        fault with probability ``rate``; kinds are drawn uniformly from
        ``kinds``.  ``crash`` faults are never emitted sticky here — a
        seeded soak wants the process flapping, not gone.
        """
        rng = random.Random(seed)
        faults: List[Fault] = []
        for step in range(start, start + steps):
            if rng.random() >= rate:
                continue
            kind = kinds[rng.randrange(len(kinds))]
            arg = (
                round(rng.uniform(0.05, max_delay_s), 3)
                if kind == "delay"
                else 0.0
            )
            faults.append(Fault(kind=kind, step=step, arg=arg))
        return cls(faults)

    # -- queries -------------------------------------------------------- #
    def at(self, step: int) -> Optional[Fault]:
        """The fault scheduled at ``step`` (exact beats sticky), if any."""
        fault = self._exact.get(step)
        if fault is not None:
            return fault
        for sticky in self._sticky:
            if step >= sticky.step:
                return sticky
        return None

    @property
    def faults(self) -> Tuple[Fault, ...]:
        return self._faults

    def kinds_scheduled(self) -> Tuple[str, ...]:
        return tuple(sorted({f.kind for f in self._faults}))

    def to_spec(self) -> str:
        return ",".join(f.to_spec() for f in self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    def __bool__(self) -> bool:
        return bool(self._faults)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self._faults == other._faults

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.to_spec()!r})"


class FaultInjector:
    """The per-site step counter over a :class:`FaultPlan`.

    ``step()`` advances the counter and returns the fault due now (or
    ``None``); every fired fault is recorded in :attr:`fired` so a
    harness can assert coverage ("≥ 1 fault of each kind exercised").
    Thread-safe — serve handlers step it from multiple connections.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        *,
        log: Optional[Callable[[Fault, int], None]] = None,
    ) -> None:
        self.plan = plan or FaultPlan()
        self.log = log
        self.steps = 0
        self.fired: List[Fault] = []
        self._lock = threading.Lock()

    def step(self) -> Optional[Fault]:
        with self._lock:
            self.steps += 1
            fault = self.plan.at(self.steps)
            if fault is not None:
                self.fired.append(fault)
                step = self.steps
        if fault is not None and self.log is not None:
            self.log(fault, step)
        return fault

    def kinds_fired(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted({f.kind for f in self.fired}))

    def __bool__(self) -> bool:
        return bool(self.plan)
