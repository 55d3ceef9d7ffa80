"""Deterministic discrete-event simulation engine.

The engine is a classic calendar built on :mod:`heapq`. Three properties
matter for reproducing the paper:

* **Determinism** — ties in event time are broken by insertion order, so the
  same scenario with the same seeds produces the same packet trace.
* **Cancellation** — TCP retransmission timers are cancelled far more often
  than they fire; cancelled events are tombstoned and skipped on pop, and
  the calendar is compacted in place whenever tombstones outnumber live
  events (see ``docs/PERFORMANCE.md``).
* **Speed** — calendar entries are plain tuples ``(time, seq, fn, args)``,
  so :mod:`heapq` orders them by comparing a float and (on ties) an int in
  C; ``seq`` is unique, so the comparison never reaches ``fn``.
  Fire-and-forget events (:meth:`Simulator.schedule_fire`) are nothing but
  that tuple; cancellable ones put ``None`` in the ``fn`` slot and their
  :class:`Event` handle in the ``args`` slot (see ``docs/PERFORMANCE.md``).

The simulator also carries the run's :class:`~repro.obs.Telemetry`: the
profiler (when attached) swaps the run loop for an instrumented variant,
and components reach the trace bus / metrics registry via
``sim.telemetry``.

**Execution modes.** The engine itself is mode-agnostic — it only ever
pops the next event. Two subsystems restructure *what gets scheduled*
on top of it, and they compose differently:

* the **fluid fast path** (:mod:`repro.sim.fluid`) pauses per-packet
  machinery on stable backlogged links and jumps the clock with
  :meth:`Simulator.advance_to` — one simulator, fewer events;
* **sharding** (:mod:`repro.sim.shard`) runs one simulator per
  partition in lockstep epochs of :meth:`Simulator.run` bounded by the
  conservative lookahead, with cross-partition arrivals re-entering via
  :meth:`Simulator.schedule_fire_at` at barriers.

Telemetry composes with both. Fluid and sharding are mutually
exclusive: fluid's analytic epochs advance links past barrier times,
which would violate the capture-before-barrier invariant sharding's
determinism contract rests on (see ``docs/SCALING.md`` §7).
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Any, Callable, Optional

from ..errors import SimulationError


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Instances are handles: the only public operations are :meth:`cancel`
    and inspecting :attr:`time` / :attr:`cancelled`. The calendar orders
    its entries by the ``(time, seq)`` prefix of the tuple that carries
    the handle, never by comparing handles.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple, sim: "Simulator"
    ):
        self.time = time
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # ``fn`` is None once the run loop has consumed the event, so the
        # live-event counter only moves for genuinely pending events.
        if self.fn is not None:
            # Drop references early so cancelled timers do not pin packets
            # alive while their tombstones wait in the heap.
            self.fn = None
            self.args = ()
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {state}>"


class Simulator:
    """The event loop that every simulated component shares.

    Typical use::

        sim = Simulator()
        sim.schedule(0.001, my_callback, arg1, arg2)
        sim.run(until=1.0)

    ``telemetry`` defaults to the ambient instance installed by
    :meth:`repro.obs.Telemetry.activate` (so a CLI flag can instrument
    scenarios that build their own simulators), falling back to a fresh
    disabled instance.
    """

    #: Compaction does not kick in below this calendar size: rebuilding a
    #: tiny heap costs more than skipping its tombstones ever will.
    COMPACT_MIN_CALENDAR = 64

    def __init__(self, telemetry=None) -> None:
        #: ``(time, seq, fn, args)`` entries; a cancellable event is
        #: ``(time, seq, None, event)``.
        self._heap: list[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._live = 0
        self.compactions = 0
        #: Fault-event observers (see :meth:`add_fault_listener`). Kept off
        #: the run-loop hot path entirely: the list is only walked when a
        #: fault injector calls :meth:`notify_fault`.
        self._fault_listeners: list[Callable[[Any], None]] = []
        if telemetry is None:
            from ..obs.telemetry import Telemetry, get_active_telemetry

            telemetry = get_active_telemetry()
            if telemetry is None:
                telemetry = Telemetry()
        self.telemetry = telemetry
        if telemetry.auditor is not None:
            # One audit ledger per simulation (names and ids repeat).
            telemetry.auditor.begin_run()

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for performance reporting)."""
        return self._events_processed

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        # ``not >=`` rather than ``<`` so a NaN delay is rejected too.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time. ``+inf``
        is legal: the event never fires inside a bounded run."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, fn, args, self)
        heapq.heappush(self._heap, (time, seq, None, event))
        self._live += 1
        return event

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned and the
        event can never be cancelled, so the calendar entry is just the
        tuple ``(time, seq, fn, args)`` and no :class:`Event` is built.
        Use this for hot-path events whose handle would be discarded
        anyway (packet deliveries, serialization completions)."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, fn, args))
        self._live += 1

    def schedule_fire_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fire`."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))
        self._live += 1

    # -- fault events ------------------------------------------------------------

    def add_fault_listener(self, listener: Callable[[Any], None]) -> None:
        """Register ``listener(fault_event)`` to run whenever an injected
        fault fires in this simulation (see :mod:`repro.faults`). The
        engine itself never originates faults; this is the rendezvous
        point between the injector and components (recovery managers,
        meters) that need to observe topology state changes without the
        injector knowing about them."""
        self._fault_listeners.append(listener)

    def notify_fault(self, fault_event: Any) -> None:
        """Deliver ``fault_event`` to every registered listener, in
        registration order. Called by the fault injector at the moment a
        scheduled fault is applied."""
        for listener in self._fault_listeners:
            listener(fault_event)

    # -- execution ---------------------------------------------------------------

    def _note_cancel(self) -> None:
        """Bookkeeping for one cancellation; compacts the calendar when
        tombstones outnumber live events (>50% of a non-trivial heap)."""
        self._live -= 1
        heap = self._heap
        size = len(heap)
        if size >= self.COMPACT_MIN_CALENDAR and (size - self._live) * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the calendar without its tombstones.

        Mutates the heap list *in place* so the run loop's local alias
        stays valid, and re-heapifies; pop order is unaffected because
        ordering is total on ``(time, seq)``."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self.compactions += 1

    def calendar_size(self) -> int:
        """Number of heap slots in use, tombstones included (for tests
        and the hot-path benchmarks; compare with :meth:`pending_events`)."""
        return len(self._heap)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the calendar drains, ``until`` is reached,
        or ``max_events`` have executed.

        Returns the number of events processed by this call. The clock is
        advanced to ``until`` when provided and the calendar drained (or
        only holds later events), so periodic samplers observe a consistent
        end time — but **not** when the ``max_events`` cap stopped the run
        early: then the clock stays at the last processed event so the
        remaining work can resume where it left off.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        profiler = self.telemetry.profiler if self.telemetry is not None else None
        processed = 0
        hit_cap = False
        try:
            if profiler is None:
                heap = self._heap
                pop = heapq.heappop
                while heap:
                    time, _, fn, args = heap[0]
                    if fn is None and args.cancelled:
                        pop(heap)
                        continue
                    if until is not None and time > until:
                        break
                    pop(heap)
                    if fn is None:
                        # Cancellable: consume the handle, so a late
                        # cancel() is a no-op and nothing stays pinned.
                        event = args
                        fn, args = event.fn, event.args
                        event.fn, event.args = None, ()
                    self._live -= 1
                    self._now = time
                    fn(*args)
                    processed += 1
                    self._events_processed += 1
                    if max_events is not None and processed >= max_events:
                        hit_cap = True
                        break
            else:
                processed, hit_cap = self._run_profiled(until, max_events, profiler)
        finally:
            self._running = False
        if until is not None and not hit_cap and self._now < until:
            self._now = until
        return processed

    def _run_profiled(
        self,
        until: Optional[float],
        max_events: Optional[int],
        profiler,
    ) -> "tuple[int, bool]":
        """Run-loop variant that times every callback for the profiler.
        Returns ``(processed, hit_cap)``."""
        heap = self._heap
        pop = heapq.heappop
        perf = _time.perf_counter
        site_name = profiler.site_name
        processed = 0
        hit_cap = False
        start_sim = self._now
        run_start = perf()
        try:
            while heap:
                time, _, fn, args = heap[0]
                if fn is None and args.cancelled:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    break
                profiler.note_heap_depth(len(heap))
                pop(heap)
                if fn is None:
                    event = args
                    fn, args = event.fn, event.args
                    event.fn, event.args = None, ()
                self._live -= 1
                self._now = time
                site = site_name(fn)
                t0 = perf()
                fn(*args)
                profiler.record_callback(site, perf() - t0)
                processed += 1
                self._events_processed += 1
                if max_events is not None and processed >= max_events:
                    hit_cap = True
                    break
        finally:
            if hit_cap or until is None or until <= self._now:
                end_sim = self._now
            else:
                end_sim = until
            profiler.note_run(processed, perf() - run_start, end_sim - start_sim)
        return processed, hit_cap

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the calendar is empty."""
        heap = self._heap
        # Tombstones at the head are not pending: drop them first.
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def advance_to(self, time: float) -> None:
        """Jump the clock straight to ``time`` without processing events.

        This is the fluid fast path's epoch skip: the caller has advanced
        the world analytically and only needs the clock to agree. It is an
        error to jump backwards, to jump past a pending event (that event
        would then fire in the past), or to call this from inside a
        callback (the run loop owns the clock while it is running).
        """
        if self._running:
            raise SimulationError("advance_to cannot be called from inside run()")
        if not time >= self._now:
            raise SimulationError(
                f"advance_to would move the clock backwards ({time} < {self._now})"
            )
        nxt = self.peek_time()
        if nxt is not None and nxt < time:
            raise SimulationError(
                f"advance_to({time}) would skip a pending event at {nxt}"
            )
        self._now = time

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the calendar. O(1): a live
        counter is maintained on schedule/cancel/pop."""
        return self._live


class PeriodicTask:
    """Re-arms ``fn()`` every ``interval`` seconds until :meth:`stop`.

    Used by the weighted-mode allocator, ElasticSwitch's adjustment loop,
    and throughput samplers.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[[], Any],
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._stopped = False
        self._event: Optional[Event] = sim.schedule(
            interval if start_delay is None else start_delay, self._fire
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Cancel the task; the callback will not fire again."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def interval(self) -> float:
        return self._interval
