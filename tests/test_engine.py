"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import SimulationError
from repro.obs import Telemetry
from repro.sim.engine import Event, PeriodicTask, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(0.5, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.25]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run()
        event_times = []
        sim.schedule_at(0.5, lambda: event_times.append(sim.now))
        sim.run()
        assert event_times == [0.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(0.1, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == pytest.approx(0.3)


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "early")
        sim.schedule(0.9, fired.append, "late")
        sim.run(until=0.5)
        assert fired == ["early"]
        assert sim.now == 0.5

    def test_later_events_survive_for_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.9, fired.append, "late")
        sim.run(until=0.5)
        sim.run(until=1.0)
        assert fired == ["late"]

    def test_clock_advances_to_until_even_when_empty(self):
        sim = Simulator()
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_max_events_caps_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert fired == [0, 1, 2, 3]

    def test_run_returns_processed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(0.1, lambda: None)
        assert sim.run() == 5

    def test_max_events_does_not_advance_clock_to_until(self):
        # Regression: run(until=..., max_events=...) used to jump the clock
        # to `until` even when the cap fired mid-calendar, so the next
        # run() would refuse to schedule "in the past".
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        processed = sim.run(until=1.0, max_events=4)
        assert processed == 4
        assert sim.now == pytest.approx(0.4)
        # The remaining events are still runnable from where we stopped.
        sim.run(until=1.0)
        assert fired == list(range(10))
        assert sim.now == 1.0

    def test_until_still_advances_clock_when_cap_not_hit(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run(until=2.0, max_events=5)
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(0.1, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_events_not_counted_pending(self):
        sim = Simulator()
        e1 = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        e1.cancel()
        assert sim.pending_events() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        e1 = sim.schedule(0.1, lambda: None)
        sim.schedule(0.7, lambda: None)
        e1.cancel()
        assert sim.peek_time() == pytest.approx(0.7)

    def test_peek_time_empty_calendar(self):
        assert Simulator().peek_time() is None


class TestHeapCompaction:
    def test_mass_cancellation_compacts_calendar(self):
        sim = Simulator()
        events = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # >50% tombstones on a >=64-slot heap triggers an in-place rebuild;
        # afterwards tombstones may accumulate again but never outnumber
        # the live events.
        assert sim.compactions >= 1
        assert sim.pending_events() == 50
        tombstones = sim.calendar_size() - sim.pending_events()
        assert tombstones <= sim.pending_events()

    def test_small_calendars_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule(0.1, lambda: None) for i in range(20)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        keep = []
        cancel = []
        for i in range(300):
            event = sim.schedule(0.001 * (i + 1), fired.append, i)
            (cancel if i % 3 else keep).append((i, event))
        for _, event in cancel:
            event.cancel()
        assert sim.compactions >= 1
        sim.run()
        assert fired == [i for i, _ in keep]

    def test_compaction_during_run_is_safe(self):
        sim = Simulator()
        fired = []
        victims = []

        def cancel_most():
            for event in victims:
                event.cancel()

        sim.schedule(0.01, cancel_most)
        for i in range(200):
            victims.append(sim.schedule(1.0 + 0.01 * i, fired.append, i))
        survivor = sim.schedule(5.0, fired.append, "end")
        del survivor
        sim.run()
        assert fired == ["end"]


class TestScheduleFire:
    def test_fire_and_forget_executes(self):
        sim = Simulator()
        fired = []
        sim.schedule_fire(0.2, fired.append, "b")
        sim.schedule_fire(0.1, fired.append, "a")
        sim.run()
        assert fired == ["a", "b"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_fire(-0.1, lambda: None)

    def test_interleaves_deterministically_with_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "handle")
        sim.schedule_fire(0.1, fired.append, "fire")
        sim.run()
        assert fired == ["handle", "fire"]

    def test_equal_times_fire_in_call_order_without_comparing_callbacks(self):
        # Lambdas and Event handles are unorderable: were a heap comparison
        # ever to get past (time, seq) it would raise TypeError.
        sim = Simulator()
        fired = []
        for i in range(50):
            schedule = sim.schedule if i % 2 else sim.schedule_fire
            schedule(0.5, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(50))

    def test_calendar_never_compares_event_handles(self):
        assert "__lt__" not in vars(Event)

    def test_fire_chain_builds_no_event_objects(self, monkeypatch):
        # Fire-and-forget entries are bare tuples: a 10k-link
        # self-rescheduling chain must not construct one Event handle.
        built = []
        init = Event.__init__

        def counting_init(event, *args):
            built.append(event)
            init(event, *args)

        monkeypatch.setattr(Event, "__init__", counting_init)
        sim = Simulator()
        remaining = [10_000]

        def chain():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule_fire(1e-6, chain)

        sim.schedule_fire(1e-6, chain)
        assert sim.run() == 10_000
        assert not built
        sim.schedule(1e-6, chain)  # the counter does see a real handle
        assert len(built) == 1


class TestTimeGuards:
    @pytest.mark.parametrize(
        "method", ["schedule", "schedule_at", "schedule_fire", "schedule_fire_at"]
    )
    def test_nan_time_rejected(self, method):
        # NaN compares false with everything: `nan < 0` let it through,
        # and a NaN key breaks the heap order of everything around it.
        sim = Simulator()
        with pytest.raises(SimulationError):
            getattr(sim, method)(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_advance_to_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.advance_to(float("nan"))
        assert sim.now == 0.0

    def test_infinite_time_is_legal_and_never_fires_in_a_bounded_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(math.inf, fired.append, "never")
        sim.schedule_fire_at(math.inf, fired.append, "never")
        sim.schedule(1.0, fired.append, "one")
        assert sim.run(until=3.0) == 1
        assert fired == ["one"]
        assert sim.now == 3.0
        assert sim.pending_events() == 2
        assert sim.peek_time() == math.inf


class TestCancelledHeadBeyondUntil:
    """A tombstone on top of the heap whose time lies past the horizon
    must not stand in for the live calendar behind it."""

    def _calendar(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(5.0, fired.append, "cancelled")
        sim.schedule(7.0, fired.append, "late")
        head.cancel()
        return sim, fired

    def test_run_until(self):
        sim, fired = self._calendar()
        assert sim.run(until=1.0) == 0
        assert sim.now == 1.0
        assert sim.run(until=8.0) == 1
        assert fired == ["late"]

    def test_peek_time(self):
        sim, _ = self._calendar()
        assert sim.peek_time() == 7.0

    def test_advance_to(self):
        sim, _ = self._calendar()
        sim.advance_to(6.0)  # past the tombstone, short of the live event
        assert sim.now == 6.0
        with pytest.raises(SimulationError):
            sim.advance_to(7.5)


class TestProfiledLoopParity:
    @staticmethod
    def _script(sim):
        """One calendar exercising ties, handles, fire-and-forget events,
        cancellation (before and during the run) and nested scheduling,
        driven through both stop conditions."""
        log = []

        def note(label):
            log.append((label, sim.now))

        def spawn(label):
            note(label)
            sim.schedule_fire(0.0, note, label + "/now")
            sim.schedule(0.25, note, label + "/later")

        victims = [sim.schedule(0.5 + 0.01 * i, note, f"victim{i}") for i in range(80)]
        sim.schedule(0.1, spawn, "a")
        sim.schedule_fire(0.1, spawn, "b")
        sim.schedule(0.3, lambda: [v.cancel() for v in victims[:70]])
        victims[75].cancel()
        sim.schedule_fire_at(2.0, note, "end")
        counts = [sim.run(max_events=3), sim.run(until=0.6), sim.run()]
        return log, counts, sim.now, sim.compactions

    def test_plain_and_profiled_loops_run_the_same_callbacks(self):
        plain = self._script(Simulator())
        tele = Telemetry(profile=True)
        profiled = self._script(Simulator(telemetry=tele))
        assert plain == profiled
        assert tele.profiler.events_executed == sum(plain[1])


DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 4.0])


class CalendarMachine(RuleBasedStateMachine):
    """The calendar against a sorted-list reference model.

    Delays are dyadic so the model's ``now + delay`` is exact and ties
    are common; the model keeps ``[time, seq, state]`` rows and
    fires the live ones in ``(time, seq)`` order.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.fired = []
        self.rows = []  # [time, seq, "live" | "cancelled" | "fired"]; seq is the label
        self.handles = []  # (Event, row)
        self.model_now = 0.0
        self.model_fired = []
        self.tombstone_cap = 0

    def _add(self, delay, cancellable):
        row = [self.model_now + delay, len(self.rows), "live"]
        self.rows.append(row)
        if cancellable:
            self.handles.append((self.sim.schedule(delay, self.fired.append, row[1]), row))
        else:
            self.sim.schedule_fire(delay, self.fired.append, row[1])

    def _live(self):
        return sorted(row for row in self.rows if row[2] == "live")

    def _model_fire(self, rows):
        for row in rows:
            row[2] = "fired"
            self.model_now = row[0]
            self.model_fired.append(row[1])

    def _tombstones(self):
        return self.sim.calendar_size() - self.sim.pending_events()

    @rule(delay=DELAYS)
    def schedule(self, delay):
        self._add(delay, cancellable=True)

    @rule(delay=DELAYS)
    def schedule_fire(self, delay):
        self._add(delay, cancellable=False)

    @rule(delays=st.lists(DELAYS, min_size=40, max_size=90))
    def schedule_burst(self, delays):
        for delay in delays:
            self._add(delay, cancellable=True)

    def _cancel(self, indices):
        for index in indices:
            event, row = self.handles[index]
            event.cancel()
            if row[2] == "live":
                row[2] = "cancelled"
                # The compaction bound (docs/PERFORMANCE.md §1.1), checked
                # where tombstones are made.
                assert self._tombstones() <= max(
                    self.sim.pending_events(), Simulator.COMPACT_MIN_CALENDAR)
        self.tombstone_cap = self._tombstones()

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        # Any handle ever returned: cancelling a fired or already-cancelled
        # event must be a no-op.
        self._cancel(data.draw(st.lists(
            st.integers(0, len(self.handles) - 1), min_size=1, max_size=8)))

    @rule(keep_every=st.integers(2, 9))
    def cancel_most(self, keep_every):
        # The RTO pattern: enough tombstones at once to force compaction.
        self._cancel(i for i in range(len(self.handles)) if i % keep_every)

    @rule(span=DELAYS)
    def run_until(self, span):
        until = self.model_now + span
        due = [row for row in self._live() if row[0] <= until]
        assert self.sim.run(until=until) == len(due)
        self._model_fire(due)
        self.model_now = until

    @rule(cap=st.integers(1, 30))
    def run_max_events(self, cap):
        due = self._live()[:cap]
        assert self.sim.run(max_events=cap) == len(due)
        self._model_fire(due)

    @rule()
    def peek_time(self):
        live = self._live()
        assert self.sim.peek_time() == (live[0][0] if live else None)

    @invariant()
    def agrees_with_model(self):
        assert self.fired == self.model_fired
        assert self.sim.now == self.model_now
        assert self.sim.pending_events() == len(self._live())
        # Only cancel() makes tombstones; pops can only remove them.
        assert self._tombstones() <= self.tombstone_cap


TestCalendarMachine = CalendarMachine.TestCase
TestCalendarMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestPeriodicTask:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now))
        sim.run(until=0.35)
        assert ticks == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]

    def test_stop_prevents_future_fires(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now))
        sim.run(until=0.15)
        task.stop()
        sim.run(until=1.0)
        assert len(ticks) == 1

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = PeriodicTask(sim, 0.1, tick)
        sim.run(until=1.0)
        assert len(ticks) == 2

    def test_custom_start_delay(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=0.25)
        assert ticks[0] == pytest.approx(0.0)

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0.0, lambda: None)

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.1, nested)
        sim.run()
