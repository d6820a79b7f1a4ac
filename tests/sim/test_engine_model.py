"""Model-based test of the event engine against a sorted-list reference.

Random programs mix ``schedule``/``schedule_at`` (equal and fractional
times), ``cancel`` of the heap head, of buried and of fired events,
``reschedule``, ``stop()`` from inside a callback, ``step()`` and
``run(until=...)``.  After every operation the engine's firing order,
``now``, ``peek()`` and ``pending_events()`` must equal the model's.

The engine must also fire every event of a ``run()`` through exactly one
``step()`` call: the benchmark's traced run counts events by wrapping
``Engine.step`` on the class, so inlining it into ``run()`` fails here.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError

# CI raises the count in the perf-smoke job (ENGINE_MODEL_EXAMPLES); the
# default keeps the tier-1 suite fast.
EXAMPLES = int(os.environ.get("ENGINE_MODEL_EXAMPLES", "150"))


class Model:
    """Reference engine: a list of ``[time, seq, kind, state]`` entries."""

    def __init__(self):
        self.entries, self.fired, self.now, self.seq = [], [], 0, 0
        self.stopped = False

    def add(self, time, kind):
        self.seq += 1
        self.entries.append([time, self.seq, kind, "pending"])
        return self.entries[-1]

    def head(self):
        live = [e for e in self.entries if e[3] == "pending"]
        return min(live, key=lambda e: (e[0], e[1])) if live else None

    def step(self):
        entry = self.head()
        if entry is None:
            return False
        self.now, entry[3] = entry[0], "fired"
        self.fired.append(self.entries.index(entry))
        if entry[2] == "stop":
            self.stopped = True
        elif entry[2] != "plain":
            self.add(self.now + entry[2], "plain")
        return True

    def run(self, until):
        self.stopped, steps = False, 0
        while not self.stopped:
            entry = self.head()
            if entry is None or (until is not None and entry[0] > until):
                break
            steps += self.step()
        if until is not None and self.now < until:
            self.now = int(until)
        return steps


times = st.one_of(st.integers(0, 6),
                  st.floats(0, 6, allow_nan=False, allow_infinity=False))
kinds = st.one_of(st.just("plain"), st.just("stop"), st.integers(0, 3))
ops = st.one_of(
    st.tuples(st.just("schedule"), times, kinds),
    st.tuples(st.just("schedule_at"), times, kinds),
    st.tuples(st.just("cancel_head")),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.tuples(st.just("reschedule"), st.integers(0, 60), times),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.one_of(st.none(), times)),
)


class CountingStep:
    """Wraps ``Engine.step`` on the class, as the benchmark's tracer does."""

    def __enter__(self):
        self.calls = 0
        self.original = original = Engine.step

        def step(engine):
            self.calls += 1
            return original(engine)

        Engine.step = step
        return self

    def __exit__(self, *exc):
        Engine.step = self.original
        return False


def _apply(op, engine, model, events, fired, counter):
    """Run one operation on both sides; returns nothing, asserts inline."""
    name = op[0]

    def callback(index, kind):
        fired.append(index)
        if kind == "stop":
            engine.stop()
        elif kind != "plain":
            events.append(engine.schedule(kind, callback, len(events),
                                          "plain"))

    if name in ("schedule", "schedule_at"):
        _, offset, kind = op
        if name == "schedule":
            event = engine.schedule(offset, callback, len(events), kind)
            model.add(model.now + int(offset), kind)
        else:
            event = engine.schedule_at(engine.now + offset, callback,
                                       len(events), kind)
            model.add(math.ceil(model.now + offset), kind)
        events.append(event)
    elif name == "cancel_head":
        entry = model.head()
        if entry is not None:
            events[model.entries.index(entry)].cancel()
            entry[3] = "cancelled"
    elif name == "cancel" and events:
        index = op[1] % len(events)
        events[index].cancel()
        if model.entries[index][3] == "pending":
            model.entries[index][3] = "cancelled"
    elif name == "reschedule" and events:
        index, offset = op[1] % len(events), op[2]
        entry = model.entries[index]
        if entry[3] != "fired":
            with pytest.raises(SimulationError):
                engine.reschedule(events[index], engine.now + offset)
        else:
            engine.reschedule(events[index], engine.now + offset)
            model.seq += 1
            entry[0], entry[1] = math.ceil(model.now + offset), model.seq
            entry[3] = "pending"
    elif name == "step":
        assert engine.step() == model.step()
    elif name == "run":
        until = None if op[1] is None else engine.now + op[1]
        before = counter.calls
        engine.run(until=until)
        steps = model.run(until)
        assert counter.calls - before == steps


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.lists(ops, max_size=40))
def test_engine_matches_sorted_list_model(program):
    engine, model = Engine(seed=0), Model()
    events, fired = [], []
    with CountingStep() as counter:
        for op in program:
            _apply(op, engine, model, events, fired, counter)
            assert fired == model.fired
            assert engine.now == model.now
            head = model.head()
            assert engine.peek() == (None if head is None else head[0])
            live = sum(1 for e in model.entries if e[3] == "pending")
            assert engine.pending_events() == live
        # Drain: whatever is left fires in model order.
        before = counter.calls
        engine.run()
        assert counter.calls - before == model.run(None)
    assert fired == model.fired
    assert engine.now == model.now


def test_run_fires_each_event_through_one_class_level_step_call():
    engine = Engine(seed=0)
    seen = []
    for delay in (5, 1, 1, 3):
        engine.schedule(delay, seen.append, delay)
    engine.schedule(2, lambda: None).cancel()
    with CountingStep() as counter:
        engine.run()
    assert seen == [1, 1, 3, 5]
    assert counter.calls == 4
