"""Property tests for :class:`repro.simcore.events.EventQueue`.

Random interleavings of push / pop / cancel / peek_time must preserve the
queue's contract regardless of schedule shape:

* pops come out in nondecreasing ``(time, priority, seq)`` order,
* ``len()`` always equals the number of live (pushed − popped − cancelled)
  events,
* ``cancel`` is idempotent and skips exactly the cancelled events,
* ``peek_time`` is read-only: it never changes what pops afterwards.

``take`` and ``reinsert`` (the schedule controller's and the engine's
horizon pause's entry points) are checked against a sorted-list model of
the live events: taking one of several tied events, re-queueing a popped
event in its original ``seq`` slot, time-warping a taken event, and
peeking past cancelled heads.
"""

from hypothesis import given, settings, strategies as st

from repro.simcore.events import EventQueue

# One queue operation: (op, payload).  Payloads index previously pushed
# events for cancel, or give (time, priority) for push.
_push = st.tuples(
    st.just("push"),
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=20),
    ),
)
_pop = st.tuples(st.just("pop"), st.none())
_cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200))
_peek = st.tuples(st.just("peek"), st.none())

_ops = st.lists(st.one_of(_push, _pop, _cancel, _peek), max_size=120)


def _apply(q, ops):
    """Run an op sequence; returns (pushed, popped, cancelled_live) lists.

    ``cancelled_live`` holds the events that were cancelled while still in
    the queue — cancelling an event that already popped is legal but must
    not (and cannot) un-deliver it.
    """
    pushed, popped, cancelled_live = [], [], []
    shadow = {}  # id -> event, the events a correct queue still owes us
    for op, payload in ops:
        if op == "push":
            t, prio = payload
            ev = q.push(t, lambda: None, priority=prio)
            pushed.append(ev)
            shadow[id(ev)] = ev
        elif op == "pop":
            ev = q.pop()
            if ev is None:
                assert not shadow
            else:
                # Each pop must return the *minimum* live key of the moment
                # (global sortedness only holds without interleaved pushes).
                best = min(
                    (e.time, e.priority, e.seq) for e in shadow.values()
                )
                assert (ev.time, ev.priority, ev.seq) == best
                popped.append(ev)
                del shadow[id(ev)]
        elif op == "cancel" and pushed:
            target = pushed[payload % len(pushed)]
            if id(target) in shadow:
                cancelled_live.append(target)
                del shadow[id(target)]
            q.cancel(target)
        elif op == "peek":
            t = q.peek_time()
            if shadow:
                assert t == min(e.time for e in shadow.values())
            else:
                assert t is None
    return pushed, popped, cancelled_live


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_pops_nondecreasing_and_len_matches(ops):
    q = EventQueue()
    pushed, popped, cancelled_live = _apply(q, ops)

    # Drain what's left: with no more pushes interleaved, the tail of the
    # pop sequence must come out in nondecreasing (time, priority, seq).
    drained = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        drained.append(ev)
    assert len(q) == 0

    keys = [(ev.time, ev.priority, ev.seq) for ev in drained]
    assert keys == sorted(keys)
    popped.extend(drained)
    # Exactly the never-live-cancelled events come out, each exactly once:
    live_cancelled_ids = {id(ev) for ev in cancelled_live}
    assert all(id(ev) not in live_cancelled_ids for ev in popped)
    expected = [ev for ev in pushed if id(ev) not in live_cancelled_ids]
    assert sorted(ev.seq for ev in popped) == sorted(ev.seq for ev in expected)


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_len_counts_live_events_at_every_step(ops):
    q = EventQueue()
    pushed, popped = [], []
    for op, payload in ops:
        if op == "push":
            t, prio = payload
            pushed.append(q.push(t, lambda: None, priority=prio))
        elif op == "pop":
            ev = q.pop()
            if ev is not None:
                popped.append(ev)
        elif op == "cancel" and pushed:
            q.cancel(pushed[payload % len(pushed)])
        elif op == "peek":
            q.peek_time()
        n_popped = len(popped)
        popped_ids = {id(ev) for ev in popped}
        n_cancelled_unpopped = sum(
            1 for ev in pushed if ev.cancelled and id(ev) not in popped_ids
        )
        assert len(q) == len(pushed) - n_popped - n_cancelled_unpopped


@given(_ops, st.integers(min_value=0, max_value=200))
@settings(max_examples=150, deadline=None)
def test_cancel_is_idempotent(ops, idx):
    q = EventQueue()
    pushed, _, _ = _apply(q, ops)
    if not pushed:
        return
    target = pushed[idx % len(pushed)]
    q.cancel(target)
    n = len(q)
    q.cancel(target)  # double-cancel via the queue
    target.cancel()  # and via the event itself
    q.cancel(target)
    assert len(q) == n
    assert all(ev is not target for ev in iter(q.pop, None))


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_peek_time_never_changes_pop_order(ops):
    a, b = EventQueue(), EventQueue()
    # Same op sequence, but `b` peeks obsessively between every step.
    for op, payload in ops:
        for q, peeky in ((a, False), (b, True)):
            if peeky:
                q.peek_time()
            if op == "push":
                t, prio = payload
                q.push(t, lambda: None, priority=prio)
            elif op == "pop":
                q.pop()
            elif op == "cancel":
                pass  # cancel handles are per-queue; covered elsewhere
            elif op == "peek":
                q.peek_time()
            if peeky:
                q.peek_time()
    # Drain both; peek agrees with pop on the head at every step of `a`.
    seq_a = []
    while True:
        t = a.peek_time()
        ev = a.pop()
        if ev is None:
            assert t is None
            break
        assert t == ev.time
        seq_a.append((ev.time, ev.priority, ev.seq))
    seq_b = [(ev.time, ev.priority, ev.seq) for ev in iter(b.pop, None)]
    assert seq_a == seq_b


# --------------------------------------------------------- take / reinsert
#
# Checked against a sorted-list model of the live events.  Times and
# priorities come from small sets so that equal-(time, priority) ties,
# which only ``seq`` can break, are the common case.

_tie_time = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_tie_prio = st.sampled_from([0, 10, 20])
_model_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.tuples(_tie_time, _tie_prio)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("take"), st.integers(0, 200)),
        st.tuples(st.just("warp"), st.tuples(st.integers(0, 200), _tie_time)),
        st.tuples(st.just("reinsert"), st.integers(0, 200)),
        st.tuples(st.just("peek"), st.none()),
    ),
    max_size=80,
)


def _key(ev):
    return (ev.time, ev.priority, ev.seq)


@given(_model_ops)
@settings(max_examples=200, deadline=None)
def test_take_and_reinsert_match_sorted_model(ops):
    q = EventQueue()
    model = []  # live events, kept sorted by (time, priority, seq)
    out = []  # popped or taken events, eligible for reinsert
    for op, arg in ops:
        if op == "push":
            t, prio = arg
            model.append(q.push(t, lambda: None, priority=prio))
        elif op == "pop":
            ev = q.pop()
            if not model:
                assert ev is None
                continue
            assert ev is model.pop(0)
            out.append(ev)
        elif op == "cancel" and model:
            q.cancel(model.pop(arg % len(model)))
        elif op in ("take", "warp") and model:
            idx = (arg if op == "take" else arg[0]) % len(model)
            ev = model.pop(idx)
            assert q.take(ev) is ev
            if op == "warp":
                # The schedule controller's time-warp: re-stamp a taken
                # event, then queue the same object again.
                ev.time = max(ev.time, arg[1])
                assert q.reinsert(ev) is ev
                model.append(ev)
            else:
                out.append(ev)
        elif op == "reinsert" and out:
            ev = out.pop(arg % len(out))
            seq = ev.seq
            assert q.reinsert(ev) is ev
            assert ev.seq == seq
            model.append(ev)
        elif op == "peek":
            assert q.peek_time() == (model[0].time if model else None)
        model.sort(key=_key)
        assert len(q) == len(model)
        assert sorted(map(_key, q.live_events())) == list(map(_key, model))
    assert list(iter(q.pop, None)) == model
    assert len(q) == 0


@given(st.integers(2, 12), st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_take_one_of_equal_events_keeps_the_others_in_seq_order(n, pick):
    q = EventQueue()
    # Every event shares one (time, priority): only seq orders them.
    evs = [q.push(1.0, lambda: None, priority=10) for _ in range(n)]
    taken = evs[pick % n]
    q.take(taken)
    rest = list(iter(q.pop, None))
    assert rest == [ev for ev in evs if ev is not taken]
    assert [ev.seq for ev in rest] == sorted(ev.seq for ev in rest)


@given(st.lists(st.tuples(_tie_time, _tie_prio), min_size=1, max_size=20),
       st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_reinsert_of_popped_event_keeps_its_seq_slot(entries, n_later):
    q = EventQueue()
    for t, prio in entries:
        q.push(t, lambda: None, priority=prio)
    head = q.pop()
    # Later pushes at the head's own (time, priority) get larger seqs, so
    # the reinserted head must still come out before all of them.
    later = [q.push(head.time, lambda: None, priority=head.priority)
             for _ in range(n_later)]
    q.reinsert(head)
    drained = list(iter(q.pop, None))
    assert [_key(ev) for ev in drained] == sorted(_key(ev) for ev in drained)
    assert drained[0] is head
    assert all(drained.index(head) < drained.index(ev) for ev in later)


@given(st.lists(st.tuples(_tie_time, _tie_prio), min_size=1, max_size=20),
       st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_peek_time_skips_cancelled_heads(entries, n_cancel):
    q = EventQueue()
    evs = sorted((q.push(t, lambda: None, priority=p) for t, p in entries),
                 key=_key)
    # Cancel the first few heads, half through the queue and half through
    # the event handle itself (lazy deletion the queue settles later).
    for i, ev in enumerate(evs[:n_cancel]):
        if i % 2:
            ev.cancel()
        else:
            q.cancel(ev)
    live = evs[n_cancel:]
    assert q.peek_time() == (live[0].time if live else None)
    assert q.peek_time() == (live[0].time if live else None)
    assert len(q) == len(live)
    assert list(iter(q.pop, None)) == live
