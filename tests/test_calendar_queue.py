"""Property tests (hypothesis): the engine's event queue pops in exact
``(when, seq)`` order for every push/pop interleaving the engine can
produce.

The engine's contract with its queue: pushes carry a strictly increasing
``seq``, and a push never carries a timestamp earlier than the most
recently popped one (virtual time is monotone) — except across a
bounded-run pushback, where the engine re-pushes the overshooting event
with its *original* seq. The reference here is a plain list sorted by
``(when, seq)``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.eventq import make_queue

# Offsets mix exact ties (0.0), sub-microsecond jitter, and far-future jumps.
_offsets = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-9, 4.2e-6, 1e-3, 1.0, 3600.0, 1e9]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False))

_batches = st.lists(
    st.tuples(st.lists(_offsets, max_size=8),
              st.integers(min_value=0, max_value=10)),
    min_size=1, max_size=12)


def _pop_ref(ref):
    ref.sort(key=lambda ev: (ev[0], ev[1]))
    return ref.pop(0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=64),
       when=st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                      allow_infinity=False))
def test_same_timestamp_ties_pop_fifo(n, when):
    """All-equal timestamps must drain in exact insertion (seq) order."""
    q = make_queue()
    for seq in range(1, n + 1):
        q.push(when, seq, seq)
    assert [q.pop()[1] for _ in range(n)] == list(range(1, n + 1))
    assert len(q) == 0 and not q


@settings(max_examples=100, deadline=None, derandomize=True)
@given(batches=_batches,
       until=st.floats(min_value=0.0, max_value=20.0, allow_nan=False,
                       allow_infinity=False))
def test_rewind_after_bounded_run_pushback(batches, until):
    """Emulate Engine.run(until): pop to the bound, push the overshooting
    event back under its original seq, then keep scheduling from
    ``until`` — order must still match the ``(when, seq)`` reference."""
    q, ref = make_queue(), []
    seq = 0
    for pushes, _ in batches:
        for off in pushes:
            seq += 1
            q.push(off, seq, seq)
            ref.append((off, seq, seq))
    now = 0.0
    while ref:
        expected = _pop_ref(ref)
        got = q.pop()
        assert got == expected
        if got[0] > until:
            q.push(*got)
            ref.append(got)
            now = until
            break
        now = got[0]
    # Resume with new events scheduled from the bound, as a fresh run would.
    for off in (0.0, 1e-6, 0.5):
        seq += 1
        q.push(now + off, seq, seq)
        ref.append((now + off, seq, seq))
    while ref:
        assert q.pop() == _pop_ref(ref)
    assert len(q) == 0 and not q
