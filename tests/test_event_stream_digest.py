"""Bit-for-bit pins of the simulation kernel's executed event stream.

Every paper table is read off runs of the discrete-event kernel, so a
rewrite of the event queue, the network send path or the process dispatch
loop must execute exactly the same events, at exactly the same simulated
times, in exactly the same order.  Each run below is traced with a
:class:`TraceRecorder` keeping only the engine's ``event`` records, and one
sha256 is taken over the ``(time, label)`` of every executed event together
with ``events_executed`` and ``messages_by_type``.

The grid is every registered mechanism on one small collection matrix, plus
three runs that take the kernel's side paths: the communication-thread
polls (threaded), the fault injector's delivery path with the resilience
wrapper (a seeded :class:`FaultPlan`), and the telemetry monitor
(metrics on).
"""

import hashlib

import pytest

from repro import run_factorization
from repro.faults import FaultPlan, LinkFault
from repro.matrices import collection
from repro.mechanisms.registry import available_mechanisms, mechanism_class
from repro.simcore.network import Channel
from repro.simcore.trace import TraceRecorder
from repro.solver.driver import SolverConfig, analyze_problem

MATRIX = "XENON2"
NPROCS = 8

_FAULTY = SolverConfig(
    resilience=True,
    fault_plan=FaultPlan(
        link_faults=(
            LinkFault(channel=Channel.STATE, drop_prob=0.05, dup_prob=0.05,
                      delay_prob=0.1, delay=1e-4),
        ),
        seed_salt=3,
    ),
)

#: run id -> (mechanism, config, sha256 of the event stream).
RUNS = {
    "increments": ("increments", None,
        "326c83789644d2938c042e7069b6c526a8cd480d614c59a7baba11e99d8eb26a"),
    "snapshot": ("snapshot", None,
        "2677c9a6774096d4ea80ad1c9dd3b3a2ddd8b1e472e4b957692fbd56f0246fa3"),
    "naive": ("naive", None,
        "99ed1e5da26f25c7359d4ca55dd291de2a22cad3285337795fb8df73faf72622"),
    "gossip": ("gossip", None,
        "cc68dd5004dbd2227dbf44f8fbb5423a092eccf02ef36b4adff60cb3879d4e34"),
    "neighborhood": ("neighborhood", None,
        "5ce88887706279ce52782fe4bb5a083001bf760fe07dbf1a896fa8f1b4cedd6b"),
    "oracle": ("oracle", None,
        "72651e79d398d573efa76c6e679d643b359c896eca233cf464d9702945a6c436"),
    "partial_snapshot": ("partial_snapshot", None,
        "2677c9a6774096d4ea80ad1c9dd3b3a2ddd8b1e472e4b957692fbd56f0246fa3"),
    "periodic": ("periodic", None,
        "aa51399aba57b1b986ca8d503b980d1e6c7460754af3e5b3d17123c699f07942"),
    "tree_agg": ("tree_agg", None,
        "80bd03e808716b9542bb000ec8ae0532b48f8faf14829b08f30cc62a5cfc4cad"),
    "snapshot-threaded": ("snapshot", SolverConfig(threaded=True),
        "8812c798525e99b31390ca48c6ebcc2c0828788cb82638e7b9020aa26fbfab4a"),
    "naive-faults": ("naive", _FAULTY,
        "84f3416b92608657423e5eac140247203fee2f53dcb1d9fc5783d99557354f14"),
    "increments-metrics": ("increments", SolverConfig(metrics=True),
        "326c83789644d2938c042e7069b6c526a8cd480d614c59a7baba11e99d8eb26a"),
}


@pytest.fixture(scope="module")
def tree():
    return analyze_problem(collection.get(MATRIX), None)


def stream_digest(tree, mechanism, config):
    trace = TraceRecorder(keep_kinds=("event",))
    result = run_factorization(tree, NPROCS, mechanism=mechanism,
                               config=config, trace=trace)
    h = hashlib.sha256()
    for entry in trace.entries:
        h.update(f"{entry.time!r}\t{entry.detail}\n".encode())
    h.update(repr((
        result.events_executed,
        sorted(result.messages_by_type.items()),
    )).encode())
    assert len(trace.entries) == result.events_executed
    return h.hexdigest()


def test_grid_covers_every_registered_mechanism():
    # Tests and the interleaving explorer's mutants register extra
    # mechanisms; only those of the mechanisms package must be pinned.
    shipped = {
        name for name in available_mechanisms()
        if mechanism_class(name).__module__.startswith("repro.mechanisms.")
    }
    assert len(shipped) == 9
    assert shipped <= set(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_event_stream_is_pinned(tree, run_id):
    mechanism, config, expected = RUNS[run_id]
    assert stream_digest(tree, mechanism, config) == expected
