"""The three seeded marketplace workloads and the block/task clocks.

Every workload is a closed loop with one driver thread: the next
block's arrivals and client actions are issued only after the previous
``SessionEngine.step`` returns.  One iteration is one complete seeded
scenario on a fresh node; :meth:`Workload.iteration` runs its set-up
untimed, times the scenario, then checks the outcome untimed.

* ``market``  — ``run_scenario(preset("poisson"))`` in process: the
  population enrolls rationally, evaluation is batched.  No store, no RPC.
* ``rpc``     — Poisson arrivals with fixed staffing, as ``HitSpec``s
  through ``run_hits`` over one persistent ``HttpTransport`` to an
  ``AsyncRpcServer`` on 127.0.0.1 (header tracking on, so every block
  mints a state-trie header).
* ``durable`` — ``run_scenario(preset("closed-loop"))`` journalling to a
  ``NodeStore`` with a checkpoint every 8 steps; the state directory is
  reopened after the scenario and must load to the live ``state_root``.

Untraced runs sample the host's speed through every timed region with a
fixed reference kernel (:class:`ReferenceSampler`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Tuple

from repro.chain.transactions import scoped_tx_nonces
from repro.core.session import SessionEngine
from repro.crypto.curve import (
    GENERATOR,
    configure_fixed_base_cache,
    fixed_base_cache_info,
    precompute_base,
    reset_fixed_base_cache_stats,
)
from repro.crypto.rng import deterministic_entropy
from repro.dragoon import Dragoon
from repro.rpc import (
    AsyncRpcServer,
    HitSpec,
    HttpTransport,
    RpcChain,
    RpcNode,
    RpcRequesterClient,
    RpcSession,
    RpcSwarm,
    RpcWorkerClient,
    run_hits,
)
from repro.sim import run_scenario
from repro.sim.arrivals import PoissonArrivals
from repro.sim.scenario import preset
from repro.store import NodeStore
from repro.store.codec import encode_chain_state, state_root

#: Tasks per iteration (``TaskTemplate``: 10 binary questions, 3 golds,
#: 2 worker slots).
TASKS = {"market": 16, "rpc": 4, "durable": 12}
CHECKPOINT_EVERY = 8
#: The ``poisson`` preset's arrival rate (tasks per block).
RPC_RATE = 0.6
#: Per-slot worker accuracy on ``rpc``: the second slot fails the gold
#: check about a third of the time, so PoQoEA proofs are exercised.
RPC_STAFFING = (0.9, 0.6)
#: Wall seconds between two passes of the reference kernel.
REFERENCE_INTERVAL = 0.05
_REFERENCE_MODULUS = (1 << 255) - 19
_LANE = (1 << 64) - 1


@dataclass
class Iteration:
    """What one scenario run produced (timings and the checked outcome)."""

    seed: int
    wall: float
    #: (seconds, transactions) per marketplace block.
    blocks: List[Tuple[float, int]]
    task_latencies: List[float]
    published: int
    settled: int
    cancelled: int
    transactions: int
    reverted: int
    rpc_requests: int
    rpc_errors: int
    gas: int
    #: Thread CPU seconds of each reference-kernel pass taken while the
    #: scenario ran (empty when the run is traced).
    reference: List[float]
    #: sha256 of the canonical chain-state encoding (cheap; every iteration).
    fingerprint: str
    #: The Merkle ``state_root`` (built from scratch on an in-process
    #: chain, so only computed when asked for).
    state_root: Optional[str] = None
    checks: List[str] = field(default_factory=list)

    @property
    def unsettled(self) -> int:
        return self.published - self.settled - self.cancelled


def reference_kernel() -> float:
    """Thread CPU seconds of one fixed pass of big-integer and 64-bit lane
    arithmetic, the operations the curve and keccak code spend their time
    in.  It uses no ``repro`` code, so a change to the program cannot move
    it; only the host's speed at that moment can."""
    x, y = 1234567, 0x0123456789ABCDEF
    started = thread_time()
    for _ in range(600):
        x = (x * x + 7) % _REFERENCE_MODULUS
        y = (((y << 13) | (y >> 51)) & _LANE) ^ (x & _LANE)
    return thread_time() - started


class ReferenceSampler:
    """Samples the host's speed through a timed region.

    On a shared host the cores' speed follows the other tenants' load: on
    a 2-vCPU cloud VM it swung by up to 1.7x for minutes at a time, which
    moves every wall-clock figure by as much.  A ``SIGALRM`` every
    ``REFERENCE_INTERVAL`` seconds of wall time runs
    :func:`reference_kernel` on the main thread, so the samples are spread
    evenly over the region's wall time; a scenario's wall time divided by
    their mean is its length in kernel passes, which the host's speed
    moves far less.  Each pass's own wall time is added to ``stolen`` so
    the clocks can leave it out.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stolen = 0.0
        self._active = False
        # The handler stays installed: a SIGALRM already pending when the
        # timer is disarmed must not meet the default action (exit).
        signal.signal(signal.SIGALRM, self._sample)

    def start(self) -> None:
        self.samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL, REFERENCE_INTERVAL)

    def stop(self) -> List[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        return self.samples

    def _sample(self, _signum, _frame) -> None:
        if not self._active:
            return
        started = perf_counter()
        self.samples.append(reference_kernel())
        self.stolen += perf_counter() - started


class Clock:
    """Block and task clocks, hooked onto the engine classes once.

    A block's time runs from the previous step's return (or the start of
    the scenario) to this step's return, so it covers the arrivals,
    population and checkpoint work the driver does for that block as
    well as mining; it is recorded with the block's transaction count.
    A task's time runs from the start of its publish (``Dragoon.admit``
    / ``SessionEngine.publish_session``) to the end of the step in which
    its session finished.  With ``reference`` on, a
    :class:`ReferenceSampler` runs through every timed region, and all
    these times leave out the sampler's own work.
    """

    def __init__(self, reference: bool = False) -> None:
        self.sampler = ReferenceSampler() if reference else None
        self.reference: List[float] = []
        self.recorder = None
        self._hooks = None
        self._installation = None
        self._publish_started: Optional[float] = None
        self.blocks: List[Tuple[float, int]] = []
        self.latencies: List[float] = []
        self._pending: Dict[object, float] = {}
        self.started = self._last = self.now()

    def now(self) -> float:
        """Wall time less the reference kernel's own time."""
        return perf_counter() - (self.sampler.stolen if self.sampler is not None else 0.0)

    def arm(self, recorder, hooks) -> None:
        """Trace the next timed region with ``recorder`` (see ``tracer.py``)."""
        self.recorder, self._hooks = recorder, hooks

    def disarm(self) -> None:
        self.recorder, self._hooks = None, None

    def begin(self) -> None:
        """Start a scenario's timed region (installing the tracer if armed)."""
        reset_process_caches()
        if self.recorder is not None:
            from tracer import Installation

            self._installation = Installation(self.recorder, self._hooks)
            self.recorder.begin()
        self.blocks = []
        self.latencies = []
        self._pending = {}
        if self.sampler is not None:
            self.sampler.start()
        self.started = self._last = self.now()

    def end(self) -> float:
        """End the timed region; returns its wall seconds."""
        wall = self.now() - self.started
        if self.sampler is not None:
            self.reference = self.sampler.stop()
        if self._installation is not None:
            self.recorder.end()
            self._installation.remove()
            self._installation = None
        return wall

    def install(self) -> None:
        clock = self
        step = SessionEngine.step
        register = SessionEngine.register
        publish_session = SessionEngine.publish_session
        admit = Dragoon.admit

        def timed_step(engine):
            block = step(engine)
            now = clock.now()
            clock.blocks.append((now - clock._last, len(block.transactions)))
            clock._last = now
            for session in [s for s in clock._pending if s.finished]:
                clock.latencies.append(now - clock._pending.pop(session))
            if clock.recorder is not None:
                clock.recorder.block += 1
            return block

        def timed_register(engine, *args, **kwargs):
            session = register(engine, *args, **kwargs)
            started = clock._publish_started
            clock._pending[session] = started if started is not None else clock.now()
            return session

        def publishing(method):
            def wrapper(*args, **kwargs):
                clock._publish_started = clock.now()
                try:
                    return method(*args, **kwargs)
                finally:
                    clock._publish_started = None

            return wrapper

        SessionEngine.step = timed_step
        SessionEngine.register = timed_register
        SessionEngine.publish_session = publishing(publish_session)
        Dragoon.admit = publishing(admit)


def reset_process_caches() -> None:
    """Give every iteration the same start: an empty fixed-base cache
    holding only the generator's table, and zeroed hit/miss counters."""
    limit = fixed_base_cache_info()[1]
    configure_fixed_base_cache(1)
    configure_fixed_base_cache(limit)
    precompute_base(GENERATOR)
    reset_fixed_base_cache_stats()


def _chain_facts(chain, with_root: bool) -> Dict[str, object]:
    receipts = [receipt for block in chain.blocks for receipt in block.receipts]
    return {
        "transactions": len(receipts),
        "reverted": sum(1 for receipt in receipts if not receipt.succeeded),
        "gas": chain.total_gas,
        "fingerprint": hashlib.sha256(encode_chain_state(chain)).hexdigest(),
        "state_root": state_root(chain).hex() if with_root else None,
    }


class Workload:
    name = ""

    def __init__(self, tasks: int, workdir: str) -> None:
        self.tasks = tasks
        self.workdir = workdir
        self._serial = 0

    def setup(self):
        """Ready-to-serve: what a user pays before the first task.

        Returns a handle :meth:`teardown` releases (the set-up probe
        builds one and exits)."""
        precompute_base(GENERATOR)
        return None

    def teardown(self, handle) -> None:
        pass

    def iteration(self, seed: int, clock: Clock, with_root: bool = False) -> Iteration:
        """Run one scenario; ``with_root`` also computes and checks the
        ``state_root`` (and, on ``durable``, reopens the state directory)."""
        raise NotImplementedError


class Market(Workload):
    name = "market"

    def setup(self):
        super().setup()
        return Dragoon()

    def iteration(self, seed: int, clock: Clock, with_root: bool = False) -> Iteration:
        scenario = preset("poisson", seed=seed, tasks=self.tasks)
        clock.begin()
        run = run_scenario(scenario, keep_objects=True)
        wall = clock.end()
        return _sim_iteration(seed, wall, clock, run, with_root)


class Durable(Workload):
    name = "durable"

    def _fresh_store(self):
        self._serial += 1
        state_dir = os.path.join(self.workdir, "state-%d" % self._serial)
        return state_dir, NodeStore.init(state_dir)

    def setup(self):
        super().setup()
        state_dir, store = self._fresh_store()
        Dragoon().attach_store(store)
        return state_dir, store

    def teardown(self, handle) -> None:
        state_dir, store = handle
        store.wal.close()
        shutil.rmtree(state_dir, ignore_errors=True)

    def iteration(self, seed: int, clock: Clock, with_root: bool = False) -> Iteration:
        scenario = preset("closed-loop", seed=seed, tasks=self.tasks)
        state_dir, store = self._fresh_store()
        try:
            clock.begin()
            run = run_scenario(
                scenario,
                keep_objects=True,
                store=store,
                checkpoint_every=CHECKPOINT_EVERY,
            )
            wall = clock.end()
            result = _sim_iteration(seed, wall, clock, run, with_root)
            store.wal.close()
            if with_root:
                _chain, meta = NodeStore.open(state_dir).load()
                reopened = meta["state_root"].hex()
                if reopened != result.state_root:
                    result.checks.append(
                        "reopened state directory loads to %s, live chain is at %s"
                        % (reopened, result.state_root)
                    )
        finally:
            store.wal.close()
            shutil.rmtree(state_dir, ignore_errors=True)
        return result


def _sim_iteration(seed: int, wall: float, clock: Clock, run, with_root: bool) -> Iteration:
    report = run.report
    checks: List[str] = []
    try:
        report.check_invariants()
    except Exception as exc:  # the gate reports, the caller decides
        checks.append("check_invariants: %s" % exc)
    return Iteration(
        seed=seed,
        wall=wall,
        blocks=list(clock.blocks),
        task_latencies=list(clock.latencies),
        reference=list(clock.reference),
        published=report.tasks_published,
        settled=report.tasks_settled,
        cancelled=report.tasks_cancelled,
        rpc_requests=0,
        rpc_errors=0,
        checks=checks,
        **_chain_facts(run.dragoon.chain, with_root),
    )


class Rpc(Workload):
    name = "rpc"

    def _dispatch_threads(self) -> int:
        return max(1, min(8, os.cpu_count() or 1))

    def _serve(self):
        node = RpcNode()
        server = AsyncRpcServer(node, dispatch_threads=self._dispatch_threads())
        server.start()
        transport = HttpTransport(server.url)
        # Open the one persistent connection before the clock starts.
        RpcSession(transport).call("rpc_version")
        return node, server, transport

    def setup(self):
        super().setup()
        return self._serve()

    def teardown(self, handle) -> None:
        _node, server, transport = handle
        transport.close()
        server.shutdown()

    def specs(self, seed: int) -> List[HitSpec]:
        arrivals = PoissonArrivals(
            rate=RPC_RATE, tasks=self.tasks, seed=seed, staffing=RPC_STAFFING
        )
        return [
            HitSpec(
                arrival.at_block,
                arrival.requester_label,
                arrival.task,
                arrival.worker_answers,
                evaluation=arrival.evaluation,
            )
            for arrival in arrivals
        ]

    def iteration(self, seed: int, clock: Clock, with_root: bool = False) -> Iteration:
        specs = self.specs(seed)
        handle = self._serve()
        node, _server, transport = handle
        served = node.requests_served + node.requests_rejected
        try:
            clock.begin()
            with scoped_tx_nonces(), deterministic_entropy(seed):
                outcomes = run_hits(
                    RpcChain(transport),
                    RpcSwarm(transport),
                    specs,
                    lambda label, task: RpcRequesterClient(label, task, transport),
                    lambda label, answers: RpcWorkerClient(
                        label, transport, answers=answers
                    ),
                )
            wall = clock.end()
        finally:
            self.teardown(handle)
        chain = node.chain
        checks, settled = check_payments(chain, specs, outcomes)
        return Iteration(
            seed=seed,
            wall=wall,
            blocks=list(clock.blocks),
            task_latencies=list(clock.latencies),
            reference=list(clock.reference),
            published=len(specs),
            settled=settled,
            cancelled=0,
            rpc_requests=node.requests_served + node.requests_rejected - served,
            rpc_errors=node.requests_rejected,
            checks=checks,
            **_chain_facts(chain, with_root),
        )


def check_payments(chain, specs, outcomes):
    """Every task finalized; each worker paid its reward iff its answers
    pass the gold check; the escrow is empty and the budget accounted."""
    problems: List[str] = []
    settled = 0
    for spec, outcome in zip(specs, outcomes):
        name = outcome.requester.contract_name
        contract = chain.contract(name)
        if not contract.is_finalized():
            problems.append("%s never finalized" % name)
            continue
        settled += 1
        task = spec.task
        parameters = task.parameters
        reward = parameters.reward_per_worker
        paid_total = 0
        for worker, answers in zip(outcome.workers, spec.worker_answers):
            correct = sum(
                1
                for index, gold in zip(task.gold_indexes, task.gold_answers)
                if answers[index] == gold
            )
            expected = reward if correct >= parameters.quality_threshold else 0
            paid = sum(
                entry.amount
                for entry in chain.ledger.payments_to(worker.address)
                if entry.source == contract.address
            )
            paid_total += paid
            if paid != expected:
                problems.append(
                    "%s: worker %s paid %d, expected %d (%d/%d golds)"
                    % (name, worker.label, paid, expected, correct, len(task.gold_indexes))
                )
        refund = sum(
            entry.amount
            for entry in chain.ledger.payments_to(outcome.requester.address)
            if entry.source == contract.address
        )
        if chain.ledger.escrow_of(contract.address) != 0:
            problems.append("%s: escrow not empty" % name)
        if paid_total + refund != parameters.budget:
            problems.append(
                "%s: paid %d + refunded %d != budget %d"
                % (name, paid_total, refund, parameters.budget)
            )
    return problems, settled


WORKLOADS = {"market": Market, "rpc": Rpc, "durable": Durable}
