"""Per-layer attribution for the traced benchmark run.

The benchmark wraps the public entry points of each layer from the
outside: nothing under ``src/`` is edited and the program's own tracer
(:mod:`repro.obs.tracing`) stays uninstalled.  A wrapper is installed
wherever callers look the name up — ``keccak256`` is imported by name
into many modules, so every ``repro.*`` module attribute bound to the
original function is rebound, and methods are replaced on their class.

Spans are kept in memory as tuples ``(id, parent, name, start, end,
child_seconds, block, task, on_main_thread)`` and written out at the end in the ``v: 1`` JSONL schema
:mod:`repro.reporting.traces` reads.  Each thread keeps its own span
stack.  The RPC server runs on other threads; a server-side span that
opens with an empty stack is parented under the client round trip in
flight (the client is blocked on it, so the server work lies inside it),
and its time is subtracted from that round trip's self time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, span name, module, attribute path).  Several targets may
#: share a span name; their times add up under that name.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("curve", "curve.ec_mul", "repro.crypto.curve", "ec_mul"),
    ("curve", "curve.ec_add", "repro.crypto.curve", "ec_add"),
    ("curve", "curve.mul_fixed", "repro.crypto.curve", "mul_fixed"),
    ("curve", "curve.msm", "repro.crypto.curve", "msm"),
    ("keccak", "keccak", "repro.crypto.keccak", "keccak256"),
    ("elgamal", "elgamal.encrypt", "repro.crypto.elgamal", "ElGamalPublicKey.encrypt"),
    ("elgamal", "elgamal.decrypt", "repro.crypto.elgamal", "ElGamalSecretKey.decrypt"),
    ("vpke", "vpke.prove", "repro.crypto.vpke", "prove_decryption"),
    ("vpke", "vpke.verify", "repro.crypto.vpke", "verify_decryption"),
    ("vpke", "vpke.verify", "repro.crypto.vpke", "verify_decryption_batch"),
    ("poqoea", "poqoea.prove", "repro.crypto.poqoea", "prove_quality"),
    ("clients", "clients.requester", "repro.core.requester", "RequesterClient.evaluate_all_batched"),
    ("clients", "clients.requester", "repro.core.requester", "RequesterClient.send_golden"),
    ("clients", "clients.requester", "repro.core.requester", "RequesterClient.send_finalize"),
    ("clients", "clients.worker", "repro.core.worker", "WorkerClient.send_commit"),
    ("clients", "clients.worker", "repro.core.worker", "WorkerClient.send_reveal"),
    ("session", "session.step", "repro.core.session", "SessionEngine.step"),
    ("sim", "sim.population", "repro.sim.population", "WorkerPopulation.observe"),
    ("sim", "sim.population", "repro.sim.population", "WorkerPopulation.enroll"),
    ("sim", "sim.admit", "repro.dragoon", "Dragoon.admit"),
    ("chain", "chain.mine", "repro.chain.chain", "Chain.mine_block"),
    ("chain", "chain.dispatch", "repro.chain.contract", "Contract.dispatch"),
    ("chain", "chain.deploy", "repro.chain.chain", "Chain.deploy"),
    ("chain", "chain.deploy", "repro.chain.chain", "Chain.deploy_many"),
    ("trie", "trie.root", "repro.store.trie", "ChainStateTrie.root"),
    ("trie", "trie.root", "repro.store.trie", "ChainStateTrie.ensure_header"),
    ("trie", "trie.scan", "repro.store.trie", "live_items"),
    ("codec", "codec.encode", "repro.store.codec", "encode"),
    ("codec", "codec.decode", "repro.store.codec", "decode"),
    ("store", "store.wal", "repro.store.nodestore", "NodeStore.on_block"),
    ("store", "store.save", "repro.store.nodestore", "NodeStore.save"),
    ("store", "store.checkpoint", "repro.store.nodestore", "NodeStore.checkpoint"),
    ("rpc", "rpc.roundtrip", "repro.rpc.client", "RpcSession.call"),
    ("rpc", "rpc.roundtrip", "repro.rpc.client", "RpcSession.call_batch"),
    ("rpc", "rpc.server", "repro.rpc.server", "RpcNode.respond"),
]

#: Calls counted without a span: (name, module, attribute path).
COUNTED: List[Tuple[str, str, str]] = [
    ("rpc.transport", "repro.rpc.client", "HttpTransport.request"),
]

LAYERS = sorted({layer for layer, _, _, _ in TARGETS})
LAYER_OF = {name: layer for layer, name, _, _ in TARGETS}
#: Spans opened on server threads, parented under the client round trip.
SERVER_SPANS = {"rpc.server"}

Hooks = Tuple[Optional[Callable], Optional[Callable]]


class Recorder:
    """In-memory spans, per-name totals and byte/request counters."""

    def __init__(self, ids: Optional[Iterator[int]] = None) -> None:
        self._local = threading.local()
        #: Span ids; pass one counter to several recorders to keep the
        #: ids of a whole run unique.
        self._ids = ids if ids is not None else itertools.count(1)
        self.spans: List[Tuple[Any, ...]] = []
        self.counts: Dict[str, int] = {}
        #: The open client round-trip frame (one client connection).
        self.client_frame: Optional[list] = None
        #: Marketplace block index being assembled, set by the harness.
        self.block = 0
        self.main_thread = threading.get_ident()

    def begin(self) -> None:
        """Open the timed region: snapshot the program's own counters."""
        self._counters_before = program_counters()

    def end(self) -> None:
        """Close the timed region: keep the counters' growth over it."""
        after = program_counters()
        self.program = {
            name: after[name] - self._counters_before[name] for name in after
        }

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hooks: Hooks = (None, None)) -> Callable:
        """A span-recording wrapper around ``fn`` (the hot path of the run).

        A frame is ``[id, parent_frame, child_seconds, task]``.
        ``hooks`` is ``(before, after)``: ``before(args)`` returns a token
        and ``after(args, kwargs, result, token)`` adds counters; both
        run outside the span's clock.
        """
        before, after = hooks
        recorder = self
        spans = self.spans
        server_side = name in SERVER_SPANS
        client_side = name == "rpc.roundtrip"

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            elif server_side:
                parent = recorder.client_frame
            else:
                parent = None
            task = _task_of(args) or (parent[3] if parent is not None else None)
            frame = [next(recorder._ids), parent, 0.0, task]
            stack.append(frame)
            if client_side and recorder.client_frame is None:
                recorder.client_frame = frame
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if recorder.client_frame is frame:
                    recorder.client_frame = None
                if parent is not None:
                    parent[2] += end - start
                spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else None,
                        name,
                        start,
                        end,
                        frame[2],
                        recorder.block,
                        task,
                        threading.get_ident() == recorder.main_thread,
                    )
                )
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, fn: Callable, after: Callable) -> Callable:
        """A wrapper that only counts (no span): ``after`` as in :meth:`wrap`."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def program_counters() -> Dict[str, int]:
    """The program's counters the per-layer metrics read (``/metrics``
    trie counters and the fixed-base cache statistics)."""
    from repro.crypto.curve import fixed_base_cache_stats
    from repro.obs import REGISTRY

    cache = fixed_base_cache_stats()
    return {
        "trie.sets": REGISTRY.read("state_trie_updates_total", {"op": "set"}) or 0,
        "trie.hashes": REGISTRY.read("state_trie_node_hashes_total") or 0,
        "fixed_base.hits": cache["hits"],
        "fixed_base.misses": cache["misses"],
    }


def _task_of(args: tuple) -> Optional[str]:
    """The task id a client method acts for (its contract name)."""
    if not args:
        return None
    owner = args[0]
    name = getattr(owner, "contract_name", None)
    if isinstance(name, str):
        return name
    name = getattr(owner, "discovered", None)
    return name if isinstance(name, str) else None


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)``; a method must be defined on its class."""
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Installation:
    """Wrappers installed for one traced iteration; :meth:`remove` undoes them."""

    def __init__(self, recorder: Recorder, hooks: Dict[str, Hooks]) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        plan = [(name, module, path, False) for _, name, module, path in TARGETS]
        plan += [(name, module, path, True) for name, module, path in COUNTED]
        for name, module_name, path, counted in plan:
            owner, attr, original = _resolve(module_name, path)
            hook = hooks.get(name, (None, None))
            if counted:
                wrapper = recorder.count(original, hook[1])
            else:
                wrapper = recorder.wrap(name, original, hook)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A module-level function: rebind every repro module
            # attribute that holds it, so callers that imported the
            # name see the wrapper too.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: List[Tuple[Any, ...]]) -> Dict[str, float]:
    """Self seconds per span name (duration minus child coverage)."""
    totals: Dict[str, float] = {}
    for span in spans:
        name = span[2]
        totals[name] = totals.get(name, 0.0) + (span[4] - span[3]) - span[5]
    return totals


def inclusive_times(spans: List[Tuple[Any, ...]]) -> Dict[str, Tuple[int, float]]:
    """(calls, seconds) per span name.  No traced entry point calls
    itself, so a name's spans never overlap and their durations add."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        calls, seconds = totals.get(span[2], (0, 0.0))
        totals[span[2]] = (calls + 1, seconds + span[4] - span[3])
    return totals


def check_nesting(spans: List[Tuple[Any, ...]]) -> int:
    """Raise unless every child lies within its parent; returns the span count."""
    by_id = {span[0]: span for span in spans}
    for span in spans:
        if span[1] is None:
            continue
        parent = by_id.get(span[1])
        if parent is None:
            raise AssertionError("span %s (%s) has no recorded parent" % (span[0], span[2]))
        if span[3] < parent[3] or span[4] > parent[4]:
            raise AssertionError(
                "span %s (%s) [%.6f, %.6f] escapes its parent %s (%s) [%.6f, %.6f]"
                % (span[0], span[2], span[3], span[4], parent[0], parent[2], parent[3], parent[4])
            )
    return len(spans)


def write_spans(path: str, iterations: List[List[Tuple[Any, ...]]]) -> int:
    """Write spans as ``v: 1`` JSONL records; returns the record count.

    Span ids must be unique across ``iterations`` (one id counter per run).
    """
    written = 0
    with open(path, "w", encoding="utf-8") as sink:
        for index, spans in enumerate(iterations):
            for span in spans:
                attrs: Dict[str, Any] = {"block": span[6], "iteration": index}
                if span[7] is not None:
                    attrs["task"] = span[7]
                if not span[8]:
                    attrs["thread"] = "server"
                sink.write(
                    json.dumps(
                        {
                            "v": 1,
                            "span": span[0],
                            "parent": span[1],
                            "name": span[2],
                            "start": span[3],
                            "end": span[4],
                            "attrs": attrs,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                written += 1
    return written
