"""The distributed backend: an MPI simulator (DESIGN.md substitution).

The paper's distributed code generation turns each ``distributed`` loop
into a conditional on the executing process's rank::

    for(q in 1..N-1) {...}   becomes   q = get_rank(); if (q>=1 && q<N-1) {...}

and translates send()/receive() operations into MPI calls.  This backend
reproduces exactly that: every rank runs the same generated program in
its own thread with its own buffers; sends/receives go through in-memory
channels with blocking-receive semantics (MVAPICH2's role in the paper).
Message volumes and counts are recorded per rank pair so the network
model (:mod:`repro.machine.network`) can price communication.

Failure semantics (docs/robustness.md): a dead rank poisons the world —
peers blocked on it in ``recv`` or ``barrier`` fail fast with the failed
rank named (:class:`~repro.core.errors.RankFailedError`) instead of
timing out one by one; when every live rank is blocked in ``recv`` the
deadlock detector reports the wait-for cycle
(:class:`~repro.core.errors.DeadlockError`) rather than a bare timeout;
and a rank thread that outlives the join deadline is reported as hung,
never silently returned as a ``None`` result.  All deadlines come from
the validated ``timeout`` compile/call option, then the ``timeout``
knob of :mod:`repro.settings`.  An active
:class:`repro.faults.FaultPlan` can crash or stall ranks and drop or
corrupt individual messages on a link, deterministically.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.pyemit import Emitter, _buf_var, lin_to_py
from repro.core.access import integer
from repro.core.buffer import ArgKind
from repro.core.errors import (CodegenError, DeadlockError, ExecutionError,
                               InjectedFaultError, RankFailedError)
from repro.core.function import Function

from repro.driver.registry import Backend, register_backend
from repro.driver.resilience import active_fault_plan

from .common import (DEFAULT_JOIN_TIMEOUT, DEFAULT_RECV_TIMEOUT,
                     bind_python_kernel, collect_buffers,
                     infer_argument_kinds, resolve_timeout)
from .cpu import emit_source

#: How often a blocked receive wakes to check for peer failure or a
#: wait-for cycle.  Message arrival itself is never delayed by this —
#: ``queue.get`` returns the moment a payload lands.
POLL_INTERVAL = 0.02


@dataclass
class CommStats:
    """Per-run communication record (consumed by the network model)."""

    messages: List[Tuple[int, int, int]] = field(default_factory=list)
    # (src, dst, elements)
    kinds: List[str] = field(default_factory=list)
    # "sync" | "async", aligned with ``messages``

    def total_elements(self) -> int:
        return sum(m[2] for m in self.messages)

    def message_count(self) -> int:
        return len(self.messages)

    def async_fraction(self) -> float:
        """Fraction of messages posted asynchronously — the natural
        ``overlap`` input for :func:`repro.machine.network.
        estimate_messages`: async sends may hide behind compute,
        synchronous (rendezvous) sends cannot."""
        if not self.kinds:
            return 0.0
        return (sum(1 for k in self.kinds if k == "async")
                / len(self.kinds))


class SendRequest:
    """MPI_Isend-style completion handle returned by
    :meth:`MPIRuntime.isend`.  In the simulator a buffered (async) send
    is on the wire the moment it is posted, so the handle completes
    when the *receiver* consumes the payload — ``wait`` is the point a
    task scheduler stops overlapping and synchronises."""

    def __init__(self, event: Optional[threading.Event] = None):
        self._event = event

    def done(self) -> bool:
        return self._event is None or self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._event is None:
            return True
        return self._event.wait(timeout)


class MPIRuntime:
    """The per-rank communication endpoint handed to generated code."""

    def __init__(self, rank: int, world: "World",
                 timeout: Optional[float] = None):
        self.rank = rank
        self.world = world
        # Resolved per-receive (and per-barrier) deadline in seconds.
        self.timeout = (timeout if timeout is not None
                        else DEFAULT_RECV_TIMEOUT)

    def send(self, dest: int, data: np.ndarray,
             sync: bool = False) -> SendRequest:
        """Post a message to ``dest``.

        ``sync=False`` (the default) is a buffered, asynchronous send:
        it returns the moment the payload is on the wire, so the caller
        can overlap the transfer with compute (:meth:`isend` is the
        same thing returning before any blocking).  ``sync=True`` is a
        rendezvous send (MPI ``Ssend``): it blocks until the receiver
        has consumed the payload, failing fast if the peer dies and
        timing out on a mismatched schedule.  Each message's kind is
        recorded in :class:`CommStats` so the network model can price
        the achievable overlap.
        """
        dest = int(dest)
        world = self.world
        if not 0 <= dest < world.size:
            raise ExecutionError(f"send to invalid rank {dest}")
        msg_index = world.next_message_index(self.rank, dest)
        with world.lock:
            world.stats.messages.append((self.rank, dest, data.size))
            world.stats.kinds.append("sync" if sync else "async")
        payload = np.array(data, copy=True)
        plan = world.plan
        if plan is not None:
            coords = dict(src=self.rank, dst=dest, message=msg_index)
            if plan.fires("message-drop", **coords):
                from repro.obs.metrics import metrics
                metrics.counter("dist.messages_dropped").inc()
                # Lost on the link; the receiver times out.  The sync
                # sender's completion is left to that receive-timeout
                # machinery rather than blocking here forever.
                return SendRequest()
            if plan.fires("message-corrupt", **coords):
                plan.corrupt_array(payload, "message-corrupt", **coords)
                from repro.obs.metrics import metrics
                metrics.counter("dist.messages_corrupted").inc()
        event = threading.Event()
        world.channel(self.rank, dest).put((payload, event))
        request = SendRequest(event)
        if sync:
            self._await_delivery(dest, event)
        return request

    def isend(self, dest: int, data: np.ndarray) -> SendRequest:
        """Asynchronous send returning a completion handle (MPI
        ``Isend``): the task scheduler posts these and overlaps the
        transfer with compute, calling :meth:`SendRequest.wait` only at
        the point the overlap window closes."""
        return self.send(dest, data, sync=False)

    def _await_delivery(self, dest: int, event: threading.Event) -> None:
        """Rendezvous tail of a sync send: block until the receiver
        consumes the payload, with the same fail-fast behaviour as a
        blocked receive."""
        world = self.world
        deadline = time.monotonic() + self.timeout
        poll = max(0.001, min(POLL_INTERVAL, self.timeout / 4))
        world.note_waiting(self.rank, dest)
        try:
            while not event.wait(poll):
                failure = world.failure_of(dest)
                if failure is not None:
                    raise RankFailedError(
                        f"rank {self.rank}: peer rank {dest} failed "
                        f"during synchronous send: {failure}", rank=dest)
                if time.monotonic() >= deadline:
                    raise ExecutionError(
                        f"rank {self.rank}: synchronous send to {dest} "
                        f"not matched by a receive within "
                        f"{self.timeout:g}s (mismatched send/receive "
                        "schedule?)")
        finally:
            world.clear_waiting(self.rank)

    def recv(self, source: int,
             timeout: Optional[float] = None) -> np.ndarray:
        """Blocking receive with fail-fast semantics: returns the moment
        a payload lands, but wakes every ``POLL_INTERVAL`` to (a) fail
        with the root cause when the sending rank has died and (b) run
        the deadlock detector.  A bare deadline expiry still reports the
        classic mismatched-schedule timeout."""
        source = int(source)
        world = self.world
        limit = timeout if timeout is not None else self.timeout
        channel = world.channel(source, self.rank)
        deadline = time.monotonic() + limit
        poll = max(0.001, min(POLL_INTERVAL, limit / 4))
        world.note_waiting(self.rank, source)
        suspected: Optional[List[int]] = None
        try:
            while True:
                failure = world.failure_of(source)
                if failure is not None:
                    from repro.obs.metrics import metrics
                    metrics.counter("dist.rank_failure_propagations").inc()
                    raise RankFailedError(
                        f"rank {self.rank}: peer rank {source} failed: "
                        f"{failure}", rank=source)
                try:
                    payload, event = channel.get(timeout=poll)
                    event.set()   # completes any rendezvous sender
                    return payload
                except queue.Empty:
                    pass
                cycle = world.deadlock_cycle(self.rank)
                # Demand the same cycle on two consecutive polls: a rank
                # caught between receiving its payload and deregistering
                # can make one observation stale, never two.
                if cycle is not None and cycle == suspected:
                    from repro.obs.metrics import metrics
                    metrics.counter("dist.deadlocks").inc()
                    chain = " -> ".join(f"rank {r}" for r in cycle)
                    raise DeadlockError(
                        f"rank {self.rank}: deadlock detected — wait-for "
                        f"cycle {chain} (every live rank blocked in recv)",
                        cycle=cycle)
                suspected = cycle
                if time.monotonic() >= deadline:
                    from repro.obs.metrics import metrics
                    metrics.counter("dist.recv_timeouts").inc()
                    raise ExecutionError(
                        f"rank {self.rank}: receive from {source} timed "
                        f"out after {limit:g}s (mismatched send/receive "
                        "schedule?)") from None
        finally:
            world.clear_waiting(self.rank)

    def barrier(self) -> None:
        try:
            self.world.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            first = self.world.first_failure()
            if first is not None:
                rank, message = first
                raise RankFailedError(
                    f"rank {self.rank}: barrier broken — rank {rank} "
                    f"failed: {message}", rank=rank) from None
            # No rank died: the break was a timeout.  Consult the
            # wait-for table — when peers never reached the barrier
            # because they are deadlocked in recv, say so (the recv
            # path's detector cannot: a barrier waiter is not in the
            # waiting table, so "every live rank blocked in recv"
            # never becomes true).
            cycle = self.world.recv_cycle()
            if cycle is not None:
                from repro.obs.metrics import metrics
                metrics.counter("dist.deadlocks").inc()
                chain = " -> ".join(f"rank {r}" for r in cycle)
                raise DeadlockError(
                    f"rank {self.rank}: barrier broken — wait-for cycle "
                    f"{chain} kept peers from ever reaching the barrier",
                    cycle=cycle) from None
            raise ExecutionError(
                f"rank {self.rank}: barrier broken (a peer timed out or "
                "aborted)") from None

    def op(self, kind: str, name: str, env: dict) -> None:
        raise ExecutionError(f"unhandled operation {kind} ({name})")


class World:
    """Shared state of one simulated run: channels, stats, and the
    failure ledger the fail-fast paths read."""

    def __init__(self, size: int, plan=None):
        self.size = size
        self.plan = plan  # active repro.faults.FaultPlan, or None
        self.channels: Dict[Tuple[int, int], queue.Queue] = {}
        self.lock = threading.Lock()
        self.stats = CommStats()
        self.barrier = threading.Barrier(size)
        self.failed: Dict[int, str] = {}     # rank -> cause, in fail order
        self.finished: set = set()           # ranks whose thread returned
        self.waiting: Dict[int, int] = {}    # rank -> rank it awaits
        self._link_counts: Dict[Tuple[int, int], int] = {}

    def channel(self, src: int, dst: int) -> queue.Queue:
        with self.lock:
            key = (src, dst)
            if key not in self.channels:
                self.channels[key] = queue.Queue()
            return self.channels[key]

    def next_message_index(self, src: int, dst: int) -> int:
        """Per-link send counter — the ``message`` coordinate fault
        sites address."""
        with self.lock:
            index = self._link_counts.get((src, dst), 0)
            self._link_counts[(src, dst)] = index + 1
            return index

    # -- the failure ledger ------------------------------------------------

    def mark_failed(self, rank: int, exc: BaseException) -> None:
        """Record a rank's death and poison everything peers could be
        blocked on: ``recv`` polls see the ledger, barrier waiters are
        woken by the abort."""
        with self.lock:
            self.failed.setdefault(
                rank, f"{type(exc).__name__}: {exc}" if str(exc)
                else type(exc).__name__)
        self.barrier.abort()

    def failure_of(self, rank: int) -> Optional[str]:
        with self.lock:
            return self.failed.get(rank)

    def first_failure(self) -> Optional[Tuple[int, str]]:
        """The root cause: the first rank that died, with its message."""
        with self.lock:
            return next(iter(self.failed.items()), None)

    def mark_finished(self, rank: int) -> None:
        with self.lock:
            self.finished.add(rank)
            self.waiting.pop(rank, None)

    def note_waiting(self, rank: int, source: int) -> None:
        with self.lock:
            self.waiting[rank] = source

    def clear_waiting(self, rank: int) -> None:
        with self.lock:
            self.waiting.pop(rank, None)

    def deadlock_cycle(self, start: int) -> Optional[List[int]]:
        """When every live rank is blocked in ``recv``, follow the
        wait-for edges from ``start``; a revisited rank closes the cycle
        (returned first == last).  Any rank still computing, or a wait
        on a finished/failed rank, means progress is still possible and
        answers None."""
        with self.lock:
            live = [r for r in range(self.size)
                    if r not in self.finished and r not in self.failed]
            if not live or any(r not in self.waiting for r in live):
                return None
            path: List[int] = []
            cursor = start
            while cursor not in path:
                path.append(cursor)
                target = self.waiting.get(cursor)
                if (target is None or target in self.failed
                        or target in self.finished):
                    return None  # that wait resolves by failure/timeout
                pending = self.channels.get((target, cursor))
                if pending is not None and not pending.empty():
                    return None  # a payload is already in flight
                cursor = target
            return path[path.index(cursor):] + [cursor]

    def recv_cycle(self) -> Optional[List[int]]:
        """A wait-for cycle among ranks currently blocked in ``recv``,
        *without* requiring every live rank to be blocked.

        :meth:`deadlock_cycle` is the conservative detector the recv
        poll loop runs — demanding every live rank be waiting keeps it
        from firing while some rank could still make progress.  The
        barrier path needs the opposite: the asking rank is provably
        stuck (its barrier already broke on timeout) yet sits in the
        barrier, not the waiting table, so the all-live condition can
        never hold.  Here any closed recv→recv cycle is a diagnosis:
        those ranks will never reach the barrier.  Edges that resolve
        on their own (target failed or finished, payload already in
        flight) break the chain."""
        with self.lock:
            for start in list(self.waiting):
                path: List[int] = []
                cursor = start
                while True:
                    if cursor in path:
                        return path[path.index(cursor):] + [cursor]
                    target = self.waiting.get(cursor)
                    if (target is None or target in self.failed
                            or target in self.finished):
                        break
                    pending = self.channels.get((target, cursor))
                    if pending is not None and not pending.empty():
                        break
                    path.append(cursor)
                    cursor = target
            return None


class DistEmitter(Emitter):
    """Emitter variant implementing the paper's rank-conditional loops
    and MPI-call translation."""

    def emit_loop(self, loop) -> None:
        if loop.tag is not None and loop.tag.kind == "distributed":
            from .cpu import ArgKind  # local import to avoid cycles
            from repro.codegen.pyemit import bounds_group_py
            lo = bounds_group_py(loop.lowers, self.params, True)
            hi = bounds_group_py(loop.uppers, self.params, False)
            var = f"t{loop.level}"
            self.line(f"{var} = _runtime.rank  # distributed loop "
                      f"({loop.var})")
            self.line(f"if {var} >= {lo} and {var} <= ({hi}):")
            self.indent += 1
            self._depth += 1  # the rank var binds in this frame only
            self.emit_body(loop)
            self._depth -= 1
            self.indent -= 1
            return
        super().emit_loop(loop)

    def emit_operation(self, op, env) -> None:
        kind = op.op_kind
        if kind in ("send", "recv"):
            flat = f"{_buf_var(op.payload['buffer'])}.reshape(-1)"
            off, size, peer = (self.expr_py(integer(op.payload[key]), env)
                               for key in ("offset", "size", "peer"))
            if kind == "send":
                sync = "sync" in op.payload["props"]
                self.line(f"_runtime.send({peer}, "
                          f"{flat}[{off}:({off}) + {size}], sync={sync})")
            else:
                self.line(f"{flat}[{off}:({off}) + {size}]"
                          f" = _runtime.recv({peer})")
        elif kind == "barrier":
            self.line("_runtime.barrier()")
        else:
            super().emit_operation(op, env)


class DistributedKernel:
    """A compiled distributed function: runs one thread per rank."""

    def __init__(self, fn: Function, source: str, pyfunc, buffers,
                 param_names, timeout: Optional[float] = None):
        self.fn = fn
        self.source = source
        self._pyfunc = pyfunc
        self.buffers = buffers
        self.param_names = list(param_names)
        self.timeout = timeout  # the compile option; call may override
        self.last_stats: Optional[CommStats] = None
        self.last_failures: Dict[int, str] = {}

    def __call__(self, ranks: int, inputs, params: Dict[str, int],
                 timeout: Optional[float] = None,
                 ) -> List[Dict[str, np.ndarray]]:
        """Run on ``ranks`` simulated nodes.

        ``inputs``: dict name -> list (one array per rank), or a callable
        ``rank -> dict``.  Returns one output dict per rank.

        ``timeout`` overrides the compile-time option for this call;
        both defer to the ``timeout`` knob and then the per-use defaults
        (receive/barrier 30 s, whole-run join 120 s).  A rank that
        dies fails the run naming the *root cause* — the first rank in
        the failure ledger — and a rank thread that outlives the join
        deadline raises instead of silently returning ``None`` results.
        """
        from repro.obs.metrics import metrics
        plan = active_fault_plan()
        option = timeout if timeout is not None else self.timeout
        recv_timeout = resolve_timeout(option, DEFAULT_RECV_TIMEOUT)
        join_timeout = resolve_timeout(option, DEFAULT_JOIN_TIMEOUT)
        # A rank may legitimately sit in recv right up to its deadline;
        # give the join enough slack that the blocked receive raises its
        # own (far more diagnostic) error before we declare the run hung.
        join_timeout = max(join_timeout, recv_timeout + 10 * POLL_INTERVAL)
        world = World(ranks, plan=plan)
        results: List[Optional[Dict[str, np.ndarray]]] = [None] * ranks
        errors: List[Optional[BaseException]] = [None] * ranks

        def run_rank(rank: int) -> None:
            try:
                if plan is not None:
                    spec = plan.fires("rank-hang", rank=rank)
                    if spec is not None:
                        time.sleep(float(spec.payload.get("seconds", 30.0)))
                    if plan.fires("rank-crash", rank=rank):
                        raise InjectedFaultError(
                            f"injected fault: rank {rank} crashed")
                rank_inputs = (inputs(rank) if callable(inputs)
                               else {k: v[rank] for k, v in inputs.items()})
                arrays: Dict[str, np.ndarray] = {}
                outputs: Dict[str, np.ndarray] = {}
                for buf in self.buffers:
                    if buf.kind in (ArgKind.INPUT, ArgKind.INOUT):
                        if buf.name not in rank_inputs:
                            raise ExecutionError(
                                f"rank {rank}: missing input {buf.name!r}")
                        arrays[buf.name] = np.asarray(rank_inputs[buf.name])
                        if buf.kind == ArgKind.INOUT:
                            outputs[buf.name] = arrays[buf.name]
                    else:
                        arrays[buf.name] = buf.allocate(params)
                        if buf.kind == ArgKind.OUTPUT:
                            outputs[buf.name] = arrays[buf.name]
                runtime = MPIRuntime(rank, world, timeout=recv_timeout)
                self._pyfunc(arrays, dict(params), runtime)
                results[rank] = outputs
            except BaseException as exc:   # surfaced after join
                errors[rank] = exc
                world.mark_failed(rank, exc)
                # Primary failures only; ranks killed by a peer's death
                # are already counted as propagations by recv().
                if not isinstance(exc, RankFailedError):
                    metrics.counter("dist.rank_failures").inc()
            finally:
                world.mark_finished(rank)

        threads = [threading.Thread(target=run_rank, args=(r,),
                                    name=f"rank{r}", daemon=True)
                   for r in range(ranks)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + join_timeout
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        hung = [r for r, t in enumerate(threads) if t.is_alive()]
        self.last_stats = world.stats
        self.last_failures = dict(world.failed)
        if world.failed:
            root, _ = world.first_failure()
            err = errors[root]
            suffix = (f" (rank(s) {', '.join(map(str, hung))} still "
                      "running)") if hung else ""
            raise ExecutionError(
                f"rank {root} failed: {err}{suffix}") from err
        if hung:
            metrics.counter("dist.hung_ranks").inc(len(hung))
            names = ", ".join(str(r) for r in hung)
            raise ExecutionError(
                f"distributed run hung: rank(s) {names} still running "
                f"after the {join_timeout:g}s join timeout")
        return results   # type: ignore[return-value]


@register_backend
class DistributedBackend(Backend):
    """The simulated MPI target: rank-conditional emission, exec binding."""

    name = "distributed"
    # every rank runs on a thread of its own: the race check guards the
    # rank loop as it guards a parallel one
    parallel_execution = ("distributed",)
    # bind() exec()s ctx.source; rank/launch state lives in the source
    # itself, so stored artifacts rebind cleanly.
    bind_from_source = True

    def emit(self, ctx) -> str:
        return emit_source(ctx.fn, emitter_cls=DistEmitter, ast=ctx.ast,
                           lanes_verified=ctx.lanes_verified)

    def bind(self, ctx) -> DistributedKernel:
        pyfunc = bind_python_kernel(ctx.fn, ctx.source, "tiramisu-dist")
        return DistributedKernel(ctx.fn, ctx.source, pyfunc,
                                 collect_buffers(ctx.fn),
                                 ctx.fn.param_names,
                                 timeout=ctx.opt("timeout"))
