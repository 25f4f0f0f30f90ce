"""Queue and batch scheduling policies for the serving simulator.

The scheduler decides *what to dispatch next* when the chip has a free
inference slot; the engine then decides how the dispatched work contends
for cores.  Two axes:

``max_batch``
    Requests for the same model are merged into one batched inference:
    compute scales with batch size, but the layer's weights stream from
    DRAM only once (the classic batching bandwidth amortization).
    ``max_batch=1`` is plain FIFO.
``max_inflight``
    Concurrent inferences allowed on the chip.  More than one lets
    requests overlap on different cores (one request's attention phase
    under another's MLP), at the price of queueing on busy cores.
``mode``
    The quantum of the one chip loop, whose lanes consult the
    :class:`~repro.serve.continuous.ContinuousBatchScheduler` at every
    quantum boundary.  ``"static"`` (the default): the whole compiled
    program, so a :func:`take_batch` (FIFO) batch runs to completion.
    ``"continuous"``: one compiled ``Stage``, so groups re-form at every
    stage boundary — requests join and leave in-flight groups, higher
    priority tiers preempt at stage boundaries (``preempt``), and
    preempted requests resume from their checkpointed stage index
    without redoing work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .workload import Request

__all__ = ["SCHEDULER_MODES", "SchedulerConfig", "take_batch"]

SCHEDULER_MODES = ("static", "continuous")


@dataclass(frozen=True)
class SchedulerConfig:
    """Dispatch policy of the serving simulator."""

    max_batch: int = 1
    max_inflight: int = 1
    mode: str = "static"
    allow_join: bool = True   # continuous: may requests join in-flight groups?
    preempt: bool = True      # continuous: may priority displace at boundaries?

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.mode not in SCHEDULER_MODES:
            raise ValueError(
                f"unknown scheduler mode {self.mode!r};"
                f" options {sorted(SCHEDULER_MODES)}"
            )

    @property
    def continuous(self) -> bool:
        return self.mode == "continuous"

    @property
    def policy(self) -> str:
        if self.continuous:
            return "continuous"
        return "fifo" if self.max_batch == 1 else "batch"


def take_batch(pending: deque[Request], max_batch: int) -> list[Request]:
    """Pop the next batch: the head request plus up to ``max_batch - 1``
    later pending requests for the *same model* (they can share weight
    streams).  Requests for other models keep their queue positions.
    """
    if not pending:
        raise ValueError("no pending requests")
    head = pending.popleft()
    batch = [head]
    if max_batch > 1:
        keep: list[Request] = []
        while pending and len(batch) < max_batch:
            request = pending.popleft()
            if request.model == head.model:
                batch.append(request)
            else:
                keep.append(request)
        for request in reversed(keep):
            pending.appendleft(request)
    return batch
