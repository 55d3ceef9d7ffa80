"""Queue discipline interface shared by physical queues.

A queue here is purely a buffering discipline; (de)queueing cadence is driven
by the :class:`~repro.net.link.Transmitter` that owns it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..net.packet import Packet
from ..obs.probe import bind_probe


class QueueDiscipline(ABC):
    """Abstract buffering discipline for an output port.

    The base class owns the instrumentation: ``self._probe`` is the
    discipline's :class:`~repro.obs.probe.Probe` (``None`` with telemetry
    off). A discipline reports each accept / serve / discard through it —
    ``enqueued`` / ``dequeued`` / ``dropped``, with the backlog after the
    operation — and is thereby traced, audited, flight-recorded and
    windowed under ``name``.
    """

    #: True when the discipline supports bulk fluid accounting — i.e. the
    #: fluid fast path (:mod:`repro.sim.fluid`) can snapshot its per-flow
    #: backlog composition, advance it in closed form, and rebuild the
    #: buffer on epoch exit. Disciplines that keep per-packet semantics the
    #: closed form cannot reproduce (RED marking, per-flow scheduling)
    #: leave this ``False`` and force packet mode.
    supports_fluid = False

    def __init__(self, name: str = "", telemetry=None) -> None:
        self.name = name
        self._probe = bind_probe(telemetry, name, window=name)

    @abstractmethod
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Offer ``packet`` at time ``now``. Returns ``False`` if dropped."""

    @abstractmethod
    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet, or ``None`` when empty."""

    @property
    @abstractmethod
    def bytes_queued(self) -> int:
        """Current backlog in bytes."""

    @property
    @abstractmethod
    def packets_queued(self) -> int:
        """Current backlog in packets."""

    def drain(self, now: float, reason: str = "switch_restart") -> "list[Packet]":
        """Discard every buffered packet (switch-restart semantics).

        Returns the drained packets. Implementations are expected to
        account these as *drops* attributed to ``reason`` — emitting one
        ``drop`` trace event per packet rather than ``dequeue`` events —
        so the conservation auditor can attribute the loss to the fault
        window. This fallback reuses :meth:`dequeue` (and therefore
        emits dequeue telemetry); the in-tree disciplines all override
        it with fault-attributed versions.
        """
        packets = []
        while True:
            packet = self.dequeue(now)
            if packet is None:
                return packets
            packets.append(packet)

    def __len__(self) -> int:
        return self.packets_queued

    @property
    def is_empty(self) -> bool:
        return self.packets_queued == 0
