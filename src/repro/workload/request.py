"""The unit of work that flows through the n-tier system."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event
from repro.workload.interactions import Interaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request:
    """One client HTTP request travelling through the tiers.

    The client creates the request and waits on :attr:`completion`;
    the web tier triggers that event (with no value: the request
    holding an event whose value is the request would be a reference
    cycle per request) when the response is sent.  Components
    annotate the request as it travels (which app server handled it,
    how many times its packet was dropped) so the metrics layer can
    attribute outcomes afterwards.
    """

    __slots__ = (
        "request_id", "interaction", "client_id", "created_at",
        "completion", "retransmissions", "served_by", "accepted_at",
        "dispatched_at", "completed_at", "cancelled",
    )

    def __init__(self, env: "Environment", request_id: int,
                 interaction: Interaction, client_id: int) -> None:
        self.request_id = request_id
        self.interaction = interaction
        self.client_id = client_id
        self.created_at = env.now
        #: Triggered by the web tier when the response is sent.
        self.completion = Event(env)
        #: Filled in by the TCP layer.
        self.retransmissions = 0
        #: Name of the application server that processed the request.
        self.served_by: Optional[str] = None
        #: When the web tier dequeued the request from its accept queue.
        self.accepted_at: Optional[float] = None
        #: When the load balancer dispatched it to the app tier.
        self.dispatched_at: Optional[float] = None
        #: When the response reached the client.
        self.completed_at: Optional[float] = None
        #: Cooperative-cancellation flag: a hedging race that has
        #: already been won sets this so the losing dispatch stops at
        #: its next retry round instead of re-entering the balancer.
        self.cancelled = False

    @property
    def traffic_bytes(self) -> int:
        """Bytes moved for this request (total_traffic's accounting)."""
        return self.interaction.traffic_bytes

    def __repr__(self) -> str:
        return "<Request #{} {} client={}>".format(
            self.request_id, self.interaction.name, self.client_id)
