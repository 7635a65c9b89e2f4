"""Network substrate: accept queues, links, and TCP retransmission.

The piece of networking that matters to this paper is small but
precise: finite accept queues drop packets when they overflow, and
clients retransmit dropped packets on a timer — turning a
150-millisecond millibottleneck into multi-second response times.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.netmodel.sockets": ("ListenSocket", "Link"),
    "repro.netmodel.tcp": ("TcpSender", "RetransmissionPolicy", "GaveUp"),
})
