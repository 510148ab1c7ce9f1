"""Message-passing substrate used by the executors.

The paper's executors (§4.3) use ZeroMQ queues between the executor client,
the interchange, and managers/workers. This reproduction implements the same
messaging patterns without an external dependency:

* :class:`~repro.comms.server.MessageServer` — a ROUTER-like endpoint: binds a
  TCP port, accepts many peers, receives ``(identity, message)`` pairs and can
  send to a specific identity.
* :class:`~repro.comms.client.MessageClient` — a DEALER-like endpoint: connects
  to a server, sends and receives whole messages.
* :mod:`repro.comms.inproc` — the same API over in-process queues, used for
  thread-based deployments and unit tests.

Messages are arbitrary picklable Python objects; framing is length-prefixed
(see :mod:`repro.comms.protocol`). Batched variants (``encode_batch`` /
``send_frames`` / per-endpoint ``send_many``) move N messages in one socket
write — the multipart fast path used by the HTEX dispatch pipeline.
"""

from repro.comms.protocol import (
    FrameProtocolError,
    decode_batch,
    decode_message,
    encode_batch,
    encode_message,
    recv_frame,
    send_frame,
    send_frames,
)
from repro.comms.server import MessageServer
from repro.comms.client import MessageClient
from repro.comms.inproc import InprocRouter, InprocDealer, InprocFabric

__all__ = [
    "FrameProtocolError",
    "send_frame",
    "send_frames",
    "recv_frame",
    "encode_message",
    "encode_batch",
    "decode_message",
    "decode_batch",
    "MessageServer",
    "MessageClient",
    "InprocRouter",
    "InprocDealer",
    "InprocFabric",
]
