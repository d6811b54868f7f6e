"""Shared observation vocabulary for scan results.

These codes describe what one origin observed for one service in one trial.
They match what a real ZMap + ZGrab pipeline can see on the wire, which is
exactly the signal set the paper's analyses key on (e.g. §6 distinguishes
hosts that *drop* vs *explicitly close* after the TCP handshake).
"""

from __future__ import annotations

import enum


class L7Status(enum.IntEnum):
    """Outcome of the application-layer follow-up for one service."""

    #: No SYN-ACK was received: firewalled, path-lost, or not listening.
    NO_L4 = 0
    #: TCP completed; the application handshake timed out (silent drop).
    L4_DROP = 1
    #: TCP completed; the server closed (FIN-ACK) before the handshake.
    L4_CLOSE_FIN = 2
    #: TCP completed; the server sent RST immediately after the handshake —
    #: the Alibaba network-wide SSH blocking signature.
    L4_CLOSE_RST = 3
    #: The application handshake completed.
    SUCCESS = 4


#: Statuses that count as "the origin saw this host" for ground truth and
#: coverage purposes (the paper requires a completed L7 handshake).
ACCESSIBLE_STATUSES = (L7Status.SUCCESS,)
