"""A consistent frame table -- frame-protocol fixture."""

PROTOCOL_VERSION = 3

FRAME_HELLO = 1
FRAME_JOB = 2
FRAME_RESULT = 3
FRAME_STOP = 4
FRAME_PING = 5

_KNOWN_KINDS = frozenset(
    (FRAME_HELLO, FRAME_JOB, FRAME_RESULT, FRAME_STOP, FRAME_PING)
)
