"""``repro.serial`` -- architecture-independent serialization (Nsp substitute).

Provides the XDR-style encoder (:mod:`repro.serial.xdr`), the ``Serial``
object with optional compression (:mod:`repro.serial.serial`), the
``save`` / ``load`` / ``sload`` problem-file functions plus the
:class:`~repro.serial.store.ProblemStore` directory abstraction
(:mod:`repro.serial.store`), and the length-prefixed message framing used
by the remote TCP worker protocol (:mod:`repro.serial.frames`).

Importing this package registers the codecs for
:class:`~repro.pricing.engine.PricingProblem`,
:class:`~repro.pricing.methods.base.PricingResult`,
:class:`~repro.pricing.batch.ProblemBatch`,
:class:`~repro.pricing.scenarios.ScenarioGrid` and
:class:`~repro.pricing.methods.base.ResultColumns`, so pricing problems --
whole shared-simulation batches and scenario-grid slices of them, and the
one record of columns such a payload answers -- can be saved, loaded and
shipped across the cluster out of the box.
"""

from repro.pricing.batch import ProblemBatch
from repro.pricing.engine import PricingProblem
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.scenarios import ScenarioGrid
from repro.serial import xdr
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_JOB,
    FRAME_RESULT,
    FRAME_STOP,
    FrameAssembler,
    decode_header,
    encode_frame,
    read_frame,
)
from repro.serial.serial import Serial, serialize, unserialize
from repro.serial.store import ProblemStore, load, save, sload
from repro.serial.xdr import decode, encode, register_codec, registered_type_names

# register the pricing-layer codecs so problems round-trip through XDR; the
# encoder only reads, so it takes the non-copying wire views
register_codec(
    "PricingProblem",
    PricingProblem,
    PricingProblem.wire_view,
    PricingProblem.from_dict,
)
register_codec(
    "PricingResult",
    PricingResult,
    lambda result: result.as_dict(),
    PricingResult.from_dict,
)
register_codec(
    "ProblemBatch",
    ProblemBatch,
    ProblemBatch.wire_view,
    ProblemBatch.from_dict,
)
register_codec(
    "ScenarioGrid",
    ScenarioGrid,
    ScenarioGrid.wire_view,
    ScenarioGrid.from_dict,
)
# a record is one opaque block: the bytes of its own layout, read by its one reader
register_codec(
    "ResultColumns",
    ResultColumns,
    lambda record: {"record": record.to_bytes()},
    lambda payload: ResultColumns.from_bytes(payload.get("record")),
)

__all__ = [
    "Serial",
    "serialize",
    "unserialize",
    "encode_frame",
    "decode_header",
    "read_frame",
    "FrameAssembler",
    "FRAME_HELLO",
    "FRAME_JOB",
    "FRAME_RESULT",
    "FRAME_STOP",
    "save",
    "load",
    "sload",
    "ProblemStore",
    "encode",
    "decode",
    "register_codec",
    "registered_type_names",
    "xdr",
]
