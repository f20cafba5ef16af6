"""Columnar answer transport for the process backend.

Process-mode answers cross the process boundary in a *columnar* codec
over interned element ids, so on large result sets the transfer does not
dominate the enumeration the paper made cheap:

* :class:`InternTable` maps every domain element to a dense integer id
  (domain order, built once at pipeline build time and shipped with
  :meth:`repro.core.pipeline.Pipeline.rebuild_spec`), so answers cross
  the process boundary as integers regardless of what the domain
  elements are (ints, strings, tuples, ...);
* :class:`ColumnarCodec` packs a chunk of answer rows arity-column-wise
  into contiguous fixed-width integer buffers.  Each column stores its
  minimum id and the byte width of the *span* — a column whose chunk is
  constant (the outermost variable of a contiguous slice often is) costs
  zero bytes per row — and the packed buffer is zlib-compressed when
  that wins;
* chunks are bounded by the ``chunk_rows`` knob
  (:func:`repro.storage.cost_model.default_chunk_rows` sizes the
  default), so the parent decodes lazily chunk by chunk instead of
  waiting on a whole shard before serving the first page.

In-process rows never touch the codec: they stay zero-copy.  Only
process-mode chunks and the encoded wire are encoded.
"""

from __future__ import annotations

import struct
import sys
import time
import zlib
from array import array
from itertools import islice
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EngineError

Element = Hashable
Answer = Tuple[Element, ...]

_FLAG_RAW = 0
_FLAG_ZLIB = 1

# Compressing tiny chunks costs more than the bytes it saves.
_COMPRESS_THRESHOLD = 256

_HEADER = struct.Struct("<II")  # rows, arity
_COLUMN = struct.Struct("<BQ")  # offset byte width (0/1/2/4/8), minimum id

_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def width_for(span: int) -> int:
    """The narrowest fixed byte width representing ids in ``[0, span]``."""
    if span < 0:
        raise EngineError(f"id span must be non-negative, got {span}")
    for width in (1, 2, 4, 8):
        if span < (1 << (8 * width)):
            return width
    raise EngineError(f"id span {span} exceeds 64-bit columns")


class InternTable:
    """Dense integer ids for a structure's domain, in domain order.

    Both sides of the process boundary hold the same table (the worker's
    copy travels inside the pipeline rebuild spec), so an answer element
    is shipped as its id and looked back up parent-side in O(1).
    """

    __slots__ = ("elements", "_ids")

    def __init__(self, elements: Iterable[Element]):
        self.elements: List[Element] = list(elements)
        self._ids = {element: i for i, element in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def id_of(self, element: Element) -> int:
        return self._ids[element]

    def element(self, ident: int) -> Element:
        return self.elements[ident]

    def id_width(self) -> int:
        """Bytes per id when offsets are not narrowed (the upper bound)."""
        return width_for(max(len(self.elements) - 1, 0))

    def __reduce__(self):
        # Pickle only the element list; the id map is rebuilt on load
        # (halves the shipped table, and the dict is derived state).
        return (InternTable, (self.elements,))

    def __repr__(self) -> str:
        return f"InternTable({len(self.elements)} elements)"


class TransferStats:
    """Parent-side accounting of one consumer's received transport chunks.

    Besides the totals, chunks are attributed to *sources* — work-unit
    labels like ``"b3[0:512]"`` or shard labels like ``"shard1"`` — with
    first/last-arrival timestamps (``time.monotonic``), and
    :meth:`note_done` records when each source *finished producing*
    (worker-side enumeration end for mailbox units, parent-side drain
    end otherwise).  ``first_chunk_at < done_at`` for a source is the
    observable signature of true streaming transfer: the first page
    arrived while that unit was still enumerating.

    ``head_rows`` is the number of rows an automatic run served
    in-process, as its serial head, before it handed the rest to the
    pool; it stays ``None`` while the run has not handed over.
    """

    __slots__ = (
        "chunks",
        "bytes_received",
        "rows",
        "first_chunk_at",
        "last_chunk_at",
        "per_source",
        "head_rows",
    )

    def __init__(self) -> None:
        self.chunks = 0
        self.bytes_received = 0
        self.rows = 0
        self.first_chunk_at: Optional[float] = None
        self.last_chunk_at: Optional[float] = None
        # source label -> {chunks, bytes, rows, first_at, last_at, done_at}
        self.per_source: Dict[str, dict] = {}
        self.head_rows: Optional[int] = None

    def _source_entry(self, source: str) -> dict:
        entry = self.per_source.get(source)
        if entry is None:
            entry = {
                "chunks": 0,
                "bytes": 0,
                "rows": 0,
                "first_at": None,
                "last_at": None,
                "done_at": None,
            }
            self.per_source[source] = entry
        return entry

    def record(self, nbytes: int, rows: int, source: Optional[str] = None) -> None:
        now = time.monotonic()
        self.chunks += 1
        self.bytes_received += nbytes
        self.rows += rows
        if self.first_chunk_at is None:
            self.first_chunk_at = now
        self.last_chunk_at = now
        if source is not None:
            entry = self._source_entry(source)
            entry["chunks"] += 1
            entry["bytes"] += nbytes
            entry["rows"] += rows
            if entry["first_at"] is None:
                entry["first_at"] = now
            entry["last_at"] = now

    def note_done(self, source: str, at: Optional[float] = None) -> None:
        """Record when ``source`` finished producing its stream.

        ``at`` lets mailbox drains pass the *worker's* enumeration-end
        timestamp (``time.monotonic`` is system-wide on the platforms
        the process backend runs on); default is now, parent-side.
        """
        self._source_entry(source)["done_at"] = (
            time.monotonic() if at is None else at
        )

    def as_dict(self) -> dict:
        return {
            "chunks": self.chunks,
            "bytes_received": self.bytes_received,
            "rows": self.rows,
            "first_chunk_at": self.first_chunk_at,
            "last_chunk_at": self.last_chunk_at,
            "head_rows": self.head_rows,
            "sources": {
                source: dict(entry) for source, entry in self.per_source.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"TransferStats(chunks={self.chunks}, "
            f"bytes={self.bytes_received}, rows={self.rows}, "
            f"sources={len(self.per_source)})"
        )


class ColumnarCodec:
    """Encode answer chunks as contiguous per-column id buffers."""

    name = "columnar"

    __slots__ = ("intern",)

    def __init__(self, intern: InternTable):
        self.intern = intern

    # -- worker side ---------------------------------------------------

    def encode(self, rows: Sequence[Answer]) -> bytes:
        """One chunk of answer rows -> one transferable byte buffer."""
        ids = self.intern._ids
        count = len(rows)
        arity = len(rows[0]) if count else 0
        parts = [_HEADER.pack(count, arity)]
        for column in range(arity):
            ordinals = [ids[row[column]] for row in rows]
            low = min(ordinals)
            span = max(ordinals) - low
            width = 0 if span == 0 else width_for(span)
            parts.append(_COLUMN.pack(width, low))
            if width:
                packed = array(_TYPECODES[width], [v - low for v in ordinals])
                if sys.byteorder != "little":  # pragma: no cover
                    packed.byteswap()
                parts.append(packed.tobytes())
        raw = b"".join(parts)
        if len(raw) >= _COMPRESS_THRESHOLD:
            squeezed = zlib.compress(raw, 1)
            if len(squeezed) + 1 < len(raw):
                return bytes((_FLAG_ZLIB,)) + squeezed
        return bytes((_FLAG_RAW,)) + raw

    # -- parent side ---------------------------------------------------

    def decode(self, buf: bytes) -> List[Answer]:
        """One received buffer -> the chunk's answer rows, in order."""
        flag = buf[0]
        payload: bytes = bytes(memoryview(buf)[1:])
        if flag == _FLAG_ZLIB:
            payload = zlib.decompress(payload)
        elif flag != _FLAG_RAW:
            raise EngineError(f"unknown transport chunk flag {flag}")
        count, arity = _HEADER.unpack_from(payload, 0)
        offset = _HEADER.size
        if arity == 0:
            return [() for _ in range(count)]
        elements = self.intern.elements
        columns: List[List[Element]] = []
        for _ in range(arity):
            width, low = _COLUMN.unpack_from(payload, offset)
            offset += _COLUMN.size
            if width == 0:
                columns.append([elements[low]] * count)
                continue
            packed = array(_TYPECODES[width])
            packed.frombytes(payload[offset : offset + count * width])
            if sys.byteorder != "little":  # pragma: no cover
                packed.byteswap()
            offset += count * width
            columns.append([elements[low + v] for v in packed])
        return list(zip(*columns))

    def __repr__(self) -> str:
        return f"ColumnarCodec(intern={self.intern!r})"


def split_chunks(rows: Iterable[Answer], size: int) -> Iterator[List[Answer]]:
    """Cut a row stream into lists of at most ``size`` rows, lazily."""
    rows = iter(rows)
    while True:
        chunk = list(islice(rows, size))
        if not chunk:
            return
        yield chunk


def estimate_encoded_bytes(rows: int, arity: int, id_width: int, chunk_rows: int) -> int:
    """Upper-bound estimate of the columnar bytes for ``rows`` answers.

    Ignores offset narrowing and compression (both only shrink chunks),
    so :meth:`repro.session.Query.explain` reports a conservative bound.
    """
    if rows <= 0 or arity <= 0:
        return 0
    chunks = -(-rows // max(chunk_rows, 1))
    per_chunk_overhead = 1 + _HEADER.size + arity * _COLUMN.size
    return rows * arity * id_width + chunks * per_chunk_overhead
