"""Video chunking.

"The CDN treats video chunks as separate objects for the sake of caching"
(paper Section V).  A video object is therefore split into fixed-size
chunks; a user request for a byte range touches only the chunks covering
that range, each of which hits or misses independently in the edge cache.
Images and other small objects are unchunked (one cache key).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CdnError
from repro.types import ContentCategory
from repro.workload.catalog import ContentObject

#: Default chunk size: 2 MB, typical for HTTP progressive-download CDNs.
DEFAULT_CHUNK_BYTES = 2_000_000


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """One cache-addressable piece of an object."""

    key: str
    index: int
    size: int


class Chunker:
    """Maps (object, byte range) to the cache keys covering it.

    Each object's chunk table (every :class:`ChunkRef` it splits into) is
    built once, on the object's first request or warm-up, and ranges are
    sliced out of it; tables are a pure cache, dropped when the chunker
    is pickled and rebuilt on demand.
    """

    def __init__(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        if chunk_bytes <= 0:
            raise CdnError(f"chunk size must be positive, got {chunk_bytes}")
        self.chunk_bytes = chunk_bytes
        #: object_id -> (object size, that object's chunk table).
        self._tables: dict[str, tuple[int, tuple[ChunkRef, ...]]] = {}

    def __getstate__(self) -> dict:
        return {"chunk_bytes": self.chunk_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["chunk_bytes"])

    def is_chunked(self, obj: ContentObject) -> bool:
        """Only videos larger than one chunk are split."""
        return obj.category is ContentCategory.VIDEO and obj.size_bytes > self.chunk_bytes

    def chunk_count(self, obj: ContentObject) -> int:
        if not self.is_chunked(obj):
            return 1
        return (obj.size_bytes + self.chunk_bytes - 1) // self.chunk_bytes

    def chunk_size(self, obj: ContentObject, index: int) -> int:
        count = self.chunk_count(obj)
        if not 0 <= index < count:
            raise CdnError(f"chunk index {index} out of range for {obj.object_id} ({count} chunks)")
        if not self.is_chunked(obj):
            return obj.size_bytes
        if index < count - 1:
            return self.chunk_bytes
        return obj.size_bytes - self.chunk_bytes * (count - 1)

    def _table(self, obj: ContentObject) -> tuple[ChunkRef, ...]:
        """Every chunk of ``obj``, built on first use."""
        cached = self._tables.get(obj.object_id)
        if cached is not None and cached[0] == obj.size_bytes:
            return cached[1]
        if self.is_chunked(obj):
            table = tuple(
                ChunkRef(key=f"{obj.object_id}#c{index}", index=index, size=self.chunk_size(obj, index))
                for index in range(self.chunk_count(obj))
            )
        else:
            table = (ChunkRef(key=obj.object_id, index=0, size=obj.size_bytes),)
        self._tables[obj.object_id] = (obj.size_bytes, table)
        return table

    def chunks_for_range(self, obj: ContentObject, start: int, length: int) -> list[ChunkRef]:
        """Cache keys covering bytes ``[start, start+length)`` of ``obj``.

        For unchunked objects this is always the single whole-object key.
        """
        if length <= 0:
            raise CdnError(f"range length must be positive, got {length}")
        if start < 0 or start >= obj.size_bytes:
            raise CdnError(f"range start {start} outside object of {obj.size_bytes} bytes")
        table = self._table(obj)
        if len(table) == 1:
            return [table[0]]
        last_byte = min(start + length, obj.size_bytes) - 1
        return list(table[start // self.chunk_bytes : last_byte // self.chunk_bytes + 1])

    def all_chunks(self, obj: ContentObject) -> list[ChunkRef]:
        """Every chunk of ``obj`` (the whole-object request path)."""
        return self.chunks_for_range(obj, 0, obj.size_bytes)
