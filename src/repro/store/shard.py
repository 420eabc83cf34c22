"""Binary shard persistence for :class:`ColumnarStudy`.

A shard is one *column container*, the package's single binary layout
for column data::

    magic   8 bytes   b"REPROSH1"
    hlen    8 bytes   little-endian uint64: byte length of the header JSON
    header  hlen      UTF-8 JSON (caller fields plus column descriptors)
    blobs             raw little-endian column bytes, each 64-byte aligned

The header's ``columns`` list carries ``{name, dtype, count, offset}`` per
column, with ``offset`` relative to the start of the container — so a
reader maps the file once and wraps every column as ``np.frombuffer(mm,
dtype, count, offset)`` without copying a byte.  :func:`container_chunks`
writes a container against a column -> dtype table and
:func:`read_container` parses one, validating the magic, the column set,
every dtype and the exact layout.  A shard (header: schema, meta, string
tables) is a container written raw, so it can be mapped; the study cache's
stage files (:mod:`repro.cache.study`) are containers written through a
zlib stream.  Arrays loaded from a shard are read-only views over the page
cache; the :class:`ColumnarStudy` keeps the mmap object alive for as long
as any view might be.

Shards are content-keyed: :class:`ShardStore` files them under
``<cache root>/shards/<etag>.shard`` where the etag *is* the study cache
fingerprint (config + code digest), published atomically via the same
``.tmp<pid>`` + ``os.replace`` discipline as the study cache — a shard is
immutable once published, which is what lets the serving layer hand out
``Cache-Control: immutable`` responses keyed by the same fingerprint.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.store.columnar import COLUMN_DTYPES, ColumnarStudy

MAGIC = b"REPROSH1"
#: Bump when the shard byte layout changes (column additions are covered by
#: the header's explicit descriptors; this is for structural breaks).
SHARD_SCHEMA = 1
#: Column blobs start on multiples of this (harmless for correctness;
#: keeps wide int64 columns page- and cache-line-friendly).
ALIGNMENT = 64

#: The width of the header-length field, and of a container-length prefix
#: (``container_chunks(..., length_prefix=True)``): little-endian uint64.
LENGTH_BYTES = 8


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def container_chunks(
    header: Mapping[str, object],
    columns: Mapping[str, np.ndarray],
    dtypes: Mapping[str, str],
    *,
    length_prefix: bool = False,
) -> Iterator[Union[bytes, memoryview]]:
    """The bytes of one column container, as a sequence of chunks.

    ``header`` is any JSON object (it gains the ``columns`` descriptors);
    ``columns`` must hold exactly the names in ``dtypes``, each with its
    dtype.  The chunks are the framing (magic, header length, header),
    then per column its alignment padding and a view of its bytes — no
    column is copied, so a caller can stream them into a file or a
    compressor.  With ``length_prefix`` the first chunk is the container's
    byte length (:data:`LENGTH_BYTES`), so a reader of a compressed stream
    can size its buffer before it inflates the container.
    """
    if set(columns) != set(dtypes):
        raise TypeError(
            f"columns {sorted(columns)} do not match the table {sorted(dtypes)}"
        )
    descriptors: List[Dict[str, object]] = []
    arrays: List[np.ndarray] = []
    for name in sorted(columns):
        array = np.ascontiguousarray(columns[name])
        if array.dtype != np.dtype(dtypes[name]):
            raise TypeError(
                f"column {name}: dtype {array.dtype}, expected {dtypes[name]}"
            )
        arrays.append(array)
        descriptors.append(
            {
                "name": name,
                "dtype": dtypes[name],
                "count": int(array.size),
                "offset": 0,  # fixed up below once the header size is known
            }
        )

    def render_header() -> bytes:
        return json.dumps(
            {**header, "columns": descriptors}, sort_keys=True
        ).encode("utf-8")

    # The offsets appear inside the header, and the header's length moves
    # the offsets.  Rendered digit counts can only grow when offsets grow,
    # so iterating until the rendered length stops changing converges in a
    # couple of rounds.
    header_bytes = render_header()
    while True:
        end = len(MAGIC) + LENGTH_BYTES + len(header_bytes)
        for descriptor, array in zip(descriptors, arrays):
            descriptor["offset"] = _align(end)
            end = _align(end) + array.nbytes
        rendered = render_header()
        if len(rendered) == len(header_bytes):
            header_bytes = rendered
            break
        header_bytes = rendered

    if length_prefix:
        yield end.to_bytes(LENGTH_BYTES, "little")
    yield MAGIC + len(header_bytes).to_bytes(LENGTH_BYTES, "little") + header_bytes
    position = len(MAGIC) + LENGTH_BYTES + len(header_bytes)
    for descriptor, array in zip(descriptors, arrays):
        offset = int(descriptor["offset"])  # type: ignore[arg-type]
        yield b"\0" * (offset - position)
        yield memoryview(array.reshape(-1)).cast("B")
        position = offset + array.nbytes


def read_container(
    buffer, dtypes: Mapping[str, str], *, source: object = "container"
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Parse one column container: its header and its columns.

    The columns are read-only ``np.frombuffer`` views over ``buffer`` (an
    ``mmap`` or ``bytes``).  Raises ``ValueError`` — naming ``source`` —
    for a bad magic, an unreadable header, an unknown or missing
    column, a dtype other than the table's, or a layout that disagrees with
    the buffer's length (a short column or trailing bytes).  Every check
    runs before the first view is made, so a failed read leaves no view
    pinning ``buffer``.
    """
    size = len(buffer)
    header_start = len(MAGIC) + LENGTH_BYTES
    if size < header_start or buffer[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{source}: not a repro column container (bad magic)")
    hlen = int.from_bytes(buffer[len(MAGIC): header_start], "little")
    if header_start + hlen > size:
        raise ValueError(f"{source}: truncated header")
    try:
        header = json.loads(buffer[header_start: header_start + hlen])
        layout = [
            (str(d["name"]), str(d["dtype"]), int(d["count"]), int(d["offset"]))
            for d in header["columns"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{source}: unreadable header ({exc!r})") from None
    names = [name for name, *_ in layout]
    if sorted(names) != sorted(dtypes):
        raise ValueError(
            f"{source}: columns {sorted(names)}, expected {sorted(dtypes)}"
        )
    cursor = end = header_start + hlen
    for name, dtype, count, offset in layout:
        if dtype != dtypes[name]:
            raise ValueError(
                f"{source}: column {name!r} has dtype {dtype!r}, "
                f"expected {dtypes[name]!r}"
            )
        if count < 0 or offset != _align(cursor):
            raise ValueError(f"{source}: column {name!r} is out of place")
        cursor = end = offset + count * np.dtype(dtype).itemsize
    if end != size:
        raise ValueError(
            f"{source}: columns end at byte {end}, the data at byte {size}"
        )
    columns = {
        name: np.frombuffer(buffer, dtype=np.dtype(dtype), count=count, offset=offset)
        for name, dtype, count, offset in layout
    }
    return header, columns


def write_shard(study: ColumnarStudy, path: Union[str, Path]) -> Path:
    """Serialise a packed study to ``path`` atomically; returns the path.

    The file appears complete or not at all: bytes are staged in a
    ``.tmp<pid>`` sibling and moved into place with one ``os.replace``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": SHARD_SCHEMA,
        "meta": study.meta,
        "cves": study.cves,
        "categories": study.categories,
    }
    staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(staging, "wb") as handle:
            for chunk in container_chunks(header, study.columns, COLUMN_DTYPES):
                handle.write(chunk)
        os.replace(staging, path)
    except BaseException:
        try:
            staging.unlink()
        except OSError:
            pass
        raise
    return path


def load_shard(path: Union[str, Path]) -> ColumnarStudy:
    """Map a shard and wrap its columns zero-copy.

    The returned study's arrays are read-only ``np.frombuffer`` views over
    one shared ``mmap``; no column bytes are copied at load time (pages
    fault in lazily as queries touch them).  Raises ``ValueError`` for
    anything that is not a complete shard of the current schema.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    columns: Dict[str, np.ndarray] = {}
    try:
        header, columns = read_container(mm, COLUMN_DTYPES, source=path)
        if header.get("schema") != SHARD_SCHEMA:
            raise ValueError(
                f"{path}: shard schema {header.get('schema')!r}, "
                f"expected {SHARD_SCHEMA}"
            )
        study = ColumnarStudy(
            meta=dict(header["meta"]),
            cves=list(header["cves"]),
            categories=list(header["categories"]),
            columns=columns,
            _backing=mm,
        )
    except BaseException:
        # The frombuffer views export pointers into the mmap; drop them
        # first or close() raises BufferError.
        columns.clear()
        mm.close()
        raise
    return study


class ShardStore:
    """Content-keyed shard files under ``<cache root>/shards/``.

    The key is the study cache fingerprint (the shard's etag); the study
    cache, checkpoint store, manifests, and shards thereby share one root
    and one invalidation story — editing pipeline code changes the
    fingerprint, which orphans old shards rather than corrupting them.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        from repro.cache.study import default_cache_root

        self.root = Path(root).expanduser() if root else default_cache_root()

    @property
    def shard_root(self) -> Path:
        return self.root / "shards"

    def path_for(self, etag: str) -> Path:
        return self.shard_root / f"{etag}.shard"

    def has(self, etag: str) -> bool:
        return self.path_for(etag).exists()

    def save(self, study: ColumnarStudy) -> Path:
        return write_shard(study, self.path_for(study.etag))

    def load(self, etag: str) -> Optional[ColumnarStudy]:
        """The shard for a fingerprint, or None (corrupt shards evicted)."""
        path = self.path_for(etag)
        if not path.exists():
            return None
        try:
            return load_shard(path)
        except (ValueError, OSError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def entries(self) -> List[Path]:
        if not self.shard_root.is_dir():
            return []
        return sorted(self.shard_root.glob("*.shard"))
