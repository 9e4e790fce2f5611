"""Audio decoding, dataset manifests, deterministic splits, and binary feature storage.

WAV files are read by a small RIFF/WAVE codec on :mod:`struct` and
:func:`numpy.frombuffer`: PCM u8, i16, i24 and i32 and IEEE float32 and
float64, any channel count, plain or ``WAVE_FORMAT_EXTENSIBLE`` headers; they
are written as 16-bit PCM.  Every decoded clip is reduced to a mono float64
signal in [-1, 1].  Manifests are plain tab-separated text
(``relative/path<TAB>label``).  Feature stores and the model files share one
checksummed binary framing, written and read by :func:`write_container` and
:func:`read_container`.  A model file is one such container; a feature store
is a table of contents followed by one container per feature family, so a
load reads only the families it needs.  A store, in memory and on disk,
holds each family's static columns only; the pipeline derives the deltas
where it reads a clip.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import DELTA_WINDOW

FEATURE_STORE_MAGIC = b"SFS1"
#: version 5 stores only each record's static columns, and each block names
#: the delta window; version 4 puts each family in a container of its own
#: behind a table of contents; version 3 no longer stores cepscom, which is
#: derived from its parts; version 2 checksums the whole body; version 1
#: checksummed each record
FEATURE_STORE_VERSION = 5

#: bytes a container adds to its payload: magic, version and checksum
_CONTAINER_OVERHEAD = 4 + 4 + 8

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF
#: bytes hashed per numpy step; bounds the temporaries to about 1 MB
_FNV_BLOCK = 1 << 16
#: P^B, P^(B-1), ..., P^1 mod 2^64 for the block size B; a block of n bytes
#: uses the last n entries
_FNV_POWERS = np.cumprod(np.full(_FNV_BLOCK, _FNV_PRIME, dtype=np.uint64))[::-1].copy()
_FNV_POWERS.setflags(write=False)
_FNV_PRIME_LOW = _FNV_PRIME & 0xFF


class FeatureStoreError(ValueError):
    """Malformed, truncated, or incompatible feature/model file, a feature
    record the store does not hold or already holds, or one a feature file
    cannot hold."""


class ChecksumError(FeatureStoreError):
    """Stored checksum does not match the payload."""


def _prefix_xor(e: np.ndarray) -> None:
    """Replace ``e[k]`` by ``e[0] ^ ... ^ e[k]`` in place (size a multiple of 8)."""
    words = e.view("<u8")
    words ^= words << 8
    words ^= words << 16
    words ^= words << 32
    # each word's top byte now holds the XOR of its 8 bytes; spread the XOR
    # of all earlier words' totals over every byte of the word
    words[1:] ^= np.bitwise_xor.accumulate(words[:-1] >> 56) * 0x0101010101010101


def _xored_low_bytes(block: np.ndarray, low: int) -> np.ndarray:
    """``y[k]``: the state's low byte just after XOR-ing in ``block[k]``.

    ``y[k] = (y[k-1] * 0xB3 mod 256) ^ block[k]``, starting from ``low``.
    Writing ``y[k] = y[k-1] ^ e[k]`` with ``e[k] = block[k] ^ (y[k-1] * 0xB3
    mod 256) ^ y[k-1]``, bit j of ``e[k]`` depends only on bits below j of
    ``y[k-1]``, because 0xB3 is odd.  So each prefix-XOR pass fixes one more
    bit of ``y``, and eight passes fix all of it.
    """
    n = block.size
    y = np.zeros(-(-n // 8) * 8, dtype=np.uint8)
    e = np.zeros_like(y)
    for _ in range(8):
        np.multiply(y[: n - 1], _FNV_PRIME_LOW, out=e[1:n])
        e[1:n] ^= y[: n - 1]
        e[1:n] ^= block[1:]
        e[0] = block[0] ^ low
        _prefix_xor(e)
        y, e = e, y
    return y[:n]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string.

    Computed exactly, a block at a time with numpy.  XOR with a byte
    changes only the state's low byte ``l``, so ``h ^ b == h + d`` with
    ``d = (l ^ b) - l``.  Hence after ``n`` bytes ``h = h0 * P^n + sum d_k *
    P^(n-k) mod 2^64`` (``k`` from 0), one wrapping ``uint64`` dot product
    with a table of prime powers.  The low bytes evolve on their own, as
    ``(l * 0xB3 mod 256) ^ b``; :func:`_xored_low_bytes` computes them bit
    plane by bit plane with prefix XORs.
    """
    h = _FNV_OFFSET
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, buf.size, _FNV_BLOCK):
        block = buf[start : start + _FNV_BLOCK]
        low = h & 0xFF
        xored = _xored_low_bytes(block, low)
        # d_k: the low byte after the XOR minus the low byte before it
        d = xored.astype(np.int64)
        d[0] -= low
        d[1:] -= xored[:-1] * _FNV_PRIME_LOW
        powers = _FNV_POWERS[_FNV_BLOCK - block.size :]
        h = (h * int(powers[0]) + int(np.dot(d.view(np.uint64), powers))) & _U64_MASK
    return h


@dataclass
class AudioClip:
    """Mono audio signal with its sample rate.

    ``samples`` are dimensionless amplitudes in [-1, 1]; ``source_id``
    identifies the clip (normally its manifest-relative path).
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("clip must hold a nonempty 1-D sample sequence")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"clip {self.source_id!r} has non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
#: bytes 4..15 of a WAVE_FORMAT_EXTENSIBLE sub-format GUID; bytes 0..3 hold
#: the format tag (RFC 2361)
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: (format tag, bytes per sample) -> the dtype a sample decodes to; 24-bit
#: PCM lands in the upper three bytes of an int32
_WAV_DTYPES = {
    (_WAVE_FORMAT_PCM, 1): np.dtype(np.uint8),
    (_WAVE_FORMAT_PCM, 2): np.dtype("<i2"),
    (_WAVE_FORMAT_PCM, 3): np.dtype("<i4"),
    (_WAVE_FORMAT_PCM, 4): np.dtype("<i4"),
    (_WAVE_FORMAT_IEEE_FLOAT, 4): np.dtype("<f4"),
    (_WAVE_FORMAT_IEEE_FLOAT, 8): np.dtype("<f8"),
}


def _to_unit_range(data: np.ndarray) -> np.ndarray:
    """Scale integer PCM to [-1, 1] by the format's full-scale value."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        # 24-bit PCM is decoded into the upper bytes of an int32
        return data.astype(np.float64) / 2147483648.0
    return data.astype(np.float64)


def _wav_format(path: Path, fmt: bytes) -> tuple:
    """``(channels, sample rate, sample dtype, bytes per sample)`` of a fmt chunk."""
    if len(fmt) < 16:
        raise ValueError(f"{path}: fmt chunk of {len(fmt)} bytes, need at least 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if (len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22
                or fmt[28:40] != _SUBFORMAT_GUID_TAIL):
            raise ValueError(f"{path}: malformed WAVE_FORMAT_EXTENSIBLE fmt chunk")
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels == 0 or rate == 0 or block_align == 0 or block_align % channels:
        raise ValueError(
            f"{path}: invalid fmt chunk ({channels} channels, {rate} Hz, "
            f"block align {block_align})"
        )
    width = block_align // channels
    dtype = _WAV_DTYPES.get((tag, width))
    if dtype is None or bits > 8 * width or (tag == _WAVE_FORMAT_IEEE_FLOAT and bits != 8 * width):
        raise ValueError(
            f"{path}: unsupported WAV sample format (format tag {tag:#06x}, "
            f"{bits} bits in {width}-byte samples)"
        )
    return channels, rate, dtype, width


def _decode_wav(path: Path, blob: bytes) -> tuple:
    """``(sample rate, samples)`` of a RIFF/WAVE file's bytes; samples are
    1-D for one channel and frames x channels otherwise."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    pos = 12
    while True:
        if pos + 8 > len(blob):
            raise ValueError(f"{path}: no data chunk")
        chunk_id = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        start = pos + 8
        if start + size > len(blob):
            raise ValueError(
                f"{path}: {chunk_id!r} chunk declares {size} bytes, "
                f"the file holds {len(blob) - start}"
            )
        if chunk_id == b"fmt ":
            fmt = _wav_format(path, blob[start : start + size])
        elif chunk_id == b"data":
            break
        # chunks are padded to an even size; unknown ones are skipped
        pos = start + size + (size & 1)
    if fmt is None:
        raise ValueError(f"{path}: no fmt chunk before the data chunk")
    channels, rate, dtype, width = fmt
    if size % (channels * width):
        raise ValueError(
            f"{path}: data chunk of {size} bytes is not a whole number of "
            f"{channels * width}-byte frames"
        )
    if width == 3:
        words = np.zeros((size // 3, 4), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(blob, np.uint8, size, start).reshape(-1, 3)
        data = words.view(dtype)[:, 0]
    else:
        data = np.frombuffer(blob, dtype, size // width, start)
    return rate, data.reshape(-1, channels) if channels > 1 else data


def read_wav(path: str | Path) -> AudioClip:
    """Read a PCM or IEEE-float WAV file as a mono clip.

    Multichannel audio is averaged across channels after scaling to
    [-1, 1].  Raises ``FileNotFoundError`` for a missing file and
    ``ValueError`` naming the file for a malformed header, a data chunk
    shorter than it declares, or zero-length audio.
    """
    path = Path(path)
    rate, data = _decode_wav(path, path.read_bytes())
    if data.size == 0:
        raise ValueError(f"{path}: zero-length audio")
    samples = _to_unit_range(data)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioClip(samples=samples, sample_rate=rate, source_id=path.name)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM WAV, rounded and clipped to full scale."""
    scaled = clip.samples * 32768.0
    data = np.clip(np.round(scaled, out=scaled), -32768, 32767, out=scaled).astype("<i2")
    rate = clip.sample_rate
    fmt = struct.pack("<HHIIHH", _WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16)
    chunks = b"fmt " + pack_u32(len(fmt)) + fmt + b"data" + pack_u32(data.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + pack_u32(4 + len(chunks) + data.nbytes) + b"WAVE" + chunks)
        fh.write(data)


@dataclass
class DatasetManifest:
    """Ordered (clip_path, label) entries plus the canonical class order.

    A training manifest's ``class_names`` fixes the class index of all
    that is derived from it: models, scores, confusion matrices, fusion
    weights.
    """

    entries: list[tuple[str, str]]
    class_names: list[str]

    def __post_init__(self) -> None:
        known = set(self.class_names)
        if len(known) != len(self.class_names):
            raise ValueError("class_names must be unique")
        for clip_path, label in self.entries:
            if label not in known:
                raise ValueError(f"entry {clip_path!r} has unknown label {label!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def label_indices(self) -> np.ndarray:
        """Per-entry class index, in entry order."""
        lut = {name: i for i, name in enumerate(self.class_names)}
        return np.array([lut[label] for _, label in self.entries], dtype=np.int64)

    def subset(self, indices) -> "DatasetManifest":
        """New manifest with the selected entries; class order is preserved."""
        return DatasetManifest(
            entries=[self.entries[i] for i in indices],
            class_names=list(self.class_names),
        )


def check_csv_field(value: str, what: str, where: str = "") -> str:
    """``value``, if it may stand as a plain CSV field: clip ids, labels and
    system ids travel through the score and weight files, which refuse
    commas and line breaks.  ``where`` (``file:line: ``) opens the error."""
    if "," in value or "\n" in value or "\r" in value:
        raise ValueError(f"{where}{what} {value!r} may not contain commas or newlines")
    return value


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a ``path<TAB>label`` manifest; ``#`` lines are comments.

    Class order is the order of first label appearance.  A path or label
    with a comma is refused, since the score and weight files could not
    carry it.
    """
    path = Path(path)
    entries: list[tuple[str, str]] = []
    class_names: list[str] = []
    seen_paths: set[str] = set()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'path<TAB>label', got {raw!r}")
        clip_path, label = fields[0].strip(), fields[1].strip()
        if not clip_path or not label:
            raise ValueError(f"{path}:{lineno}: empty path or label")
        check_csv_field(clip_path, "clip path", f"{path}:{lineno}: ")
        check_csv_field(label, "label", f"{path}:{lineno}: ")
        if clip_path in seen_paths:
            raise ValueError(f"{path}:{lineno}: duplicate clip path {clip_path!r}")
        seen_paths.add(clip_path)
        if label not in class_names:
            class_names.append(label)
        entries.append((clip_path, label))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return DatasetManifest(entries=entries, class_names=class_names)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    lines = [f"{clip_path}\t{label}" for clip_path, label in manifest.entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def resolve_clip_path(manifest_path: str | Path, entry_path: str) -> Path:
    """Entry paths are taken relative to the manifest's directory."""
    p = Path(entry_path)
    return p if p.is_absolute() else Path(manifest_path).parent / p


def split_dataset(
    manifest: DatasetManifest, train_fraction: float, seed: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Deterministic stratified train/test split.

    Per class the train count is ``max(1, round(train_fraction * n))``
    (round half up); a class it would leave without a test clip is an
    error.  Both outputs keep the parent's ``class_names`` so class indices
    stay stable.  ``train_fraction=0.25`` gives a 1:3 train:test ratio on
    balanced datasets.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    labels = [label for _, label in manifest.entries]
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for name in manifest.class_names:
        class_idx = [i for i, label in enumerate(labels) if label == name]
        n = len(class_idx)
        if n < 2:
            raise ValueError(f"class {name!r} has {n} entries; need at least 2 to split")
        n_train = max(1, int(math.floor(train_fraction * n + 0.5)))
        if n_train >= n:
            raise ValueError(
                f"class {name!r} has {n} clips; train_fraction {train_fraction} "
                f"puts all of them in train and leaves none to test"
            )
        perm = rng.permutation(n)
        chosen = {class_idx[j] for j in perm[:n_train]}
        train_idx.extend(i for i in class_idx if i in chosen)
        test_idx.extend(i for i in class_idx if i not in chosen)
    return manifest.subset(sorted(train_idx)), manifest.subset(sorted(test_idx))


@dataclass
class FeatureStore:
    """In-memory map from (source_id, family name) to a clip's static
    feature columns, frames x static width, one width per family.

    Write-once: a record, once added, is never replaced, so whatever is
    derived from it stays valid for the store's life."""

    records: dict[tuple[str, str], np.ndarray] = field(default_factory=dict, init=False)
    _dims: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def add(self, source_id: str, extractor: str, values: np.ndarray) -> None:
        if (source_id, extractor) in self.records:
            raise FeatureStoreError(
                f"the feature store already holds {extractor!r} features for clip "
                f"{source_id!r}; a record is never replaced"
            )
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("feature matrix must be 2-D (frames x dims)")
        dim = self._dims.setdefault(extractor, values.shape[1])
        if dim != values.shape[1]:
            raise ValueError(
                f"extractor {extractor!r} dimension mismatch: {dim} vs {values.shape[1]}"
            )
        self.records[(source_id, extractor)] = values

    def get(self, source_id: str, extractor: str) -> np.ndarray:
        try:
            return self.records[(source_id, extractor)]
        except KeyError:
            held = ", ".join(self.extractors()) or "none"
            raise FeatureStoreError(
                f"no {extractor!r} features for clip {source_id!r}; "
                f"the feature store holds: {held}"
            ) from None

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.records

    def __len__(self) -> int:
        return len(self.records)

    def extractors(self) -> list[str]:
        return list(dict.fromkeys(name for _, name in self.records))


# --- the binary container shared by feature stores and model files ---

def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value)


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return pack_u32(len(raw)) + raw


def pack_floats(values: np.ndarray) -> np.ndarray:
    """Little-endian float64 bytes of an array; no copy if it already is one."""
    return np.ascontiguousarray(values, dtype="<f8").reshape(-1).view(np.uint8)


class _Reader:
    """Cursor over a byte buffer; raises FeatureStoreError on truncation."""

    def __init__(self, data: memoryview, context: str):
        self.data = data
        self.pos = 0
        self.context = context

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise FeatureStoreError(f"{self.context}: truncated file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return str(self.take(self.u32()), "utf-8")

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * 8), dtype="<f8").copy()


def pack_model_header(family: str, class_names, n_classes: int) -> bytes:
    """The block that opens every model payload: the feature family the model
    reads, then its class names in the model's class order."""
    if len(class_names) != n_classes:
        raise ValueError(f"{len(class_names)} class names for a {n_classes}-class model")
    return b"".join([pack_str(family), pack_u32(n_classes), *map(pack_str, class_names)])


def read_model_header(reader: _Reader) -> tuple[str, list[str]]:
    """``(family, class_names)`` from a block written by :func:`pack_model_header`."""
    family = reader.string()
    return family, [reader.string() for _ in range(reader.u32())]


def write_container(fh, magic: bytes, version: int, parts) -> None:
    """Write ``magic | u32 version | parts | u64 FNV-1a`` at an open file's position.

    The checksum covers everything after the magic: the version field and
    the payload.
    """
    body = b"".join([pack_u32(version), *parts])
    fh.write(magic)
    fh.write(body)
    fh.write(pack_u64(fnv1a64(body)))


def read_container(fh, magic: bytes, version: int, parse, size: int | None = None,
                   context: str | None = None):
    """Check the container in the next ``size`` bytes of an open file (by
    default the rest of it) and parse its payload.

    Magic and version are checked before the size and the checksum, so a file
    of another format version is reported as such.  ``parse`` receives a
    reader over the payload and must consume all of it.  Errors name
    ``context``, by default the file.
    """
    context = context or str(fh.name)
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if size is None:
        size = remaining
    head = fh.read(8)
    if head[:4] != magic:
        raise FeatureStoreError(f"{context}: bad magic {head[:4]!r}, expected {magic!r}")
    if len(head) < 8:
        raise FeatureStoreError(f"{context}: truncated file")
    found_version = struct.unpack_from("<I", head, 4)[0]
    if found_version != version:
        raise FeatureStoreError(
            f"{context}: format version {found_version} does not match expected {version}"
        )
    if not _CONTAINER_OVERHEAD <= size <= remaining:
        raise FeatureStoreError(f"{context}: truncated file")
    # the version, payload and checksum are read as one object: hashing the
    # checksummed span needs no copy, and the payload is parsed through views
    fh.seek(-4, os.SEEK_CUR)
    body = fh.read(size - 4)
    span = memoryview(body)
    if fnv1a64(span[:-8]) != int.from_bytes(span[-8:], "little"):
        raise ChecksumError(f"{context}: checksum mismatch")
    reader = _Reader(span[4:-8], context)
    result = parse(reader)
    if reader.pos != len(reader.data):
        raise FeatureStoreError(f"{context}: trailing bytes after payload")
    return result


# --- feature stores: a table of contents, then one container per family ---

def _block_parts(family: str, records: list) -> list:
    """Block header (family, static width, delta window, record count), then
    each record's clip, frame count and static columns."""
    width = records[0][1].shape[1]
    parts = [pack_str(family), pack_u32(width), pack_u32(DELTA_WINDOW), pack_u32(len(records))]
    for source_id, values in records:
        parts += [pack_str(source_id), pack_u32(values.shape[0]), pack_floats(values)]
    return parts


def save_features(store: FeatureStore, path: str | Path) -> None:
    """Write the store as a table of contents, then one container per family
    (bit-exact round-trip).

    Records are written as the store holds them, static columns only; each
    block header names ``DELTA_WINDOW``, the window their deltas are derived
    at.  The table gives each block's family and size, so a load can seek
    past the families it does not need.  Blocks are joined one at a time.
    """
    by_family: dict[str, list] = {}
    for (source_id, family), values in store.records.items():
        by_family.setdefault(family, []).append((source_id, values))
    blocks = {family: _block_parts(family, records) for family, records in by_family.items()}
    entries = b"".join(
        pack_str(family) + pack_u64(_CONTAINER_OVERHEAD + sum(len(part) for part in parts))
        for family, parts in blocks.items()
    )
    toc_size = _CONTAINER_OVERHEAD + 4 + 4 + len(entries)
    with open(path, "wb") as fh:
        write_container(
            fh, FEATURE_STORE_MAGIC, FEATURE_STORE_VERSION,
            [pack_u32(toc_size), pack_u32(len(blocks)), entries],
        )
        for parts in blocks.values():
            write_container(fh, FEATURE_STORE_MAGIC, FEATURE_STORE_VERSION, parts)


def _parse_toc(reader: _Reader) -> dict[str, int]:
    """``{family: block size}`` in file order."""
    reader.u32()  # the table's own size, read before the table to locate it
    sizes: dict[str, int] = {}
    for _ in range(reader.u32()):
        family = reader.string()
        if family in sizes:
            raise FeatureStoreError(
                f"{reader.context}: the table of contents lists {family!r} twice"
            )
        sizes[family] = reader.u64()
    return sizes


def _block_parser(store: FeatureStore, family: str):
    """Parser of the block the table of contents lists as ``family``: each
    record's static columns, added to the store as they are.  A record with
    no frames or with a non-finite value is refused, naming the clip."""

    def parse(reader: _Reader) -> None:
        found = reader.string()
        if found != family:
            raise FeatureStoreError(
                f"{reader.context}: holds {found!r} features, not the ones the "
                f"table of contents lists"
            )
        width, window = reader.u32(), reader.u32()
        if window != DELTA_WINDOW:
            raise FeatureStoreError(
                f"{reader.context}: delta window {window}, but features are "
                f"read with window {DELTA_WINDOW}"
            )
        for _ in range(reader.u32()):
            source_id = reader.string()
            if (source_id, family) in store:
                raise FeatureStoreError(f"{reader.context}: clip {source_id!r} appears twice")
            rows = reader.u32()
            if rows == 0:
                raise FeatureStoreError(f"{reader.context}: clip {source_id!r} has no frames")
            values = reader.floats(rows * width).reshape(rows, width)
            if not np.isfinite(values).all():
                raise FeatureStoreError(
                    f"{reader.context}: clip {source_id!r} has non-finite feature values"
                )
            store.add(source_id, family, values)

    return parse


def load_features(path: str | Path, families=None) -> FeatureStore:
    """Read a feature store, or only the named families of it (None: all).

    The magic and version are checked first, then the table of contents,
    then the file size against the table.  Each wanted block is verified
    before it is parsed; the others are skipped unread.  A named family the
    file lacks is an error that says what the file holds.  A block whose
    delta window is not ``DELTA_WINDOW`` is refused: its records would be
    read with deltas at another window than the one they were written for.
    Each loaded record is bit-identical to the one extraction made.
    """
    store = FeatureStore()
    with open(path, "rb") as fh:
        # the table's size opens its payload; read_container checks the
        # magic and version before that size matters, so a file of another
        # format version is reported as such
        toc_size = int.from_bytes(fh.read(12)[8:], "little")
        fh.seek(0)
        sizes = read_container(
            fh, FEATURE_STORE_MAGIC, FEATURE_STORE_VERSION, _parse_toc, toc_size, str(path)
        )
        expected = toc_size + sum(sizes.values())
        found = os.fstat(fh.fileno()).st_size
        if found < expected:
            raise FeatureStoreError(f"{path}: truncated file")
        if found > expected:
            raise FeatureStoreError(f"{path}: trailing bytes after the last block")
        wanted = list(sizes if families is None else families)
        missing = [family for family in wanted if family not in sizes]
        if missing:
            held = ", ".join(sizes) or "none"
            raise FeatureStoreError(
                f"no {missing[0]!r} features in {path}; the file holds: {held}"
            )
        for family, size in sizes.items():
            if family in wanted:
                read_container(
                    fh, FEATURE_STORE_MAGIC, FEATURE_STORE_VERSION,
                    _block_parser(store, family), size, f"{path}, {family!r} block",
                )
            else:
                fh.seek(size, os.SEEK_CUR)
    return store
