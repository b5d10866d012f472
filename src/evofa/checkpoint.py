"""Model persistence: a single binary file per model.

Layout: magic "EVCK", format version (u32 LE), JSON header length (u64 LE),
JSON header, float32 LE payload, trailing CRC-64 (u64 LE) over everything
before it. The header is ``{"backbone": {...}}``, the architecture config; the
payload's order follows from it (``_payload``), so the format version names
that order. Parameters are stored as float32; loading widens back to float64.

Loading accepts only the exact header that saving the named architecture writes.
"""
from __future__ import annotations

import json
import struct
from collections.abc import Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, Model, create_model, model_floats
from .data import _OBJECT, atomic_write, field_kinds, read_fields, read_versioned
from .errors import CheckpointError, ConfigError

MAGIC = b"EVCK"
FORMAT_VERSION = 4

# CRC-64/ECMA-182: polynomial 0x42F0E1EBA9EA3693, no reflection, zero init/xorout.
_POLY = 0x42F0E1EBA9EA3693
_MASK = 0xFFFFFFFFFFFFFFFF


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY if crc & (1 << 63) else crc << 1) & _MASK
        table.append(crc)
    return table


_TABLE = _build_table()

_HEADER = {"backbone": _OBJECT}  # the header's one field; saving writes every field of each object


def crc64(data: bytes, crc: int = 0) -> int:
    for b in data:
        crc = ((crc << 8) & _MASK) ^ _TABLE[((crc >> 56) ^ b) & 0xFF]
    return crc


def _payload(model: Model) -> Iterator[tuple[str, np.ndarray]]:
    """The model's ``(name, array)`` pairs in payload order.

    Each group's parameters in ``create_model`` order, named ``group/param``,
    then each batch-norm stage's running statistics, ``bn<i> running_mean`` and
    ``bn<i> running_var``. The arrays are the model's own.
    """
    for group in model.groups():
        for name, t in group.entries:
            yield f"{group.name}/{name}", t.data
    for i, state in enumerate(model.bn_states):
        yield f"bn{i} running_mean", state.running_mean
        yield f"bn{i} running_var", state.running_var


def _check_values(path: Path, pairs: list[tuple[str, np.ndarray]]) -> None:
    """Reject float32 payload values that are non-finite or a negative running variance.

    A float64 value beyond float32 range saves as inf, and a negative variance
    would turn eval-mode batch norm into NaN.
    """
    for name, values in pairs:
        if not np.isfinite(values).all():
            what = f"parameter {name}" if "/" in name else name
            raise CheckpointError(f"checkpoint {path} {what} holds a non-finite float32 value")
        if name.endswith("running_var") and (values < 0).any():
            raise CheckpointError(f"checkpoint {path} {name} holds a negative value")


def save_checkpoint(model: Model, path: str | Path) -> Path:
    """Serialize the model atomically; returns the written path.

    A model that would not load again (see ``_check_values``) raises CheckpointError
    and writes nothing.
    """
    path = Path(path)
    with np.errstate(over="ignore"):  # a value beyond float32 range casts to inf, which _check_values rejects
        pairs = [(name, array.astype("<f4")) for name, array in _payload(model)]
    _check_values(path, pairs)
    header = {"backbone": asdict(model.config)}  # the conv_channels tuple encodes as a JSON list
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = (
        MAGIC
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + b"".join(values.tobytes() for _, values in pairs)
    )
    blob += struct.pack("<Q", crc64(blob))
    atomic_write(path, blob)
    return path


def load_checkpoint(path: str | Path) -> Model:
    """Verify a checkpoint file and rebuild its model; parameters widen to float64.

    The decoded header must be exactly the header that saving a model of the
    architecture it names writes: ``backbone`` and no other field, holding every
    config field, each of its JSON kind, and no other. The payload must hold that
    architecture's floats, each finite, with every running variance non-negative.
    """
    path = Path(path)
    raw = read_versioned(path, MAGIC, FORMAT_VERSION, "checkpoint", CheckpointError)
    if len(raw) < 4 + 4 + 8 + 8:
        raise CheckpointError(f"checkpoint {path} is truncated ({len(raw)} bytes)")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header_end = 16 + header_len
    if header_end + 8 > len(raw):
        raise CheckpointError(f"checkpoint {path} is truncated inside its header")
    (stored_crc,) = struct.unpack_from("<Q", raw, len(raw) - 8)
    actual_crc = crc64(raw[:-8])
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"checkpoint {path} failed its checksum "
            f"(stored {stored_crc:#018x}, computed {actual_crc:#018x})"
        )
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"checkpoint {path} has an unreadable header: {e}") from e
    if (len(raw) - 8 - header_end) % 4:
        raise CheckpointError(
            f"checkpoint {path} payload of {len(raw) - 8 - header_end} bytes is not a whole number of floats"
        )
    payload = np.frombuffer(raw[header_end:-8], dtype="<f4")
    where = f"checkpoint {path} header"
    read_fields(header, _HEADER, where, CheckpointError, _HEADER)
    kinds = field_kinds(BackboneConfig)
    backbone = read_fields(header["backbone"], kinds, f"{where} backbone", CheckpointError, kinds)
    try:
        config = BackboneConfig(**{**backbone, "conv_channels": tuple(backbone["conv_channels"])})
    except ConfigError as e:  # a rule across fields, from __post_init__
        raise CheckpointError(f"{where} backbone: {e}") from e
    # sized before it is built, so a forged header cannot make loading allocate at will
    size = model_floats(config)
    if payload.size != size:
        raise CheckpointError(
            f"checkpoint {path} header field 'backbone' names an architecture that cannot be built "
            f"from the payload: it holds {size} floats, the payload {payload.size}"
        )
    model = create_model(config)
    arrays = list(_payload(model))
    stored = np.split(payload, np.cumsum([array.size for _, array in arrays])[:-1])
    _check_values(path, [(name, values) for (name, _), values in zip(arrays, stored)])
    for (_, array), values in zip(arrays, stored):
        array[...] = values.reshape(array.shape)  # float32 widens to the model's float64
    return model
