"""Model persistence: a single self-describing binary file per model.

Layout: magic "EVCK", format version (u32 LE), JSON header length (u64 LE),
JSON header, float32 LE payload, trailing CRC-64 (u64 LE) over everything
before it. The header carries the architecture, a named parameter table with
offsets into the payload, and the batch-norm running statistics table, so a
file can be loaded without any out-of-band knowledge. Parameters are stored
as float32; loading widens back to float64.

Loading accepts only the exact header that saving the named architecture writes.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, Model, create_model, model_floats
from .data import atomic_write
from .errors import CheckpointError

MAGIC = b"EVCK"
FORMAT_VERSION = 1

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


def crc64(data: bytes, crc: int = 0) -> int:
    for b in data:
        crc = ((crc << 8) & _MASK) ^ _TABLE[((crc >> 56) ^ b) & 0xFF]
    return crc


def _header_dict(model: Model) -> tuple[dict, np.ndarray]:
    parts: list[np.ndarray] = []
    params = []
    offset = 0
    for group in model.groups():
        for name, t in group.entries:
            flat = np.ascontiguousarray(t.data, dtype=np.float32).ravel()
            params.append(
                {"group": group.name, "name": name, "shape": list(t.shape), "offset": offset}
            )
            parts.append(flat)
            offset += flat.size
    bn = []
    for state in model.bn_states:
        mean = state.running_mean.astype(np.float32)
        var = state.running_var.astype(np.float32)
        bn.append(
            {
                "mean_offset": offset,
                "var_offset": offset + mean.size,
                "channels": int(mean.size),
                "momentum": state.momentum,
                "eps": state.eps,
            }
        )
        parts.extend([mean, var])
        offset += mean.size + var.size
    config = asdict(model.config)
    config["conv_channels"] = list(config["conv_channels"])
    header = {"backbone": config, "params": params, "bn": bn, "total_floats": offset}
    payload = np.concatenate(parts) if parts else np.zeros(0, dtype=np.float32)
    return header, payload


def _check_values(path: Path, header: dict, payload: np.ndarray) -> None:
    """Reject a float32 payload that holds a non-finite value or a negative running variance.

    A float64 value beyond float32 range saves as inf, and a negative variance
    would turn eval-mode batch norm into NaN.
    """
    for entry in header["params"]:
        values = payload[entry["offset"] : entry["offset"] + int(np.prod(entry["shape"]))]
        if not np.isfinite(values).all():
            raise CheckpointError(
                f"checkpoint {path} parameter {entry['group']}/{entry['name']} holds a non-finite float32 value"
            )
    for i, entry in enumerate(header["bn"]):
        mean, var = (payload[entry[key] : entry[key] + entry["channels"]] for key in ("mean_offset", "var_offset"))
        for stat, values in (("running_mean", mean), ("running_var", var)):
            if not np.isfinite(values).all():
                raise CheckpointError(f"checkpoint {path} bn{i} {stat} holds a non-finite float32 value")
        if (var < 0).any():
            raise CheckpointError(f"checkpoint {path} bn{i} running_var holds a negative value")


def save_checkpoint(model: Model, path: str | Path) -> Path:
    """Serialize the model atomically; returns the written path.

    A model that would not load again (see ``_check_values``) raises CheckpointError
    and writes nothing.
    """
    path = Path(path)
    header, payload = _header_dict(model)
    _check_values(path, header, payload)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = (
        MAGIC
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + payload.astype("<f4").tobytes()
    )
    blob += struct.pack("<Q", crc64(blob))
    atomic_write(path, blob)
    return path


def _header_difference(have: dict, want: dict) -> str | None:
    """The first field (and list entry) where ``have`` is not exactly ``want``, or None.

    Values compare as the JSON they encode to, so ``1`` differs from ``true`` and ``1.0``.
    """
    text = lambda value: json.dumps(value, sort_keys=True)
    for name in [*want, *sorted(have.keys() - want.keys())]:
        if name not in want:
            return f"field {name!r} is not one saving writes"
        if name not in have:
            return f"field {name!r} is missing"
        a, b = have[name], want[name]
        if text(a) == text(b):
            continue
        if isinstance(a, list) and isinstance(b, list):
            i = next(i for i, (x, y) in enumerate(zip_longest(map(text, a), map(text, b))) if x != y)
            x, y = (entries[i] if i < len(entries) else None for entries in (a, b))
            return f"field {name!r} entry {i} is {x}, the architecture has {y}"
        if isinstance(b, list):
            return f"field {name!r} is {a!r}, not a list of {len(b)} entries"
        return f"field {name!r} is {a!r}, the architecture has {b!r}"
    return None


def load_checkpoint(path: str | Path) -> Model:
    """Verify a checkpoint file and rebuild its model; parameters widen to float64.

    The decoded header must be exactly the header that saving a model of the
    architecture it names writes: its parameter table ({group, name, shape,
    offset} entries), its batch-norm table, its float count and no other field.
    Every payload float must be finite and every running variance non-negative.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 4 + 4 + 8 + 8:
        raise CheckpointError(f"checkpoint {path} is truncated ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"checkpoint {path} has bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, expected {FORMAT_VERSION}"
        )
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
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint {path} header is not a JSON object")
    if (len(raw) - 8 - header_end) % 4:
        raise CheckpointError(
            f"checkpoint {path} payload of {len(raw) - 8 - header_end} bytes is not a whole number of floats"
        )
    payload = np.frombuffer(raw[header_end:-8], dtype="<f4")
    try:
        backbone = dict(header["backbone"])
        backbone["conv_channels"] = tuple(backbone["conv_channels"])
        config = BackboneConfig(**backbone)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint {path} header field 'backbone' is invalid: {e!r}") from e
    # sized before it is built, so a forged header cannot make loading allocate at will
    size = model_floats(config)
    if payload.size != size:
        raise CheckpointError(
            f"checkpoint {path} header field 'backbone' names an architecture that cannot be built "
            f"from the payload: it holds {size} floats, the payload {payload.size}"
        )
    model = create_model(config)
    want, _ = _header_dict(model)
    difference = _header_difference(header, want)
    if difference is not None:
        raise CheckpointError(f"checkpoint {path} header {difference}")
    _check_values(path, want, payload)
    floats = lambda offset, size: payload[offset : offset + size].astype(np.float64)
    tensors = [t for group in model.groups() for _, t in group.entries]
    for t, entry in zip(tensors, want["params"]):
        t.data = floats(entry["offset"], t.size).reshape(t.shape)
    for state, entry in zip(model.bn_states, want["bn"]):
        state.running_mean = floats(entry["mean_offset"], entry["channels"])
        state.running_var = floats(entry["var_offset"], entry["channels"])
    return model
