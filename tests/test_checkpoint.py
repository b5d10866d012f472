"""Tests for the binary model checkpoint format and its error reporting."""
import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofa import autodiff as ad
from evofa.autodiff import Tensor
from evofa.backbone import BackboneConfig, Model, adapt, create_model, encode, model_floats
from evofa.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    crc64,
    load_checkpoint,
    save_checkpoint,
)
from evofa.errors import CheckpointError, ConfigError

from jsonfuzz import mutated, mutation_lists

TINY = BackboneConfig(
    n_electrodes=4,
    d_bands=3,
    conv_channels=(2, 2, 2, 4),
    embedding_dim=4,
    adapter_hidden=8,
)


@pytest.fixture()
def model():
    return create_model(TINY, seed=5)


def refix_crc(blob: bytes) -> bytes:
    return blob[:-8] + struct.pack("<Q", crc64(blob[:-8]))


# -- checksum ----------------------------------------------------------------------


def test_crc64_check_value():
    # Published check value for CRC-64/ECMA-182.
    assert crc64(b"123456789") == 0x6C40DF5F0B497347


def test_crc64_empty_is_zero():
    assert crc64(b"") == 0


def test_crc64_is_incremental():
    a, b = b"model parameters", b" and running stats"
    assert crc64(a + b) == crc64(b, crc64(a))


def test_crc64_detects_single_bit_flip():
    data = bytes(range(64))
    flipped = bytes([data[0] ^ 0x01]) + data[1:]
    assert crc64(data) != crc64(flipped)


# -- round trip --------------------------------------------------------------------


def test_save_load_save_byte_identical(model, tmp_path):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_returns_path_and_leaves_no_tmp(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "deep" / "nest" / "m.ckpt")
    assert path.exists()
    assert not list(path.parent.glob("*.tmp"))


def test_read_checkpoint_structure(model, tmp_path):
    """The file's own bytes describe it: version, architecture, both tables, float count."""
    blob = save_checkpoint(model, tmp_path / "m.ckpt").read_bytes()
    assert struct.unpack_from("<I", blob, 4) == (FORMAT_VERSION,)
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    assert header["backbone"] == {**asdict(TINY), "conv_channels": list(TINY.conv_channels)}
    assert [(e["group"], e["name"]) for e in header["params"]] == [
        (group.name, name) for group in model.groups() for name, _ in group.entries
    ]
    assert len(header["bn"]) == len(model.bn_states)
    sizes = sum(int(np.prod(e["shape"])) for e in header["params"])
    sizes += sum(2 * e["channels"] for e in header["bn"])
    assert header["total_floats"] == sizes == model_floats(TINY)
    assert len(blob) - 8 - (16 + header_len) == 4 * sizes


def test_loaded_model_matches_original_structure(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for got, want in zip(loaded.groups(), model.groups()):
        assert got.name == want.name
        assert [n for n, _ in got.entries] == [n for n, _ in want.entries]
        for (_, a), (_, b) in zip(got.entries, want.entries):
            assert a.shape == b.shape
            assert a.data.dtype == np.float64
            assert a.requires_grad
    for got, want in zip(loaded.bn_states, model.bn_states):
        assert got.momentum == want.momentum
        assert got.eps == want.eps
        assert got.running_mean.shape == want.running_mean.shape


def test_float32_round_trip_embeddings_close(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(3)
    batch = Tensor(rng.normal(size=(16, TINY.n_electrodes, TINY.d_bands)))
    with ad.no_grad():
        a = adapt(encode(batch, model, mode="eval"), model.phi).data
        b = adapt(encode(batch, loaded, mode="eval"), loaded.phi).data
    assert np.allclose(a, b, rtol=1e-4, atol=1e-5)


def test_quantization_bounded_per_parameter(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(path)
    for got, want in zip(loaded.groups(), model.groups()):
        for (_, a), (_, b) in zip(got.entries, want.entries):
            scale = np.maximum(np.abs(b.data), 1e-30)
            assert np.max(np.abs(a.data - b.data) / scale) < 1e-6


def test_load_is_deterministic(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    a, b = load_checkpoint(path), load_checkpoint(path)
    for ga, gb in zip(a.groups(), b.groups()):
        assert ga.state_bytes() == gb.state_bytes()


# -- error taxonomy ----------------------------------------------------------------


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_truncated_file(tmp_path):
    path = tmp_path / "t.ckpt"
    path.write_bytes(MAGIC)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_bad_magic(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_version_mismatch(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = path.read_bytes()
    path.write_bytes(refix_crc(blob[:4] + struct.pack("<I", FORMAT_VERSION + 1) + blob[8:]))
    with pytest.raises(CheckpointError, match="format version"):
        load_checkpoint(path)


def test_truncated_inside_header(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = path.read_bytes()
    huge = blob[:8] + struct.pack("<Q", 2**40) + blob[16:]
    path.write_bytes(huge)
    with pytest.raises(CheckpointError, match="truncated inside its header"):
        load_checkpoint(path)


def test_checksum_mismatch_names_both_values(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = bytearray(path.read_bytes())
    blob[-9] ^= 0xFF  # flip a payload byte, leave the stored crc alone
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="stored 0x.*computed 0x"):
        load_checkpoint(path)


def test_unreadable_header(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    blob[16 : 16 + header_len] = b"{" * header_len
    path.write_bytes(refix_crc(bytes(blob)))
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(path)


def fake_file(tmp_path, header: dict, floats: int) -> "Path":
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob = (
        MAGIC
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + np.zeros(floats, dtype="<f4").tobytes()
    )
    path = tmp_path / "fake.ckpt"
    path.write_bytes(blob + struct.pack("<Q", crc64(blob)))
    return path


def test_payload_size_mismatch(tmp_path):
    path = fake_file(tmp_path, {"total_floats": 5}, floats=4)
    with pytest.raises(CheckpointError, match="header field 'backbone' is invalid"):
        load_checkpoint(path)


def test_parameter_outside_payload(tmp_path):
    backbone = asdict(TINY)
    backbone["conv_channels"] = list(backbone["conv_channels"])
    size = model_floats(TINY)  # the architecture's float count, so the table check is reached
    header = {
        "backbone": backbone,
        "params": [{"group": "theta", "name": "stray", "shape": [4], "offset": 10 * size}],
        "bn": [],
        "total_floats": size,
    }
    path = fake_file(tmp_path, header, floats=size)
    with pytest.raises(CheckpointError, match="field 'params' entry 0 is .*'stray'"):
        load_checkpoint(path)


def test_unknown_group_rejected(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = path.read_bytes()
    assert b'"group":"theta"' in blob
    path.write_bytes(refix_crc(blob.replace(b'"group":"theta"', b'"group":"bogus"', 1)))
    with pytest.raises(CheckpointError, match="field 'params' entry 0 is .*'group': 'bogus'"):
        load_checkpoint(path)


# -- header checks (each tampered header is re-signed, so the CRC check passes) ----------


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the checkpoint's JSON header and re-sign the file with crc64."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[16 + header_len : -8]
    path.write_bytes(body + struct.pack("<Q", crc64(body)))


def drop_param(name):
    return lambda h: h.update(params=[e for e in h["params"] if e["name"] != name])


def set_first(table, key, value):
    return lambda h: h[table][0].update({key: value})


HEADER_DEFECTS = {
    "no_fc2_b": (drop_param("fc2_b"), "field 'params' entry 20 is None, the architecture has {"),
    "no_bn": (lambda h: h.pop("bn"), "header field 'bn' is missing"),
    "no_backbone": (lambda h: h.pop("backbone"), "header field 'backbone' is invalid: KeyError('backbone')"),
    "no_params": (lambda h: h.pop("params"), "header field 'params' is missing"),
    "unknown_backbone_key": (
        lambda h: h["backbone"].update(depth=7), "header field 'backbone' is invalid"
    ),
    "bad_backbone_value": (
        lambda h: h["backbone"].update(conv_channels=[2, 2]), "header field 'backbone' is invalid"
    ),
    "nan_temperature": (
        lambda h: h["backbone"].update(matching_temperature=float("nan")), "header field 'backbone' is invalid"
    ),
    "inf_temperature": (
        lambda h: h["backbone"].update(matching_temperature=float("inf")), "header field 'backbone' is invalid"
    ),
    "d_bands_past_int64": (
        lambda h: h["backbone"].update(d_bands=2**70), "header field 'backbone' is invalid"
    ),
    "wrong_shape": (set_first("params", "shape", [5, 5]), "header field 'params' entry 0 is"),
    "renamed_param": (set_first("params", "name", "other"), "header field 'params' entry 0 is"),
    "offset_not_int": (set_first("params", "offset", "0"), "header field 'params' entry 0 is"),
    "repeated_param": (lambda h: h["params"].append(h["params"][0]), "'params' entry 21 is {"),
    "bn_channels": (set_first("bn", "channels", 1), "header field 'bn' entry 0 is"),
    "bn_missing_layer": (lambda h: h["bn"].pop(), "header field 'bn' entry 3 is None"),
    "bn_no_eps": (lambda h: h["bn"][0].pop("eps"), "header field 'bn' entry 0 is"),
    "params_not_list": (lambda h: h.update(params={}), "header field 'params' is {}, not a list of 21 entries"),
    "extra_field": (lambda h: h.update(comment=1), "header field 'comment' is not one saving writes"),
    "total_floats_off": (
        lambda h: h.update(total_floats=h["total_floats"] + 1), "header field 'total_floats' is "
    ),
    "bn_channels_as_float": (set_first("bn", "channels", 2.0), "header field 'bn' entry 0 is"),
    "params_trailing_null": (lambda h: h["params"].append(None), "header field 'params' entry 21 is None"),
    "backbone_default_left_out": (
        lambda h: h["backbone"].pop("matching_temperature"), "header field 'backbone' is {"
    ),
    "header_not_object": (None, "header is not a JSON object"),
}


@pytest.mark.parametrize("defect", list(HEADER_DEFECTS))
def test_tampered_header_raises_checkpoint_error_naming_path_and_field(model, tmp_path, defect):
    edit, says = HEADER_DEFECTS[defect]
    if edit is None:
        path = fake_file(tmp_path, [], floats=0)
    else:
        path = save_checkpoint(model, tmp_path / "m.ckpt")
        rewrite_header(path, edit)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert says in str(err.value)


# -- fuzzing: every mutated file loads or is rejected with the package's own errors ------

CHECKPOINT_FUZZ_VALUES = (
    None, True, -1, 0, 1, 2, 3, 1.5, 2**70, float("nan"), "x", "", [], {}, [{}], [2, 2, 2, 4], "theta", "phi",
)


def _resigned(body: bytes) -> bytes:
    return body + struct.pack("<Q", crc64(body))


@st.composite
def mutated_checkpoints(draw, blob: bytes) -> bytes:
    """A checkpoint blob with its header JSON, bytes or lengths mutated, usually re-signed."""
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    payload = blob[16 + header_len : -8]
    kind = draw(st.sampled_from(("header", "bytes", "lengths")))
    if kind == "header":
        edited = mutated(header, draw(mutation_lists(header, CHECKPOINT_FUZZ_VALUES)))
        header_bytes = json.dumps(edited, sort_keys=True, separators=(",", ":")).encode()
        body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    elif kind == "bytes":
        body = bytearray(blob[:-8])
        for position in draw(st.lists(st.integers(0, len(body) - 1), min_size=1, max_size=4)):
            body[position] = draw(st.integers(0, 255))
        body = bytes(body)
    else:
        cut = draw(st.integers(0, len(blob)))
        extra = draw(st.binary(max_size=16))
        header_len = draw(st.sampled_from((header_len, header_len - 1, header_len + 4, 0, 2**63)))
        body = blob[:8] + struct.pack("<Q", header_len) + blob[16:cut] + extra
    return _resigned(body) if draw(st.booleans()) or kind == "header" else body + blob[-8:]


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    return path, save_checkpoint(create_model(TINY, seed=5), path).read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(fuzz_checkpoint, draw):
    path, blob = fuzz_checkpoint
    path.write_bytes(draw.draw(mutated_checkpoints(blob)))
    try:
        loaded = load_checkpoint(path)
    except (CheckpointError, ConfigError):
        return
    assert isinstance(loaded, Model)
    assert [t.shape for g in loaded.groups() for _, t in g.entries] == [
        t.shape for g in create_model(loaded.config).groups() for _, t in g.entries
    ]


def test_payload_not_whole_floats_rejected(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    blob = path.read_bytes()
    path.write_bytes(_resigned(blob[:-8] + b"\x00"))
    with pytest.raises(CheckpointError, match="not a whole number of floats"):
        load_checkpoint(path)


@pytest.mark.parametrize("width", [1.5, True])
def test_non_integer_conv_width_rejected(model, tmp_path, width):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    rewrite_header(path, lambda h: h["backbone"].update(conv_channels=[2, 2, width, 4]))
    with pytest.raises(CheckpointError, match="header field 'backbone' is invalid"):
        load_checkpoint(path)


def test_unbuildable_architecture_rejected(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    rewrite_header(path, lambda h: h["backbone"].update(d_bands=2**62))  # a valid count, 2**124 g2g floats
    with pytest.raises(CheckpointError, match="architecture that cannot be built"):
        load_checkpoint(path)


def test_forged_architecture_rejected_before_it_is_built(model, tmp_path):
    # a small re-signed file whose header names an architecture of millions of floats
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    big = {"conv_channels": [2, 2, 2, 1500], "embedding_dim": 1500, "adapter_hidden": 3000}
    rewrite_header(path, lambda h: h["backbone"].update(big))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="cannot be built from the payload") as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(err.value)
    assert peak < 4 * 2**20


# -- payload values (each edited file is re-signed, so only the value check can catch it) --


def set_payload_float(path, offset, value) -> None:
    """Overwrite float32 number ``offset`` of the checkpoint's payload and re-sign the file."""
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    struct.pack_into("<f", blob, 16 + header_len + 4 * offset, value)
    path.write_bytes(_resigned(bytes(blob[:-8])))


def header_of(path) -> dict:
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + header_len])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_parameter_rejected_naming_group_and_param(model, tmp_path, value):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    entry = next(e for e in header_of(path)["params"] if e["name"] == "conv1_w")
    set_payload_float(path, entry["offset"] + 5, value)
    with pytest.raises(CheckpointError, match="theta/conv1_w holds a non-finite") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("stat", ["mean", "var"])
def test_non_finite_running_stat_rejected_naming_layer(model, tmp_path, stat):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    set_payload_float(path, header_of(path)["bn"][1][f"{stat}_offset"], float("nan"))
    with pytest.raises(CheckpointError, match=f"bn1 running_{stat} holds a non-finite") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_negative_running_var_rejected_naming_layer(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    set_payload_float(path, header_of(path)["bn"][2]["var_offset"] + 1, -0.5)
    with pytest.raises(CheckpointError, match="bn2 running_var holds a negative value") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_zero_running_var_loads(model, tmp_path):
    path = save_checkpoint(model, tmp_path / "m.ckpt")
    set_payload_float(path, header_of(path)["bn"][0]["var_offset"], 0.0)
    assert load_checkpoint(path).bn_states[0].running_var[0] == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_value_beyond_float32_range_is_not_saved(model, tmp_path):
    model.phi.get("fc1_b").data[3] = 1e39  # float32 holds up to ~3.4e38; it would save as inf
    path = tmp_path / "m.ckpt"
    with pytest.raises(CheckpointError, match="phi/fc1_b holds a non-finite float32 value") as err:
        save_checkpoint(model, path)
    assert str(path) in str(err.value)
    assert list(tmp_path.iterdir()) == []
