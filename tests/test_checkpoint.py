import hashlib
import json
import os

import numpy as np
import pytest

from mmfusion.checkpoint import CheckpointError, load_checkpoint, load_into, save_checkpoint
from mmfusion.fusion import TOPOLOGIES
from mmfusion.model import MODALITIES, FusionSettings, MultimodalClassifier, RunConfig
from mmfusion.tensor import Module, Tensor


class TinyModule(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.w = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        self.b = Tensor(rng.standard_normal(4).astype(np.float64), requires_grad=True)


def test_round_trip_is_bit_exact(tmp_path):
    m = TinyModule()
    save_checkpoint(list(m.named_parameters()), tmp_path)
    loaded = load_checkpoint(tmp_path)
    assert set(loaded) == {"w", "b"}
    assert loaded["w"].tobytes() == m.w.data.tobytes()
    assert loaded["b"].tobytes() == m.b.data.tobytes()
    assert loaded["w"].dtype == np.float32
    assert loaded["b"].dtype == np.float64


def test_save_load_save_produces_identical_files(tmp_path):
    m = TinyModule()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_checkpoint(list(m.named_parameters()), d1)
    m2 = load_into(TinyModule(seed=9), d1)
    save_checkpoint(list(m2.named_parameters()), d2)
    assert (d1 / "weights.bin").read_bytes() == (d2 / "weights.bin").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_truncated_binary_names_offset(tmp_path):
    m = TinyModule()
    save_checkpoint(list(m.named_parameters()), tmp_path)
    blob = (tmp_path / "weights.bin").read_bytes()
    (tmp_path / "weights.bin").write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path)


def test_bytes_after_the_last_entry_are_rejected(tmp_path):
    save_checkpoint(list(TinyModule().named_parameters()), tmp_path)
    with open(tmp_path / "weights.bin", "ab") as fh:
        fh.write(bytes(22))
    with pytest.raises(CheckpointError, match="has 22 bytes after its last entry"):
        load_checkpoint(tmp_path)


def test_tampered_offset_is_detected(tmp_path):
    m = TinyModule()
    save_checkpoint(list(m.named_parameters()), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["w"]["length"] -= 4
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(tmp_path)


def test_flipped_byte_fails_the_checksum(tmp_path):
    m = TinyModule()
    save_checkpoint(list(m.named_parameters()), tmp_path)
    blob = bytearray((tmp_path / "weights.bin").read_bytes())
    blob[-1] ^= 0x80        # the sign bit of the last float64
    (tmp_path / "weights.bin").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="'b' fail their crc32"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("crc", [None, -1, "0", 1.0])
def test_entry_without_an_integer_crc32_is_rejected(tmp_path, crc):
    m = TinyModule()
    save_checkpoint(list(m.named_parameters()), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if crc is None:     # a manifest written before checksums
        del manifest["w"]["crc32"]
    else:
        manifest["w"]["crc32"] = crc
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="crc32"):
        load_checkpoint(tmp_path)


def test_load_into_rejects_shape_mismatch(tmp_path):
    m = TinyModule()
    save_checkpoint(list(m.named_parameters()), tmp_path)

    class Other(Module):
        def __init__(self):
            super().__init__()
            self.w = Tensor(np.zeros((2, 2)), requires_grad=True)
            self.b = Tensor(np.zeros(4), requires_grad=True)

    with pytest.raises(CheckpointError, match="shape"):
        load_into(Other(), tmp_path)


def test_missing_checkpoint_dir_raises_io_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(os.path.join(tmp_path, "nope"))


@pytest.mark.parametrize("manifest", [
    "{not json",
    "[]",
    json.dumps({"w": {"offset": 0, "length": 48, "shape": [3, 4]}}),
    json.dumps({"w": {"offset": "0", "length": 48, "shape": [3, 4], "dtype": "float32"}}),
    json.dumps({"w": {"offset": 0, "length": 48, "shape": 12, "dtype": "float32"}}),
    json.dumps({"w": {"offset": 0, "length": 48, "shape": [3, 4], "dtype": "int8"}}),
    json.dumps({"w": 7}),
], ids=["invalid_json", "not_an_object", "no_dtype", "string_offset", "int_shape",
        "unknown_dtype", "entry_not_an_object"])
def test_malformed_manifest_raises_checkpoint_error(tmp_path, manifest):
    save_checkpoint(list(TinyModule().named_parameters()), tmp_path)
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path)


def test_load_into_rejects_dtype_mismatch(tmp_path):
    m = TinyModule()
    m.b.data = m.b.data.astype(np.float32)
    save_checkpoint(list(m.named_parameters()), tmp_path)
    target = TinyModule(seed=9)
    with pytest.raises(CheckpointError, match="dtype"):
        load_into(target, tmp_path)
    assert target.b.data.dtype == np.float64


def test_load_into_rejects_unexpected_keys(tmp_path):
    save_checkpoint(list(TinyModule().named_parameters()), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["vote.vote_logits"] = dict(manifest["b"])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    target = TinyModule(seed=9)
    before = target.w.data.copy()
    with pytest.raises(CheckpointError, match="'vote.vote_logits'"):
        load_into(target, tmp_path)
    assert np.array_equal(target.w.data, before)


# SHA-256 of "name shape" lines over named_parameters() of the model built
# with RunConfig()'s encoders (shared text layers, unshared image layers).
# A change here renames or reorders checkpoint entries, so saved checkpoints
# no longer load.
LAYOUT_DIGESTS = {
    "multimodal": {
        "hybrid": "98b9eadd2cac6420c944ad2ced2a63ff3bf39f878079bbc435f356fbd2c9442e",
        "merged": "55c0fe2f5421dd8b5e4f5fd244bb97b7c43c2e67c59548d86acff1f366ea8cb9",
        "interaction": "54cbeb5e44c876c58579e5ef903a77d386d26698d3968a92dd147715bc9903d4",
    },
    "image": dict.fromkeys(
        TOPOLOGIES, "2bf2b8a83827c6d77910221b25e45f607fa8cc20630652a9ae12004ae22e571a"),
    "text": dict.fromkeys(
        TOPOLOGIES, "bba81ff7e6f2f5dfe44ba2b6bed0e27360f6147cec5b7a2441afcbfff05bcaf6"),
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("modality", MODALITIES)
def test_model_parameter_layout_is_pinned(modality, topology):
    cfg = RunConfig(modality=modality, fusion=FusionSettings(topology=topology))
    model = MultimodalClassifier(cfg, vocab_size=cfg.data.vocab_size)
    layout = "\n".join(f"{name} {p.shape}" for name, p in model.named_parameters())
    assert hashlib.sha256(layout.encode()).hexdigest() == LAYOUT_DIGESTS[modality][topology]
