"""Synthetic data, persistence round-trips, Netpbm parsing."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import distill_ssl
import distill_ssl.contrastive as C
import distill_ssl.data as D
from distill_ssl.cli import run
from distill_ssl.rng import Rng
from distill_ssl.tensor import ParamSet, softmax_and_log


def small_spec(**overrides):
    base = dict(
        num_phases=3,
        frames_per_phase=20,
        image_size=(16, 16),
        texture_freq_range=((2.0, 3.0), (4.0, 5.0), (6.0, 7.0)),
        base_intensity=(0.3, 0.5, 0.7),
        noise_sigma=0.02,
        domain_tag="target",
    )
    base.update(overrides)
    return D.SyntheticSpec(**base)


class TestSyntheticDataset:
    def test_same_spec_and_seed_bitwise(self):
        a = D.generate_synthetic_dataset(small_spec(), 5)
        b = D.generate_synthetic_dataset(small_spec(), 5)
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.labels, b.labels)

    def test_cardinality_and_balance(self):
        ds = D.generate_synthetic_dataset(small_spec(), 1)
        assert len(ds) == 60
        assert ds.frames.shape == (60, 1, 16, 16) and ds.labels.dtype == np.int64
        assert all((ds.labels == c).sum() == 20 for c in range(3))

    def test_pixels_in_unit_interval(self):
        frames = D.generate_synthetic_dataset(small_spec(), 2).frames
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_multichannel_frames(self):
        frames = D.generate_synthetic_dataset(small_spec(channels=3), 2).frames
        assert frames.shape[1] == 3
        assert np.array_equal(frames[:, 0], frames[:, 1])  # texture shared per frame

    def test_raw_pixel_probe_beats_chance(self):
        # Linear separability sanity: multinomial logistic regression on
        # flattened pixels of a 4-phase set must beat the 25% chance rate.
        ds = D.generate_synthetic_dataset(D.target_spec(4, 50), 3)
        labels = ds.labels
        x = ds.frames.reshape(len(ds), -1)
        x = x - x.mean(axis=0)
        k = 4
        w = np.zeros((x.shape[1], k))
        onehot = np.eye(k)[labels]
        for _ in range(200):
            p = softmax_and_log(x @ w)[0]
            w -= 0.5 * (x.T @ (p - onehot) / len(x))
        acc = float((np.argmax(x @ w, axis=1) == labels).mean())
        assert acc > 0.25

    def test_domain_gap_probe(self):
        # Generic and target domains must be nearly separable on raw pixels.
        tgt = D.generate_synthetic_dataset(D.target_spec(4, 50), 3)
        gen = D.generate_synthetic_dataset(D.generic_spec(8, 25), 4)
        xs = np.concatenate([tgt.frames, gen.frames]).reshape(400, -1)
        ys = np.array([0] * 200 + [1] * 200)
        xs = xs - xs.mean(axis=0)
        w = np.zeros(xs.shape[1])
        for _ in range(200):
            p = 1.0 / (1.0 + np.exp(-(xs @ w)))
            w -= 0.5 * (xs.T @ (p - ys) / len(xs))
        acc = float(((xs @ w > 0).astype(int) == ys).mean())
        assert acc > 0.9

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            small_spec(texture_freq_range=((2.0, 4.5), (4.0, 5.0), (6.0, 7.0)))

    def test_intensity_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            small_spec(base_intensity=(0.1, 0.5, 0.7))


class TestCheckpointRoundTrip:
    def make_sets(self):
        rng = np.random.default_rng(0)
        return {
            "query.backbone": ParamSet({"conv.k": rng.normal(size=(2, 1, 3, 3)), "fc.w": rng.normal(size=(4, 5))}),
            "query.head": ParamSet({"fc.w": rng.normal(size=(5, 3)), "fc.b": rng.normal(size=(3,))}),
        }

    def test_round_trip_bitwise(self, tmp_path):
        named = self.make_sets()
        D.save_checkpoint(named, tmp_path / "ckpt", config={"note": 1})
        loaded, config = D.load_checkpoint(tmp_path / "ckpt")
        assert config == {"note": 1}
        for set_name, ps in named.items():
            for pname, t in ps.items():
                assert np.array_equal(loaded[set_name][pname].data, t.data)

    def test_truncated_blob_rejected_atomically(self, tmp_path):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        blob = (tmp_path / "ckpt.bin").read_bytes()
        (tmp_path / "ckpt.bin").write_bytes(blob[:-8])
        with pytest.raises(D.TruncatedBlobError):
            D.load_checkpoint(tmp_path / "ckpt")

    def test_corrupt_manifest_rejected(self, tmp_path):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        (tmp_path / "ckpt.json").write_text("{not json")
        with pytest.raises(D.CorruptManifestError):
            D.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "edit",
        (
            lambda m: m.update(tensors={"query.head/fc.w": m["tensors"][0]}),
            lambda m: m.update(tensors=None),
            lambda m: m["tensors"].__setitem__(0, ["query.head/fc.w", [5, 3], 0, 120]),
            lambda m: m["tensors"][0].pop("shape"),
            lambda m: m["tensors"][0].pop("name"),
            lambda m: m["tensors"][0].update(name=7),
            lambda m: m["tensors"][0].update(shape="5x3"),
            lambda m: m["tensors"][0].update(shape=[5, -3]),
            lambda m: m["tensors"][0].update(shape=[5.0, 3]),
            lambda m: m["tensors"][0].update(shape=[True, 3]),
            lambda m: m["tensors"][0].update(offset="0"),
            lambda m: m["tensors"][0].pop("length"),
            lambda m: m["tensors"][0].update(length=120.0),
        ),
        ids=["tensors_object", "tensors_null", "entry_list", "no_shape", "no_name", "int_name",
             "str_shape", "negative_dim", "float_dim", "bool_dim", "str_offset", "no_length",
             "float_length"],
    )
    def test_malformed_tensor_table_rejected_naming_the_manifest(self, tmp_path, edit):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        edit(manifest)
        (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
        with pytest.raises(D.CorruptManifestError, match="ckpt.json"):
            D.load_checkpoint(tmp_path / "ckpt")

    def test_missing_files(self, tmp_path):
        with pytest.raises(D.CorruptManifestError):
            D.load_checkpoint(tmp_path / "absent")
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        (tmp_path / "ckpt.bin").unlink()
        with pytest.raises(D.TruncatedBlobError):
            D.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("size, at, value", [(2, 1, np.nan), (3, 0, np.inf),
                                                 (2 * D._FINITE_BLOCK + 5, -1, np.nan),
                                                 (2 * D._FINITE_BLOCK, -1, -np.inf)],
                             ids=["nan", "inf", "nan-in-a-short-last-block",
                                  "inf-in-a-full-last-block"])
    def test_non_finite_values_refused_on_save(self, tmp_path, size, at, value):
        w = np.ones(size)
        w[at] = value
        with pytest.raises(D.CheckpointError, match="non-finite"):
            D.save_checkpoint({"s": ParamSet({"w": w})}, tmp_path / "bad")
        assert not (tmp_path / "bad.bin").exists()

    def test_bytes_pinned_apart_from_the_digest(self, tmp_path):
        # sha256 of both files as written at format version 2: the blob is the
        # one every earlier version wrote, and the manifest is pinned with its
        # blake2b entry taken out again
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt", config={"note": 1})
        blob = (tmp_path / "ckpt.bin").read_bytes()
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        assert manifest["version"] == 2 and "sha256" not in manifest
        assert manifest.pop("blake2b") == hashlib.blake2b(blob, digest_size=32).hexdigest()
        bare_manifest = json.dumps(manifest, indent=1, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "cb7f71010249a67b70cdea5b04f6666575cf56237b79ff0e0ea1b7d9a770a167"
        )
        assert hashlib.sha256(bare_manifest).hexdigest() == (
            "3cfb46addc16028536bf38e5c50bae26efee1db8bdcf788f48462469c9b08926"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]

    def test_blob_not_matching_its_digest_rejected(self, tmp_path):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        blob = bytearray((tmp_path / "ckpt.bin").read_bytes())
        blob[3] ^= 1  # same length, still finite: only the digest can tell
        (tmp_path / "ckpt.bin").write_bytes(bytes(blob))
        with pytest.raises(D.CorruptManifestError, match="does not match the blake2b"):
            D.load_checkpoint(tmp_path / "ckpt")

    def test_version_2_manifest_without_its_digest_rejected(self, tmp_path):
        # a sha256 entry in place of the blake2b one does not stand in for it
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        del manifest["blake2b"]
        manifest["sha256"] = hashlib.sha256((tmp_path / "ckpt.bin").read_bytes()).hexdigest()
        (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
        with pytest.raises(D.CorruptManifestError, match=r"ckpt.json .* blake2b .* re-run the stage"):
            D.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("version", [1, 3, 0, True, 2.0, "2", None])
    def test_unknown_version_rejected(self, tmp_path, version):
        # version 1 as it was written: a valid sha256 entry and no blake2b one
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        D.save_dataset(D.generate_synthetic_dataset(small_spec(), 9), tmp_path / "d")
        for name, load in (("ckpt", D.load_checkpoint), ("d", D.load_dataset)):
            manifest = json.loads((tmp_path / f"{name}.json").read_text())
            manifest["version"] = version
            if version == 1:
                del manifest["blake2b"]
                blob = (tmp_path / f"{name}.bin").read_bytes()
                manifest["sha256"] = hashlib.sha256(blob).hexdigest()
            (tmp_path / f"{name}.json").write_text(json.dumps(manifest))
            with pytest.raises(D.CorruptManifestError,
                               match=rf"{name}.json is not at version 2 .* re-run the stage"):
                load(tmp_path / name)

    @pytest.mark.parametrize("existing", [True, False], ids=["rewrite", "first_write"])
    def test_write_interrupted_between_the_files_never_loads(self, tmp_path, monkeypatch, existing):
        old = self.make_sets()
        new = {name: ParamSet({k: t.data + 1.0 for k, t in ps.items()}) for name, ps in old.items()}
        if existing:
            D.save_checkpoint(old, tmp_path / "ckpt")
        replaced = []
        real_replace = D.os.replace

        def replace_once(src, dst):
            if replaced:
                raise OSError("interrupted before the manifest was renamed")
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(D.os, "replace", replace_once)
        with pytest.raises(OSError, match="interrupted"):
            D.save_checkpoint(new, tmp_path / "ckpt")
        monkeypatch.undo()
        assert [Path(p).name for p in replaced] == ["ckpt.bin"]
        assert (tmp_path / "ckpt.bin").read_bytes() == b"".join(
            np.ascontiguousarray(t.data, "<f8").tobytes() for ps in new.values() for _, t in ps.items()
        )
        with pytest.raises(D.CorruptManifestError):
            D.load_checkpoint(tmp_path / "ckpt")


# Saves and loads a dataset and a checkpoint, then names any OpenSSL module
# that the process has mapped.
_OPENSSL_GUARD = """
import sys
from pathlib import Path
import numpy as np
import distill_ssl.cli
from distill_ssl import data
from distill_ssl.tensor import ParamSet

out = Path(sys.argv[1])
data.save_dataset(data.generate_synthetic_dataset(data.target_spec(2, 4, (8, 8)), 0), out / "d")
data.load_dataset(out / "d")
data.save_checkpoint({"query.head": ParamSet({"w": np.ones((2, 3))})}, out / "c")
data.load_checkpoint(out / "c")
print(sorted(m for m in ("_hashlib", "_ssl", "hashlib") if m in sys.modules))
"""


def test_no_openssl_in_a_process_that_saves_and_loads(tmp_path):
    # a module-level ``import hashlib`` anywhere in the package maps libcrypto
    # (about 3.6 MiB of RSS) into every stage process
    src = os.path.dirname(os.path.dirname(distill_ssl.__file__))
    done = subprocess.run([sys.executable, "-c", _OPENSSL_GUARD, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


class TestEncoderEntry:
    """``load_encoders`` builds each encoder from the manifest's
    ``config.encoder``; an entry that is missing or invalid, or that
    disagrees with the tensors, refuses the load and names the file."""

    @staticmethod
    def save(path, config, drop=()):
        """A default encoder's four sets, less the sets or tensors in ``drop``."""
        enc = C.init_encoder(C.EncoderConfig(), Rng(0))
        named = {f"{side}.{part}": ParamSet({name: t.data for name, t in getattr(enc, part).items()
                                             if f"{side}.{part}/{name}" not in drop})
                 for side in ("query", "key") for part in ("backbone", "head")
                 if f"{side}.{part}" not in drop}
        D.save_checkpoint(named, path, config)

    def test_a_saved_model_brings_its_architecture(self, tmp_path):
        wide = C.EncoderConfig(conv_channels=(16, 32), d_backbone=128, d=64, stride=1, pad=0)
        enc = C.init_encoder(wide, Rng(1))
        C.save_model(C.MoCoState(enc, enc.clone(), C.KeyQueue(32, wide.d), C.TrainConfig()),
                     tmp_path / "wide", {"seed": 3})
        config = json.loads((tmp_path / "wide.json").read_text())["config"]
        assert config == {"encoder": json.loads(json.dumps(wide.to_dict())), "seed": 3}
        query, key = C.load_encoders(tmp_path / "wide")
        assert query.cfg == key.cfg == wide and C.EncoderConfig.from_dict(config["encoder"]) == wide

    @pytest.mark.parametrize("edit, named", [
        (lambda e: None, "bad config.encoder: expected the fields of EncoderConfig, got None"),
        (lambda e: {**e, "depth": 3}, "expected the fields of EncoderConfig"),
        (lambda e: {k: v for k, v in e.items() if k != "pad"}, "expected the fields"),
        (lambda e: [e], "expected the fields of EncoderConfig"),
        (lambda e: {**e, "kernel_size": "3"}, "whole number"),
        (lambda e: {**e, "stride": 2.0}, "whole number"),
        (lambda e: {**e, "d": True}, "whole number"),
        (lambda e: {**e, "input_size": [32, None]}, "whole number"),
        (lambda e: {**e, "conv_channels": [8, 16, 32]},
         "conv_channels must be whole numbers like (8, 16), got (8, 16, 32)"),
        (lambda e: {**e, "kernel_size": [3]}, "kernel_size must be whole numbers like 3, got (3,)"),
        (lambda e: {**e, "d_backbone": 0}, "d_backbone must be >= 1"),
        (lambda e: {**e, "pad": -1}, "pad must be >= 0"),
        # an encoder that does not fit its own input size
        (lambda e: {**e, "kernel_size": 40}, "larger than conv1's padded input 34x34"),
        (lambda e: {**e, "input_size": [4, 4], "kernel_size": 5}, "conv2's padded input"),
    ], ids=["missing", "unknown-key", "missing-key", "not-an-object", "string", "float", "bool",
            "null-in-a-pair", "three-layers", "list-for-a-size", "zero-width", "negative-pad",
            "kernel-over-input", "kernel-over-conv2"])
    def test_a_bad_entry_is_refused_naming_the_file(self, edit, named, tmp_path):
        entry = edit(C.EncoderConfig().to_dict())
        self.save(tmp_path / "ckpt", None if entry is None else {"encoder": entry})
        with pytest.raises(D.CorruptManifestError, match=re.escape(named)) as refused:
            C.load_encoders(tmp_path / "ckpt")
        assert str(tmp_path / "ckpt") in str(refused.value)

    @pytest.mark.parametrize("entry, named", [
        (C.EncoderConfig(d=16), "query.head/fc2.weight is (64, 32), config.encoder says (64, 16)"),
        (C.EncoderConfig(kernel_size=5), "query.backbone/conv1.kernels is (8, 1, 3, 3)"),
        (C.EncoderConfig(in_channels=3), "query.backbone/conv1.kernels is (8, 1, 3, 3)"),
    ])
    def test_an_entry_that_disagrees_with_the_tensors_is_refused(self, entry, named, tmp_path):
        self.save(tmp_path / "ckpt", {"encoder": entry.to_dict()})
        with pytest.raises(D.TensorShapeError, match=re.escape(named)) as refused:
            C.load_encoders(tmp_path / "ckpt")
        assert str(tmp_path / "ckpt") in str(refused.value)

    @pytest.mark.parametrize("drop, named", [
        ("key.backbone", "key.backbone/conv1.kernels is missing"),
        ("key.head/fc2.bias", "key.head/fc2.bias is missing"),
    ])
    def test_a_missing_tensor_is_refused(self, drop, named, tmp_path):
        self.save(tmp_path / "ckpt", {"encoder": C.EncoderConfig().to_dict()}, {drop})
        assert len(C.load_encoders(tmp_path / "ckpt", ("query",))) == 1  # the intact side loads
        with pytest.raises(D.TensorShapeError, match=re.escape(named)):
            C.load_encoders(tmp_path / "ckpt")


class TestDatasetPersistence:
    def test_round_trip(self, tmp_path):
        ds = D.generate_synthetic_dataset(small_spec(), 9)
        D.save_dataset(ds, tmp_path / "data", config={"seed": 9})
        loaded, config = D.load_dataset(tmp_path / "data")
        with loaded:
            assert config["seed"] == 9
            assert len(loaded) == len(ds)
            assert np.array_equal(loaded.frames, ds.frames)
            assert np.array_equal(loaded.labels, ds.labels) and loaded.labels.dtype == np.int64

    def test_misaligned_labels_rejected(self, tmp_path):
        ds = D.generate_synthetic_dataset(small_spec(), 9)
        D._write_pair({"frames": ds.frames, "labels": np.zeros(len(ds) - 1)}, tmp_path / "d", None)
        with pytest.raises(D.CorruptManifestError, match="do not align"):
            D.load_dataset(tmp_path / "d")

    def test_blob_longer_than_its_manifest_rejected(self, tmp_path):
        D.save_dataset(D.generate_synthetic_dataset(small_spec(), 9), tmp_path / "d")
        size = (tmp_path / "d.bin").stat().st_size
        with open(tmp_path / "d.bin", "ab") as fh:
            fh.write(bytes(8))
        with pytest.raises(D.TruncatedBlobError, match=f"holds {size + 8} bytes, manifest says {size}$"):
            D.load_dataset(tmp_path / "d")

    @staticmethod
    def frames_1200(tmp_path):
        """1200 default frames, saved at ``tmp_path / "d"`` once a small save
        has run (numpy's lazy imports are not the save's)."""
        D.save_dataset(D.generate_synthetic_dataset(small_spec(), 1), tmp_path / "small")
        return D.generate_synthetic_dataset(D.target_spec(), 1).frames

    def test_load_holds_no_copy_of_the_frames(self, tmp_path):
        # the digest streams the blob through one 256 KiB block; the rows stay on disk
        frames = self.frames_1200(tmp_path)
        D.save_dataset(D.Dataset(frames, np.arange(1200) % 4), tmp_path / "d")
        with D.load_dataset(tmp_path / "small")[0]:
            pass
        tracemalloc.start()
        try:
            loaded = D.load_dataset(tmp_path / "d")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with loaded:
            assert peak < 0.05 * frames.nbytes, peak / frames.nbytes
            assert loaded.frames.tobytes() == frames.tobytes()

    def test_save_holds_no_copy_of_the_frames(self, tmp_path):
        # the finiteness check runs block by block: no mask the size of the blob
        frames = self.frames_1200(tmp_path)
        dataset = D.Dataset(frames, np.arange(1200) % 4)
        tracemalloc.start()
        try:
            D.save_dataset(dataset, tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * frames.nbytes, peak / frames.nbytes
        with D.load_dataset(tmp_path / "d")[0] as loaded:
            assert loaded.frames.tobytes() == frames.tobytes()

    def test_a_generated_dataset_is_saved_a_chunk_at_a_time(self, tmp_path):
        # the generator makes 64 rows per pass: a chunk's temporaries, 0.39x the frames
        # at 1200 frames, where making them all at once would hold 1x
        frames = self.frames_1200(tmp_path)
        tracemalloc.start()
        try:
            D.save_dataset(D.generate_synthetic_dataset(D.target_spec(), 1), tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * frames.nbytes, peak / frames.nbytes
        with D.load_dataset(tmp_path / "d")[0] as loaded:
            assert loaded.frames.tobytes() == frames.tobytes()

    @pytest.mark.parametrize("label", [2.6, -1.0, 0.5, 2.0**63, 1e300])
    def test_labels_that_are_not_whole_numbers_from_0_refused(self, tmp_path, label):
        ds = D.generate_synthetic_dataset(small_spec(), 9)
        labels = ds.labels.astype(np.float64)
        labels[[7, 11]] = label  # the first bad row is named
        D._write_pair({"frames": ds.frames, "labels": labels}, tmp_path / "d", None)
        message = f"dataset {tmp_path / 'd'}: label {label!r} in row 7 is not a whole number"
        with pytest.raises(D.CorruptManifestError, match=f"^{re.escape(message)} in "):
            D.load_dataset(tmp_path / "d")

    def test_a_probe_refuses_a_bad_label_before_its_fits(self, tmp_path, capsys):
        # a -1 would be fitted as the last one-hot row, and the probe fail only after its fits
        ds = D.generate_synthetic_dataset(small_spec(), 9)
        labels = ds.labels.astype(np.float64)
        labels[3] = -1.0
        D._write_pair({"frames": ds.frames, "labels": labels}, tmp_path / "d", None)
        assert run(["linear-probe", "--data", str(tmp_path / "d"), "--ckpt", str(tmp_path / "no"),
                    "--out", str(tmp_path / "out")]) == 1
        assert "CorruptManifestError: dataset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_loaded_frames_are_writeable_contiguous_float64(self, tmp_path):
        ds = D.generate_synthetic_dataset(small_spec(), 9)
        D.save_dataset(ds, tmp_path / "d")
        with D.load_dataset(tmp_path / "d")[0] as loaded:
            frames = loaded.rows(np.array([5, 2]))
        assert frames.dtype == np.float64 and frames.flags.c_contiguous and frames.flags.writeable
        assert np.array_equal(frames, ds.frames[[5, 2]])
        frames[0] = 0.0  # an array of the reader's own, not of the file

    def test_dataset_shape_contract(self):
        with pytest.raises(ValueError, match="do not align"):
            D.Dataset(np.zeros((3, 1, 2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="do not align"):
            D.Dataset(np.zeros((3, 2, 2)), np.zeros(3))
        part = D.Dataset(np.arange(12.0).reshape(3, 1, 2, 2), [2, 0, 1]).subset([2, 0])
        assert len(part) == 2 and part.labels.tolist() == [1, 2] and part.shape == (2, 1, 2, 2)
        assert np.array_equal(part.frames[0], np.arange(8.0, 12.0).reshape(1, 2, 2))


def flip_byte(path, at: int) -> None:
    """Flip one bit of the byte at ``at``, in place: the file keeps its inode and size."""
    with open(path, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)[0]
        fh.seek(at)
        fh.write(bytes([byte ^ 1]))


def saved(tmp_path, dataset) -> D.Dataset:
    D.save_dataset(dataset, tmp_path / "d")
    return D.load_dataset(tmp_path / "d")[0]


class TestRowsFromTheBlob:
    """A loaded dataset reads each row from its blob when asked: the bytes an
    in-memory dataset holds, and only while the file is the one whose digest
    matched."""

    INDICES = [slice(None), slice(3, 9), slice(10, 2, -3), slice(7, 7), np.array([9, 0, 4, 5, 6]),
               np.array([4, 4, 1, 4, 2, 3]), np.array([11]), np.array([], dtype=np.int64)]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("index", INDICES, ids=lambda i: repr(i).replace(" ", ""))
    def test_rows_equal_the_rows_in_memory(self, tmp_path, channels, index):
        ds = D.generate_synthetic_dataset(small_spec(channels=channels, frames_per_phase=4), 2)
        frames = ds.frames
        with saved(tmp_path, D.Dataset(frames, ds.labels)) as loaded:
            for source in (loaded, ds, D.Dataset(frames, ds.labels)):
                got = source.rows(index)
                assert got.shape == frames[index].shape and got.tobytes() == frames[index].tobytes()
            order = np.array([8, 2, 2, 11, 5, 0, 1, 3, 4, 6, 7, 9])
            with loaded.subset(order) as part:
                assert part.rows(index).tobytes() == frames[order[index]].tobytes()

    def test_rows_read_in_a_forked_child_are_the_same(self, tmp_path):
        ds = D.generate_synthetic_dataset(small_spec(), 4)
        index = np.array([33, 5, 6, 7, 59, 0, 5])
        with saved(tmp_path, ds) as loaded:
            ready_r, ready_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child's whole life: read, send, exit
                code = 1
                try:
                    os.write(ready_w, loaded.rows(index).tobytes())
                    code = 0
                finally:
                    os._exit(code)
            os.close(ready_w)
            with open(ready_r, "rb") as fh:
                got = fh.read()
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert got == ds.rows(index).tobytes() == loaded.rows(index).tobytes()

    @pytest.mark.parametrize("at", [8, -8], ids=["a frame", "a label"])
    def test_a_byte_flipped_in_place_after_the_load_is_refused(self, tmp_path, at):
        with saved(tmp_path, D.generate_synthetic_dataset(small_spec(), 4)) as loaded:
            loaded.rows(slice(0, 2))
            flip_byte(tmp_path / "d.bin", at % (tmp_path / "d.bin").stat().st_size)
            for index in (slice(0, 2), np.array([40])):  # the flipped row, and another
                with pytest.raises(D.CorruptManifestError,
                                   match=f"^blob {re.escape(str(tmp_path / 'd.bin'))} changed"):
                    loaded.rows(index)

    def test_a_truncated_blob_is_refused(self, tmp_path):
        with saved(tmp_path, D.generate_synthetic_dataset(small_spec(), 4)) as loaded:
            size = (tmp_path / "d.bin").stat().st_size
            os.truncate(tmp_path / "d.bin", size - 16 * 16 * 8 * 30)  # the last 30 rows and more
            with pytest.raises(D.TruncatedBlobError, match="gave 0 of the 2048 bytes"):
                loaded.rows(np.array([59]))
            with pytest.raises(D.TruncatedBlobError, match=f"now holds {size - 61440} bytes"):
                loaded.rows(np.array([0]))

    def test_a_blob_replaced_by_a_save_is_refused(self, tmp_path):
        # a save renames a new file over the path, which stamps the unlinked one's
        # ctime: a dataset read across a save never mixes the rows of two saves
        with saved(tmp_path, D.generate_synthetic_dataset(small_spec(), 4)) as loaded:
            D.save_dataset(D.generate_synthetic_dataset(small_spec(), 5), tmp_path / "d")
            with pytest.raises(D.CorruptManifestError, match="changed after its digest"):
                loaded.rows(slice(None))

    def test_a_subset_keeps_its_handle_when_its_dataset_is_released(self, tmp_path):
        ds = D.generate_synthetic_dataset(small_spec(), 4)
        with saved(tmp_path, ds) as loaded:
            part = loaded.subset(np.array([7, 3]))
        with part:
            assert part.frames.tobytes() == ds.frames[[7, 3]].tobytes()
        with pytest.raises(RuntimeError, match="frames were taken over by a stage"):
            part.rows(slice(None))


# sha256 of the default gen-data outputs (seed 7: target at seed 7, generic at 8),
# as the datasets were written when every frame was made and held at once
GEN_DATA_DIGESTS = {
    "target.bin": "d5732295f58c15ca93c8fe8d556173094801e22ce1d43a280fcbd2cabd639b6d",
    "target.json": "56b78d9ea65dc7358cb058dd4998de7c4f4b3fd00b634c43e1e76ba7d534e30e",
    "generic.bin": "b7ad48a0c13361fb81feae75dc448d9b3e26314e1d7d8674728e5b6767a89eeb",
    "generic.json": "07d7298826e662678544d9551b417620b5f3c80df1129f1addbd13292d6f6c18",
}


def test_default_gen_data_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("DISTILL_SSL_SEED", raising=False)
    assert run(["gen-data", "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GEN_DATA_DIGESTS}
    assert got == GEN_DATA_DIGESTS


def write_pgm(path, width, height, pixels, magic=b"P5", maxval=255):
    header = magic + b"\n" + f"{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(pixels))


class TestNetpbm:
    def test_p5_byte_scaling(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", 2, 2, [0, 255, 128, 64])
        frames, labels = D.load_image_directory(tmp_path, (2, 2))
        assert labels is None
        expected = np.array([[[0.0, 1.0], [128 / 255, 64 / 255]]])
        assert np.array_equal(frames[0], expected)

    def test_p6_color(self, tmp_path):
        write_pgm(tmp_path / "c.ppm", 1, 1, [255, 0, 128], magic=b"P6")
        frames, _ = D.load_image_directory(tmp_path, (1, 1))
        assert frames[0].shape == (3, 1, 1)
        assert np.array_equal(frames[0][:, 0, 0], [1.0, 0.0, 128 / 255])

    def test_unsupported_magic(self, tmp_path):
        write_pgm(tmp_path / "bad.pgm", 2, 2, [0, 0, 0, 0], magic=b"P4")
        with pytest.raises(D.NetpbmError, match="unsupported format"):
            D.load_image_directory(tmp_path, (2, 2))

    def test_empty_directory_is_empty_list(self, tmp_path):
        frames, labels = D.load_image_directory(tmp_path, (2, 2))
        assert frames == [] and labels is None

    def test_short_pixel_data(self, tmp_path):
        write_pgm(tmp_path / "short.pgm", 4, 4, [0] * 10)
        with pytest.raises(D.NetpbmError, match="truncated"):
            D.load_image_directory(tmp_path, (4, 4))

    def test_malformed_header(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
        with pytest.raises(D.NetpbmError, match="malformed header"):
            D.load_image_directory(tmp_path, (2, 2))

    def test_unsupported_maxval(self, tmp_path):
        write_pgm(tmp_path / "deep.pgm", 1, 1, [0, 0], maxval=65535)
        with pytest.raises(D.NetpbmError, match="maxval"):
            D.load_image_directory(tmp_path, (1, 1))

    def test_header_comments_are_skipped(self, tmp_path):
        data = b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([10, 20, 30, 40])
        (tmp_path / "c.pgm").write_bytes(data)
        frames, _ = D.load_image_directory(tmp_path, (2, 2))
        assert np.allclose(frames[0] * 255, [[[10, 20], [30, 40]]])

    def test_labels_from_subdirectories(self, tmp_path):
        for cls, name in enumerate(["phase_a", "phase_b"]):
            sub = tmp_path / name
            sub.mkdir()
            for i in range(2):
                write_pgm(sub / f"f{i}.pgm", 2, 2, [cls * 10] * 4)
        frames, labels = D.load_image_directory(tmp_path, (2, 2))
        assert labels == [0, 0, 1, 1]
        assert len(frames) == 4

    def test_lexicographic_order(self, tmp_path):
        for name, value in (("b.pgm", 2), ("a.pgm", 1), ("c.pgm", 3)):
            write_pgm(tmp_path / name, 1, 1, [value])
        frames, _ = D.load_image_directory(tmp_path, (1, 1))
        assert [round(f[0, 0, 0] * 255) for f in frames] == [1, 2, 3]

    def test_resize_to_expected_size(self, tmp_path):
        write_pgm(tmp_path / "big.pgm", 4, 4, list(range(16)))
        frames, _ = D.load_image_directory(tmp_path, (2, 2))
        assert frames[0].shape == (1, 2, 2)


def readme_real_frames_recipe() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Real frames", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestRealFramesRecipe:
    def test_readme_recipe_round_trips_and_trains(self, tmp_path, monkeypatch):
        for cls, name in enumerate(["phase_a", "phase_b"]):
            sub = tmp_path / "frames" / name
            sub.mkdir(parents=True)
            for i in range(3):
                write_pgm(sub / f"f{i}.pgm", 4, 4, [cls * 100 + i * 16 + j for j in range(16)])
        monkeypatch.chdir(tmp_path)
        exec(readme_real_frames_recipe(), {})
        frames, _ = D.load_image_directory("frames", (32, 32))
        with D.load_dataset("runs/data/real")[0] as loaded:
            assert np.array_equal(loaded.frames, np.stack(frames))
            assert loaded.frames.shape == (6, 1, 32, 32)
            assert loaded.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert run([
            "pretrain-student", "--data", "runs/data/real", "--out", "runs/real",
            "--steps", "2", "--batch-size", "2", "--queue-size", "4",
        ]) == 0


def stream_over(frames, batch_size, seed):
    return D.BatchStream(D.Dataset(frames, np.zeros(len(frames))), batch_size, seed)


class TestBatchStream:
    def test_deterministic_and_epochal(self):
        frames = np.arange(40, dtype=np.float64).reshape(10, 1, 2, 2)
        a = stream_over(frames, 4, seed=3)
        b = stream_over(frames, 4, seed=3)
        for _ in range(6):
            ba, bb = a.next_batch(), b.next_batch()
            assert np.array_equal(ba.indices, bb.indices)
            assert ba.epoch == bb.epoch
        # 10 frames, batch 4: two batches per epoch, remainder dropped
        c = stream_over(frames, 4, seed=3)
        epochs = [c.next_batch().epoch for _ in range(6)]
        assert epochs == [0, 0, 1, 1, 2, 2]

    def test_epoch_orders_pinned(self):
        # regression anchor: the scalar draw path fixes every shuffle
        stream = stream_over(np.zeros((10, 1, 2, 2)), 5, seed=42)
        batches = [stream.next_batch() for _ in range(4)]
        assert [(b.epoch, b.indices.tolist()) for b in batches] == [
            (0, [4, 1, 3, 9, 0]),
            (0, [5, 2, 6, 8, 7]),
            (1, [8, 6, 9, 1, 0]),
            (1, [2, 7, 4, 5, 3]),
        ]

    def test_no_repeats_within_epoch(self):
        frames = np.zeros((12, 1, 1, 1))
        stream = stream_over(frames, 4, seed=1)
        seen = np.concatenate([stream.next_batch().indices for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(12))

    def test_indices_without_frames_follow_the_batches(self):
        frames = np.arange(40, dtype=np.float64).reshape(10, 1, 2, 2)
        a = stream_over(frames, 4, seed=3)
        b = stream_over(frames, 4, seed=3)
        for _ in range(6):
            batch, (indices, epoch) = a.next_batch(), b.next_indices()
            assert np.array_equal(batch.indices, indices) and batch.epoch == epoch
            assert np.array_equal(batch.frames, frames[indices])
