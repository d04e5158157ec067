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
import distill_ssl.data as D
from distill_ssl.cli import run
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

    def test_shape_validation_names_offending_tensor(self, tmp_path):
        named = {"query.head": ParamSet({"W": np.zeros((64, 32))})}
        D.save_checkpoint(named, tmp_path / "ckpt")
        with pytest.raises(D.TensorShapeError, match=r"query\.head/W"):
            D.load_checkpoint(tmp_path / "ckpt", expected_shapes={"query.head": {"W": (64, 16)}})

    def test_missing_tensor_reported(self, tmp_path):
        D.save_checkpoint({"query.head": ParamSet({"W": np.zeros((2, 2))})}, tmp_path / "ckpt")
        with pytest.raises(D.TensorShapeError, match="missing tensor"):
            D.load_checkpoint(tmp_path / "ckpt", expected_shapes={"query.head": {"V": (2, 2)}})

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

    def write_version_1(self, path, with_digest: bool):
        """The manifest that format version 1 wrote for the blob at ``path``."""
        manifest = json.loads(path.with_suffix(".json").read_text())
        del manifest["blake2b"]
        manifest["version"] = 1
        if with_digest:
            manifest["sha256"] = hashlib.sha256(path.with_suffix(".bin").read_bytes()).hexdigest()
        path.with_suffix(".json").write_text(json.dumps(manifest, indent=1, sort_keys=True))

    def test_version_1_manifest_with_sha256_still_loads_and_is_checked(self, tmp_path):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt", config={"note": 1})
        self.write_version_1(tmp_path / "ckpt", with_digest=True)
        # the manifest's bytes as format version 1 wrote them
        assert hashlib.sha256((tmp_path / "ckpt.json").read_bytes()).hexdigest() == (
            "11ab66800e98cd7d06b6ee7c8b6fb4e6a42977407a56822aac86ba0eadeb7598"
        )
        loaded, config = D.load_checkpoint(tmp_path / "ckpt")
        assert config == {"note": 1}
        assert np.array_equal(loaded["query.head"]["fc.b"].data, self.make_sets()["query.head"]["fc.b"].data)
        blob = bytearray((tmp_path / "ckpt.bin").read_bytes())
        blob[3] ^= 1
        (tmp_path / "ckpt.bin").write_bytes(bytes(blob))
        with pytest.raises(D.CorruptManifestError, match="does not match the sha256"):
            D.load_checkpoint(tmp_path / "ckpt")

    def test_blob_not_matching_its_digest_rejected(self, tmp_path):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        blob = bytearray((tmp_path / "ckpt.bin").read_bytes())
        blob[3] ^= 1  # same length, still finite: only the digest can tell
        (tmp_path / "ckpt.bin").write_bytes(bytes(blob))
        with pytest.raises(D.CorruptManifestError, match="does not match the blake2b"):
            D.load_checkpoint(tmp_path / "ckpt")

    def test_manifest_without_digest_still_loads(self, tmp_path):
        # a version-1 manifest written before the digest existed
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt", config={"note": 1})
        self.write_version_1(tmp_path / "ckpt", with_digest=False)
        assert hashlib.sha256((tmp_path / "ckpt.json").read_bytes()).hexdigest() == (
            "b228d780e475c8930d87ca06f1bd1bb17c52c2560b4b48e12724ce67692813cb"
        )
        loaded, _ = D.load_checkpoint(tmp_path / "ckpt")
        assert np.array_equal(loaded["query.head"]["fc.b"].data, self.make_sets()["query.head"]["fc.b"].data)

    def test_version_2_manifest_without_its_digest_rejected(self, tmp_path):
        # a reader of version 1 alone would take it for a manifest from before the digest
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        del manifest["blake2b"]
        manifest["sha256"] = hashlib.sha256((tmp_path / "ckpt.bin").read_bytes()).hexdigest()
        (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
        with pytest.raises(D.CorruptManifestError, match="ckpt.json lacks the blob's blake2b"):
            D.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("version", [3, 0, True, 2.0, "2", None])
    def test_unknown_version_rejected(self, tmp_path, version):
        D.save_checkpoint(self.make_sets(), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        manifest["version"] = version
        (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
        with pytest.raises(D.CorruptManifestError, match="expected 2 or 1"):
            D.load_checkpoint(tmp_path / "ckpt")

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


class TestDatasetPersistence:
    def test_round_trip(self, tmp_path):
        ds = D.generate_synthetic_dataset(small_spec(), 9)
        D.save_dataset(ds, tmp_path / "data", config={"seed": 9})
        loaded, config = D.load_dataset(tmp_path / "data")
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

    def test_load_holds_one_copy_of_the_blob(self, tmp_path):
        # the blob is read into the array the frames view: no second copy at any point
        rng = np.random.default_rng(0)
        D.save_dataset(D.Dataset(rng.random((1200, 1, 32, 32)), np.arange(1200) % 4), tmp_path / "d")
        size = (tmp_path / "d.bin").stat().st_size
        tracemalloc.start()
        try:
            D.load_dataset(tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size, (peak, size)

    def test_save_holds_no_copy_of_the_frames(self, tmp_path):
        # the finiteness check runs block by block: no mask the size of the blob
        D.save_dataset(D.generate_synthetic_dataset(small_spec(), 1), tmp_path / "small")
        frames = D.generate_synthetic_dataset(D.target_spec(), 1).frames  # 1200 frames
        dataset = D.Dataset(frames, np.arange(1200) % 4)
        tracemalloc.start()
        try:
            D.save_dataset(dataset, tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * frames.nbytes, peak / frames.nbytes
        assert D.load_dataset(tmp_path / "d")[0].frames.tobytes() == frames.tobytes()

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
        frames = D.load_dataset(tmp_path / "d")[0].frames
        assert frames.dtype == np.float64 and frames.flags.c_contiguous and frames.flags.writeable
        assert np.array_equal(frames, ds.frames)
        frames[0] = 0.0  # a view of the loader's own buffer, not of the file

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [1, 2, 0, 3, 5, 4],
                                       [3, 0, 5, 2, 4, 1]])
    def test_reorder_is_subset_in_place(self, order):
        rng = np.random.default_rng(1)
        ds = D.Dataset(rng.random((6, 2, 3, 3)), [0, 1, 2, 0, 1, 2])
        frames, want = ds.frames, ds.subset(order)
        ds.reorder(np.array(order))
        assert ds.frames is frames  # the rows moved inside the array they were in
        assert ds.frames.tobytes() == want.frames.tobytes()
        assert np.array_equal(ds.labels, want.labels)

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [0, 1, 3]])
    def test_reorder_refuses_what_is_not_a_permutation(self, order):
        ds = D.Dataset(np.arange(3.0).reshape(3, 1, 1, 1), [0, 1, 2])
        with pytest.raises(ValueError, match="permutation of the 3 rows"):
            ds.reorder(np.array(order))
        assert ds.frames.ravel().tolist() == [0.0, 1.0, 2.0] and ds.labels.tolist() == [0, 1, 2]

    def test_dataset_shape_contract(self):
        with pytest.raises(ValueError, match="do not align"):
            D.Dataset(np.zeros((3, 1, 2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="do not align"):
            D.Dataset(np.zeros((3, 2, 2)), np.zeros(3))
        part = D.Dataset(np.arange(12.0).reshape(3, 1, 2, 2), [2, 0, 1]).subset([2, 0])
        assert len(part) == 2 and part.labels.tolist() == [1, 2]
        assert np.array_equal(part.frames[0], np.arange(8.0, 12.0).reshape(1, 2, 2))


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
        loaded, _ = D.load_dataset("runs/data/real")
        frames, _ = D.load_image_directory("frames", (32, 32))
        assert np.array_equal(loaded.frames, np.stack(frames))
        assert loaded.frames.shape == (6, 1, 32, 32)
        assert loaded.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert run([
            "pretrain-student", "--data", "runs/data/real", "--out", "runs/real",
            "--steps", "2", "--batch-size", "2", "--queue-size", "4",
        ]) == 0


class TestBatchStream:
    def test_deterministic_and_epochal(self):
        frames = np.arange(40, dtype=np.float64).reshape(10, 1, 2, 2)
        a = D.BatchStream(frames, 4, seed=3)
        b = D.BatchStream(frames, 4, seed=3)
        for _ in range(6):
            ba, bb = a.next_batch(), b.next_batch()
            assert np.array_equal(ba.indices, bb.indices)
            assert ba.epoch == bb.epoch
        # 10 frames, batch 4: two batches per epoch, remainder dropped
        c = D.BatchStream(frames, 4, seed=3)
        epochs = [c.next_batch().epoch for _ in range(6)]
        assert epochs == [0, 0, 1, 1, 2, 2]

    def test_epoch_orders_pinned(self):
        # regression anchor: the scalar draw path fixes every shuffle
        stream = D.BatchStream(np.zeros((10, 1, 2, 2)), 5, seed=42)
        batches = [stream.next_batch() for _ in range(4)]
        assert [(b.epoch, b.indices.tolist()) for b in batches] == [
            (0, [4, 1, 3, 9, 0]),
            (0, [5, 2, 6, 8, 7]),
            (1, [8, 6, 9, 1, 0]),
            (1, [2, 7, 4, 5, 3]),
        ]

    def test_no_repeats_within_epoch(self):
        frames = np.zeros((12, 1, 1, 1))
        stream = D.BatchStream(frames, 4, seed=1)
        seen = np.concatenate([stream.next_batch().indices for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(12))

    def test_indices_without_frames_follow_the_batches(self):
        frames = np.arange(40, dtype=np.float64).reshape(10, 1, 2, 2)
        a = D.BatchStream(frames, 4, seed=3)
        b = D.BatchStream(frames, 4, seed=3)
        for _ in range(6):
            batch, (indices, epoch) = a.next_batch(), b.next_indices()
            assert np.array_equal(batch.indices, indices) and batch.epoch == epoch
            assert np.array_equal(batch.frames, frames[indices])
