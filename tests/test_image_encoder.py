"""Image tower tests for both modes plus freezing through TrainConfig.freeze_image."""

import os

import numpy as np
import pytest

from cornerclip import image_encoder as ie
from cornerclip import train, transformer
from cornerclip.corpus import ManifestRecord
from cornerclip.image_encoder import ImageEncoderConfig
from cornerclip.tokenizer import Vocabulary
from cornerclip.train import TrainConfig


class TestConfig:
    def test_patch_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ImageEncoderConfig(mode="vit", image_size=30, patch_size=8)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match=r"mode must be one of \('vit', 'precomputed'\), "
                                             "got 'resnet'"):
            ImageEncoderConfig(mode="resnet")

    @pytest.mark.parametrize("mode, field", [
        ("precomputed", "projection_dim"), ("precomputed", "input_feature_dim"),
        ("vit", "projection_dim"), ("vit", "image_size"), ("vit", "patch_size"),
        ("vit", "channels"), ("vit", "depth"), ("vit", "width"), ("vit", "heads"),
        ("vit", "mlp_ratio"),
    ])
    def test_field_below_one_is_named(self, mode, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            ImageEncoderConfig(mode=mode, **{field: 0})


class TestPrecomputedMode:
    def test_unit_norm(self):
        cfg = ImageEncoderConfig(input_feature_dim=8, projection_dim=16)
        p = ie.init_params(cfg, 0)
        rng = np.random.default_rng(0)
        f = ie.encode_image_graph(rng.normal(size=(1, 8)), p, cfg).value[0]
        assert abs(np.linalg.norm(f) - 1) < 1e-6

    def test_identity_projection(self):
        cfg = ImageEncoderConfig(input_feature_dim=6, projection_dim=6)
        p = ie.init_params(cfg, 0)
        p["img.proj"].value = np.eye(6)
        x = np.array([3.0, 0.0, 4.0, 0.0, 0.0, 0.0])
        f = ie.encode_image_graph(x[None], p, cfg).value[0]
        np.testing.assert_allclose(f, x / np.linalg.norm(x), atol=1e-9)

    def test_width_mismatch(self):
        cfg = ImageEncoderConfig(input_feature_dim=8, projection_dim=4)
        p = ie.init_params(cfg, 0)
        with pytest.raises(ValueError, match=r"^precomputed mode takes inputs of shape "
                                             r"\(batch, 8\), got \(1, 5\)$"):
            ie.encode_image_graph(np.zeros((1, 5)), p, cfg)


class TestVitMode:
    def cfg(self):
        return ImageEncoderConfig(mode="vit", image_size=16, patch_size=8,
                                  channels=1, depth=1, width=16, heads=2,
                                  projection_dim=8)

    def test_unit_norm(self):
        cfg = self.cfg()
        p = ie.init_params(cfg, 1)
        rng = np.random.default_rng(1)
        f = ie.encode_image_graph(rng.normal(size=(1, 16, 16, 1)), p, cfg).value[0]
        assert abs(np.linalg.norm(f) - 1) < 1e-6

    def test_shape_mismatch(self):
        cfg = self.cfg()
        p = ie.init_params(cfg, 1)
        with pytest.raises(ValueError, match=r"^vit mode takes inputs of shape "
                                             r"\(batch, 16, 16, 1\), got \(1, 8, 8, 1\)$"):
            ie.encode_image_graph(np.zeros((1, 8, 8, 1)), p, cfg)

    def test_patch_order_invariant_without_pos_emb(self):
        # with no position embedding the tower treats its patches symmetrically
        cfg = self.cfg()
        p = ie.init_params(cfg, 2)
        p["img.pos_emb"].value[:] = 0.0
        img = np.random.default_rng(2).normal(size=(16, 16, 1))
        swapped = np.concatenate([img[8:], img[:8]], axis=0)   # patch rows exchanged
        feats = ie.encode_image_graph(np.stack([swapped, img]), p, cfg).value
        np.testing.assert_allclose(feats[0], feats[1], atol=1e-12)

    def test_cls_row_matches_the_all_rows_forward(self, monkeypatch):
        """The last block computes only the CLS row the feature reads."""
        cfg = ImageEncoderConfig(mode="vit", image_size=16, patch_size=8, channels=1,
                                 depth=2, width=16, heads=2, projection_dim=8)
        p = ie.init_params(cfg, 4)
        images = np.random.default_rng(4).normal(size=(3, 16, 16, 1))
        cut = ie.encode_image_graph(images, p, cfg).value
        block = transformer.block_forward
        monkeypatch.setattr(transformer, "block_forward",
                            lambda *a, rows=None, **kw: block(*a, **kw))
        full = ie.encode_image_graph(images, p, cfg).value
        np.testing.assert_allclose(cut, full, rtol=0, atol=1e-12)

    def test_same_sphere_as_precomputed(self):
        vit_cfg = self.cfg()
        pre_cfg = ImageEncoderConfig(input_feature_dim=5, projection_dim=8)
        pv = ie.init_params(vit_cfg, 3)
        pp = ie.init_params(pre_cfg, 3)
        rng = np.random.default_rng(3)
        a = ie.encode_image_graph(rng.normal(size=(2, 16, 16, 1)), pv, vit_cfg)
        b = ie.encode_image_graph(rng.normal(size=(2, 5)), pp, pre_cfg)
        assert a.shape == b.shape == (2, 8)


@pytest.mark.parametrize("mode,single", [("precomputed", (8,)), ("vit", (16, 16, 1))])
def test_single_example_is_refused(mode, single):
    cfg = ImageEncoderConfig(mode=mode, input_feature_dim=8, image_size=16, channels=1,
                             depth=1, width=16, heads=2, projection_dim=8)
    with pytest.raises(ValueError, match=rf"{mode} mode takes inputs of shape \(batch, "):
        ie.encode_image_graph(np.zeros(single), ie.init_params(cfg, 0), cfg)


def test_pixels_of_another_shape_name_the_record(tmp_path):
    """A record whose pixel file has another shape than the tower's input is refused
    by name when its pixels are read, not inside the stacking of a batch."""
    cfg = ImageEncoderConfig(mode="vit", image_size=16, channels=1, depth=1, width=16,
                             heads=2, projection_dim=8)
    records = []
    for rid, shape in (("a", (16, 16, 1)), ("b", (16, 16, 3))):
        np.save(tmp_path / f"{rid}.npy", np.zeros(shape))
        records.append(ManifestRecord(id=rid, short_text="a cat.",
                                      image_path=str(tmp_path / f"{rid}.npy")))
    assert ie.image_inputs(records[:1], cfg).shape == (1, 16, 16, 1)
    with pytest.raises(ValueError, match=r"^record b: pixel shape \(16, 16, 3\), "
                                         r"expected \(16, 16, 1\)$"):
        ie.image_inputs(records, cfg)


class TestPatchify:
    def test_round_trip_content(self):
        cfg = ImageEncoderConfig(mode="vit", image_size=4, patch_size=2, channels=1)
        img = np.arange(16.0).reshape(1, 4, 4, 1)
        patches = ie.patchify(img, cfg)
        assert patches.shape == (1, 4, 4)
        np.testing.assert_array_equal(patches[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches[0, 3], [10, 11, 14, 15])


class TestFreezeFlag:
    """TrainConfig.freeze_image is the one switch that locks the image tower."""

    @staticmethod
    def trainable_img(image_mode, freeze_image):
        cfg = TrainConfig(image_mode=image_mode, freeze_image=freeze_image)
        text_cfg, image_cfg = train.make_configs(Vocabulary.build(["a cat."]), cfg, 8)
        params = train.build_model(text_cfg, image_cfg, 0)
        names = train.trainable_names(params, cfg)
        assert any(n.startswith("text.") for n in names)
        return [n for n in names if n.startswith("img.")]

    def test_lit_preset_frozen(self):
        assert self.trainable_img("vit", True) == []

    def test_from_scratch_not_frozen(self):
        assert "img.patch_emb" in self.trainable_img("vit", False)

    def test_precomputed_projection_follows_switch(self):
        assert self.trainable_img("precomputed", False) == ["img.proj"]
        assert self.trainable_img("precomputed", True) == []


class TestForkedWorker:
    """The ViT's no-grad embedding with a forked worker (`transformer.embed_rows`):
    the bytes and the exceptions of the in-process embedding, no child left."""

    CFG = ImageEncoderConfig(mode="vit", image_size=16, channels=1, depth=1, width=16,
                             heads=2, projection_dim=8)

    def records(self, tmp_path, n, bad=()):
        """n records of random 16x16x1 pixels, those at the indices `bad` of 16x16x3."""
        rng = np.random.default_rng(n)
        records = []
        for i in range(n):
            path = tmp_path / f"r{i}.npy"
            np.save(path, rng.normal(size=(16, 16, 3 if i in bad else 1)))
            records.append(ManifestRecord(id=f"r{i}", short_text="a cat.",
                                          image_path=str(path)))
        return records

    @pytest.mark.parametrize("rows", [3, 16])
    @pytest.mark.parametrize("n", [1, 2, 17, 33])
    def test_forked_features_are_the_in_process_bytes(self, tmp_path, worker, monkeypatch,
                                                      n, rows):
        records, params = self.records(tmp_path, n), ie.init_params(self.CFG, 5)
        monkeypatch.setattr(transformer, "EMBED_ROWS", rows)
        worker.on = False
        alone = ie.embed_images(records, params, self.CFG)
        worker.on = True
        shared = ie.embed_images(records, params, self.CFG)
        assert shared.shape == (n, 8) and shared.tobytes() == alone.tobytes()
        assert worker.forks == (len(transformer.embed_chunks(n)) > 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("bad, first", [((10,), 10), ((4, 10), 4), ((7, 10), 7)])
    def test_an_error_is_the_in_process_one(self, tmp_path, worker, monkeypatch, bad, first):
        """12 records in 4 passes of 3: the worker starts from the last pass, this
        process from the first. A bad record in either share is refused with the
        message of an in-process run, and of the first bad record in record order."""
        records, params = self.records(tmp_path, 12, bad), ie.init_params(self.CFG, 5)
        monkeypatch.setattr(transformer, "EMBED_ROWS", 3)
        message = rf"^record r{first}: pixel shape \(16, 16, 3\), expected \(16, 16, 1\)$"
        for on in (False, True):
            worker.on = on
            with pytest.raises(ValueError, match=message):
                ie.embed_images(records, params, self.CFG)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert worker.forks == 1

    def test_the_precomputed_tower_keeps_its_passes_here(self, worker, monkeypatch):
        """A precomputed pass is one small matrix product, which never pays for a
        fork: the worker stays off whatever worker_pays says."""
        cfg = ImageEncoderConfig(input_feature_dim=5, projection_dim=8)
        rng = np.random.default_rng(6)
        records = [ManifestRecord(id=f"r{i}", short_text="a cat.",
                                  image_feature=list(rng.normal(size=5))) for i in range(40)]
        monkeypatch.setattr(transformer, "EMBED_ROWS", 3)
        feats = ie.embed_images(records, ie.init_params(cfg, 6), cfg)
        assert feats.shape == (40, 8) and worker.forks == 0
