"""Full pipeline assembly: backbone -> token fusion -> instance head.

Each submodule draws its parameters from an rng keyed by (seed, module
name), so e.g. toggling audio never shifts the visual parameters.  Layers
hand plain tensors along; `forward_features` returns the class
probabilities and the mask logits.
"""

from __future__ import annotations

import numpy as np

from .audiodsp import AudioEncoder, log_mel
from .config import RunConfig
from .errors import ArgumentError
from .fusion import (
    AudioTokenizer,
    FusionEncoder,
    ReferenceTokenizer,
    TargetTokenizer,
    split_fused,
)
from .instance_head import InstanceHead
from .nn import module_rng
from .optim import ParamGroup
from .tensor import Tensor, concat
from .videonet import Backbone, FrameFeature, MaskFeatureDecoder

BACKBONE_LR_MULT = 0.1  # the backbone's share of the learning rate
WEIGHT_DECAY = 1e-4  # AdamW decay of the weight matrices (w, wx, wh); nothing else decays


def reference_indices(t: int, delta: int) -> list[int]:
    """The delta reference frames of frame t, oldest first: t-delta..t-1,
    with frame 0 standing in for frames before the clip start.  Training and
    streaming both take their references from this rule."""
    return [max(t - k, 0) for k in range(delta, 0, -1)]


class RCFModel:
    """Online video instance segmentation model over fused context tokens."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        seed = cfg.seed
        c = cfg.backbone_channels
        ct = cfg.token_dim
        self.backbone = Backbone("backbone", c, module_rng(seed, "backbone"))
        self.target_tok = TargetTokenizer("target_tok", c, ct, module_rng(seed, "target_tok"))
        self.ref_tok = None
        if cfg.ref_frames >= 1:
            self.ref_tok = ReferenceTokenizer(
                "ref_tok", c, cfg.ref_frames, ct, cfg.ref_token_k, module_rng(seed, "ref_tok")
            )
        self.audio_enc = None
        self.audio_tok = None
        if cfg.audio_enabled:
            self.audio_enc = AudioEncoder("audio_enc", cfg.audio_dim, module_rng(seed, "audio_enc"))
            self.audio_tok = AudioTokenizer(
                "audio_tok", cfg.audio_dim, cfg.ref_frames, ct, cfg.lstm_hidden, module_rng(seed, "audio_tok")
            )
        self.encoder = FusionEncoder("encoder", ct, cfg.heads, cfg.enc_depth, module_rng(seed, "encoder"))
        self.mask_decoder = MaskFeatureDecoder(
            "mask_decoder", ct, self.backbone.skip_channels, cfg.seg_channels, module_rng(seed, "mask_decoder")
        )
        self.head = InstanceHead(
            "head",
            ct,
            cfg.code_dim,
            cfg.seg_channels,
            cfg.num_slots,
            cfg.num_classes,
            cfg.heads,
            cfg.dec_depth,
            module_rng(seed, "head"),
        )

    # -- parameters ----------------------------------------------------------

    def modules(self):
        mods = [self.backbone, self.target_tok, self.encoder, self.mask_decoder, self.head]
        if self.ref_tok is not None:
            mods.insert(2, self.ref_tok)
        if self.audio_enc is not None:
            mods.extend([self.audio_enc, self.audio_tok])
        return mods

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for m in self.modules():
            out.update(m.params())
        return out

    def param_groups(self) -> list[ParamGroup]:
        """The optimizer's groups in array order, each listing its parameters in
        `params` order: the backbone gets the reduced LR, weight matrices decay."""
        groups: dict[tuple[float, float], ParamGroup] = {}
        for name in self.params():
            lr_mult = BACKBONE_LR_MULT if name.startswith("backbone.") else 1.0
            leaf = name.rsplit(".", 1)[-1]
            decayed = leaf in ("w", "wx", "wh")
            wd = WEIGHT_DECAY if decayed else 0.0
            groups.setdefault((lr_mult, wd), ParamGroup(lr_mult, wd, [])).names.append(name)
        return list(groups.values())

    # -- feature extraction ----------------------------------------------------

    def extract(self, frame: np.ndarray) -> FrameFeature:
        return self.backbone(Tensor(np.asarray(frame, dtype=np.float64)))

    def audio_feature(self, window: np.ndarray) -> Tensor:
        """Per-video-frame (1, audio_dim) audio row: log-mel window -> trainable encoder."""
        if self.audio_enc is None:
            raise ArgumentError("audio path is disabled in this model")
        return self.audio_enc(Tensor(log_mel(np.asarray(window, dtype=np.float64))))

    # -- forward ----------------------------------------------------------------

    def token_segments(self, fh: int, fw: int) -> dict[str, slice]:
        """Each segment's rows of the tokens over an fh x fw feature grid: the
        one rule for which segments the encoder sees and how long each is."""
        a = fh * fw
        b = a + (self.cfg.ref_token_k**2 if self.ref_tok is not None else 0)
        c = b + (1 + self.cfg.ref_frames if self.audio_tok is not None else 0)
        return {"target": slice(0, a), "reference": slice(a, b), "audio": slice(b, c)}

    def build_tokens(
        self,
        target: FrameFeature,
        refs: list[Tensor],
        audio_feats: list[Tensor] | None = None,
    ) -> Tensor:
        """The (L, C') encoder input, rows laid out as `token_segments` says.
        `refs` are the reference frames' backbone outputs `FrameFeature.f`."""
        blocks = [self.target_tok(target.f)]
        if self.ref_tok is not None:
            blocks.append(self.ref_tok(refs))
        if self.audio_tok is not None:
            if audio_feats is None:
                raise ArgumentError("audio is enabled but no audio features were given")
            blocks.append(self.audio_tok(audio_feats))
        return concat(blocks, axis=0) if len(blocks) > 1 else blocks[0]

    def forward_features(
        self,
        target: FrameFeature,
        refs: list[Tensor],
        audio_feats: list[Tensor] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """(class_probs (N, classes+1), mask_logits (N, H_o, W_o))."""
        fused = self.encoder(self.build_tokens(target, refs, audio_feats))
        seg = self.mask_decoder(split_fused(fused, *target.f.shape[1:]), target.skips)
        code = self.head.decode(fused)
        return self.head.predict_class(code), self.head.dynamic_masks(code, seg)

    def forward_frames(
        self,
        target_frame: np.ndarray,
        ref_frames: list[np.ndarray],
        audio_windows: list[np.ndarray] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Training-path forward: reference features recomputed with current weights."""
        target = self.extract(target_frame)
        refs = [self.extract(f).f for f in ref_frames]
        feats = None
        if self.audio_tok is not None:
            if audio_windows is None:
                raise ArgumentError("audio is enabled but no audio windows were given")
            feats = [self.audio_feature(w) for w in audio_windows]
        return self.forward_features(target, refs, feats)
