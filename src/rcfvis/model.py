"""Full pipeline assembly: backbone -> token fusion -> instance head.

Each submodule draws its parameters from an rng keyed by (seed, module
name), so e.g. toggling audio never shifts the visual parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audiodsp import AudioEncoder, log_mel
from .config import RunConfig
from .errors import ArgumentError
from .fusion import (
    AudioTokenizer,
    FusionDiagnostics,
    FusionEncoder,
    ReferenceTokenizer,
    TargetTokenizer,
    TokenLayout,
    TokenSet,
    split_fused,
)
from .instance_head import FramePrediction, InstanceHead
from .nn import module_rng
from .optim import ParamGroup
from .tensor import Tensor, concat
from .videonet import Backbone, FrameFeature, MaskFeatureDecoder


@dataclass
class ModelOutput:
    diagnostics: FusionDiagnostics
    class_probs: Tensor  # (N, classes+1)
    mask_logits: Tensor  # (N, H_o, W_o)

    def to_prediction(self, frame_index: int = 0) -> FramePrediction:
        return FramePrediction(
            class_probs=self.class_probs.data.copy(),
            mask_logits=self.mask_logits.data.copy(),
            frame_index=frame_index,
        )


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

    def param_groups(self) -> dict[str, ParamGroup]:
        """Backbone gets the reduced LR; weight matrices get weight decay."""
        groups = {}
        for name in self.params():
            lr_mult = self.cfg.backbone_lr_mult if name.startswith("backbone.") else 1.0
            leaf = name.rsplit(".", 1)[-1]
            decayed = leaf in ("w", "wx", "wh")
            wd = self.cfg.weight_decay if decayed else 0.0
            groups[name] = ParamGroup(lr_mult=lr_mult, weight_decay=wd)
        return groups

    # -- feature extraction ----------------------------------------------------

    def extract(self, frame: np.ndarray) -> FrameFeature:
        return self.backbone(Tensor(np.asarray(frame, dtype=np.float64)))

    def audio_feature(self, window: np.ndarray) -> Tensor:
        """Per-video-frame audio vector: log-mel window -> trainable encoder."""
        if self.audio_enc is None:
            raise ArgumentError("audio path is disabled in this model")
        return self.audio_enc(Tensor(log_mel(np.asarray(window, dtype=np.float64))))

    # -- forward ----------------------------------------------------------------

    def token_layout(self, fh: int, fw: int) -> TokenLayout:
        """Token layout over an fh x fw feature grid: the one rule for which
        segments the encoder sees and how many tokens each has."""
        cfg = self.cfg
        return TokenLayout(
            h=fh,
            w=fw,
            k=cfg.ref_token_k if self.ref_tok is not None else 0,
            audio_len=1 + cfg.ref_frames if self.audio_tok is not None else 0,
        )

    def build_tokens(
        self,
        target: FrameFeature,
        refs: list[FrameFeature],
        audio_feats: list[Tensor] | None = None,
    ) -> TokenSet:
        cfg = self.cfg
        blocks = [self.target_tok(target.f)]
        if self.ref_tok is not None:
            if len(refs) != cfg.ref_frames:
                raise ArgumentError(f"expected {cfg.ref_frames} reference features, got {len(refs)}")
            blocks.append(self.ref_tok([r.f for r in refs]))
        if self.audio_tok is not None:
            if audio_feats is None:
                raise ArgumentError("audio is enabled but no audio features were given")
            blocks.append(self.audio_tok(audio_feats))
        layout = self.token_layout(target.f.shape[1], target.f.shape[2])
        ts = TokenSet(tokens=concat(blocks, axis=0) if len(blocks) > 1 else blocks[0], layout=layout)
        ts.validate()
        return ts

    def forward_features(
        self,
        target: FrameFeature,
        refs: list[FrameFeature],
        audio_feats: list[Tensor] | None = None,
    ) -> ModelOutput:
        ts = self.build_tokens(target, refs, audio_feats)
        fused, diag = self.encoder(ts)
        seg = self.mask_decoder(split_fused(fused), target.skips)
        code = self.head.decode(fused.tokens)
        probs = self.head.predict_class(code)
        masks = self.head.dynamic_masks(code, seg)
        return ModelOutput(diagnostics=diag, class_probs=probs, mask_logits=masks)

    def forward_frames(
        self,
        target_frame: np.ndarray,
        ref_frames: list[np.ndarray],
        audio_windows: list[np.ndarray] | None = None,
    ) -> ModelOutput:
        """Training-path forward: reference features recomputed with current weights."""
        target = self.extract(target_frame)
        refs = [self.extract(f) for f in ref_frames]
        feats = None
        if self.audio_tok is not None:
            if audio_windows is None:
                raise ArgumentError("audio is enabled but no audio windows were given")
            feats = [self.audio_feature(w) for w in audio_windows]
        return self.forward_features(target, refs, feats)
