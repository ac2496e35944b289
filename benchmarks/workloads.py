"""Workloads of the rcfvis benchmark: set-up, measured passes and checks.

Every workload builds its inputs from the seed alone: clips come from
`generate_clip(clip_seed(seed, split, i), generator_config(cfg, split))` and
the model is random-initialised at the same seed.  The program sees only
those inputs and a `RunConfig`.

A *pass* is one unit of repeated work: one clip streamed frame by frame
(stream workloads) or one whole `train_loop` call (training workload).  A
*step* is one streamed frame or one training iteration.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from rcfvis import stream, training
from rcfvis.cli import clip_seed, generator_config
from rcfvis.config import RunConfig, apply_assignments
from rcfvis.model import RCFModel
from rcfvis.synthav import generate_clip, write_clip

import spans


@dataclass(frozen=True)
class Workload:
    kind: str  # "stream" or "train"
    overrides: tuple[str, ...]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "stream_small": Workload("stream", ("class_threshold=0",)),
    "stream_hires": Workload(
        "stream",
        (
            "image_h=128",
            "image_w=192",
            "num_slots=32",
            "gen_min_sprites=4",
            "gen_max_sprites=8",
            "class_threshold=0",
        ),
    ),
    "train_crowded": Workload("train", ("num_slots=32", "gen_min_sprites=4", "gen_max_sprites=8", "iter_max=25")),
}

STREAM_POOL = 8  # clips per stream workload; the measured loop cycles through them
TRACE_CLIPS = 2  # traced passes cycle over this many clips, so each one repeats
SETUP_REPEATS = 3
MIN_STEPS = 100  # p90 then has at least 10 samples beyond it
TAIL_ITERS = 5  # iterations averaged into the training loss tail
MAX_ERRORS = 20  # error messages kept in the report

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REF_SEED = 0
REF_FRAMES = 8
REF_TRAIN = ("train_clips=4", "iter_max=3")
# Streamed and trained outputs must match the committed reference to this
# relative tolerance: loose enough for a reordered summation, tight enough
# to catch any change of arithmetic.  Discrete outputs must match exactly.
RTOL, ATOL = 1e-6, 1e-9

E2E_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# e2e metric -> the name it carries for each kind of workload
ALIASES = {
    "stream": {"steps_per_s": "stream_fps", "step_ms_p50": "frame_ms_p50", "step_ms_p90": "frame_ms_p90"},
    "train": {"steps_per_s": "train_it_s", "step_ms_p50": "iter_ms_p50", "step_ms_p90": "iter_ms_p90"},
}
LAYER_UNITS = {
    **{f"{s}_ms": "ms" for s in spans.LAYER_SPANS},
    "unattributed_ms": "ms",
    "trace_overhead_ms": "ms",
    **{m: "count" for m in spans.COUNTED},
    "stream.fired_slots": "count",
    "stream.id_reuse_ratio": "ratio",
}


def make_config(name: str, seed: int, extra: tuple[str, ...] = ()) -> RunConfig:
    """Workload config at `seed`, folded into the range RunConfig accepts.

    RCFVIS_SEED in the environment is ignored.
    """
    items = [o.split("=", 1) for o in (*WORKLOADS[name].overrides, *extra)]
    return apply_assignments(RunConfig(), [*items, ("seed", str(seed % (2**31 - 1)))]).validate()


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


# ---------------------------------------------------------------------------
# streaming


@dataclass
class StreamPass:
    preds: list
    times_ns: list[int]
    fired: int = 0
    reused: int = 0
    error: str | None = None

    @property
    def total_ns(self) -> int:
        return sum(self.times_ns)


def stream_pass(model: RCFModel, clip, limit: int | None = None) -> StreamPass:
    """Stream `clip` through `infer_frame` exactly as `stream_clip` does."""
    cfg = model.cfg
    cache = stream.RefCache(capacity=cfg.ref_frames)
    state = stream.TrackState(num_slots=cfg.num_slots)
    out = StreamPass(preds=[], times_ns=[])
    for t in range(clip.num_frames if limit is None else limit):
        frame = clip.frames[t].astype(np.float64)
        window = clip.audio_window(t).astype(np.float64) if cfg.audio_enabled else None
        known = state.next_id
        start = time.perf_counter_ns()
        try:
            pred = stream.infer_frame(model, frame, window, cache, state, t)
        except Exception as exc:  # a failed frame ends its stream; the run goes on
            out.error = f"frame {t}: {type(exc).__name__}: {exc}"
            break
        out.times_ns.append(time.perf_counter_ns() - start)
        out.preds.append(pred)
        out.fired += int(pred.fired.sum())
        out.reused += int((pred.identities[pred.fired] < known).sum())
    live = state.live_identities()
    if len(live) != len(set(live)) and out.error is None:
        out.error = "duplicate live identities"
    return out


def frame_problem(pred, cfg: RunConfig) -> str | None:
    """Why a streamed frame's output is invalid, or None."""
    n = cfg.num_slots
    probs, logits, ids = pred.class_probs, pred.mask_logits, pred.identities
    if probs.shape != (n, cfg.num_classes + 1) or logits.shape != (n, *cfg.mask_hw):
        return "output shape"
    if not (np.isfinite(probs).all() and np.isfinite(logits).all()):
        return "non-finite output"
    if probs.min() < 0 or probs.max() > 1 or np.abs(probs.sum(axis=1) - 1).max() > 1e-9:
        return "class probabilities do not sum to 1"
    fired_ids = ids[pred.fired]
    if (fired_ids < 0).any() or (ids[~pred.fired] != -1).any():
        return "fired slot without identity"
    if len(set(fired_ids.tolist())) != fired_ids.size:
        return "duplicate identity in frame"
    return None


def digest(preds) -> str:
    """Hash of every bit of a stream's outputs; equal digests mean equal outputs."""
    h = hashlib.blake2b()
    for p in preds:
        for arr in (p.class_probs, p.mask_logits, p.identities, p.fired):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def stream_setup(cfg: RunConfig):
    gen = generator_config(cfg, "val")
    clips = [generate_clip(clip_seed(cfg.seed, "val", i), gen) for i in range(STREAM_POOL)]
    model = RCFModel(cfg)
    # one frame through a throwaway stream: lazy tables fill during set-up
    stream_pass(model, clips[0], limit=1)
    return model, clips


def account(out: Outcome, p: StreamPass, cfg: RunConfig) -> None:
    problems = [r for r in (frame_problem(pred, cfg) for pred in p.preds) if r is not None]
    if p.error is not None:
        problems.append(p.error)
    out.attempted += len(p.times_ns) + (p.error is not None)
    out.failed += len(problems)
    if problems:
        errors = out.report.setdefault("errors", [])
        errors += problems[: max(0, MAX_ERRORS - len(errors))]


def run_stream(out: Outcome, cfg: RunConfig, seconds: float, trace: bool, model, clips, min_steps: int) -> None:
    start = time.perf_counter()
    deadline, cap = start + seconds, start + 2 * seconds + 20
    if trace:
        digests = trace_stream(out, cfg, model, clips[:TRACE_CLIPS], deadline, cap)
    else:
        digests: dict[int, str] = {}  # the first outputs of each clip
        times_ns: list[list[int]] = []  # per pass
        while time.perf_counter() < cap and (
            time.perf_counter() < deadline or sum(map(len, times_ns)) < min_steps
        ):
            i = len(times_ns) % len(clips)
            p = stream_pass(model, clips[i])
            account(out, p, cfg)
            times_ns.append(p.times_ns)
            d = digest(p.preds)
            out.check("repeat_clip_outputs_equal", digests.setdefault(i, d) == d)
        times = np.concatenate(times_ns) / 1e6
        rates = [len(t) / sum(t) * 1e9 for t in times_ns if t]
        if not rates:
            return
        out.metrics["steps_per_s"] = float(np.median(rates))
        out.report["pass_steps_per_s"] = rates
        out.metrics["step_ms_p50"], out.metrics["step_ms_p90"] = (float(v) for v in np.percentile(times, [50, 90]))
        out.report["steps"] = int(times.size)
        out.report["passes"] = len(times_ns)
    # the per-frame loop must give what the library's own clip loop gives
    try:
        ref_preds, _ = stream.stream_clip(model, clips[0])
    except Exception as exc:  # reported as a failed check
        out.report.setdefault("errors", []).append(f"stream_clip: {type(exc).__name__}: {exc}")
        ref_preds = []
    out.check("infer_frame_loop_equals_stream_clip", digests.get(0) == digest(ref_preds))


def trace_stream(out, cfg, model, clips, deadline, cap) -> dict[int, str]:
    """Untraced and traced passes in pairs; returns each clip's output digest."""
    digests: dict[int, str] = {}
    plain_ns, traced_ns, samples = [], [], []
    counts_seen: dict[int, dict] = {}
    k = 0
    while k < 2 * len(clips) or (time.perf_counter() < deadline and time.perf_counter() < cap):
        i = k % len(clips)
        plain = stream_pass(model, clips[i])
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = stream_pass(model, clips[i])
        for p in (plain, traced):
            account(out, p, cfg)
        d = digests.setdefault(i, digest(plain.preds))
        out.check("traced_outputs_equal_untraced", d == digest(traced.preds) and not traced.error)
        steps = len(traced.times_ns)
        if not (steps and plain.times_ns):
            break
        counts = step_counts(tracer, steps)
        counts["stream.fired_slots"] = traced.fired / steps
        counts["stream.id_reuse_ratio"] = traced.reused / traced.fired if traced.fired else 0.0
        if i in counts_seen:
            out.check("exact_counts_repeat", counts == counts_seen[i])
        else:
            counts_seen[i] = counts
        plain_ns.append(plain.total_ns / len(plain.times_ns))
        traced_ns.append(traced.total_ns / steps)
        samples.append(layer_times(tracer, traced.total_ns, steps))
        k += 1
    if samples:
        # counts over the first cycle, which every run of the same seed repeats
        out.metrics.update({m: float(np.mean([c[m] for c in counts_seen.values()])) for m in counts_seen[0]})
        finish_layers(out, samples, plain_ns, traced_ns)
    return digests


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainPass:
    losses: list[float]
    wall_ns: int
    iter_ns: list[int]
    digest: str  # of the metrics log and the final checkpoint
    error: str | None = None


STEP_CLOCK = (spans.Target("rcfvis.optim", "adamw_step", "optim.adamw"),)


def train_pass(cfg: RunConfig, data_dir: Path, out_dir: Path, tracer: spans.Tracer | None = None) -> TrainPass:
    """One whole `train_loop` call.

    Untraced calls still wrap the optimizer step, and only it, so that each
    iteration's end is time-stamped; traced calls wrap every target.
    """
    clock = spans.Tracer() if tracer is None else tracer
    targets = STEP_CLOCK if tracer is None else spans.TARGETS
    start = time.perf_counter_ns()
    try:
        with spans.installed(clock, targets), redirect_stdout(io.StringIO()):
            result = training.train_loop(cfg, data_dir, out_dir)
    except Exception as exc:  # a failed call fails all its iterations; the run reports it
        return TrainPass([], 0, [], "", error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter_ns() - start
    ends = [s[2] for s in clock.spans if s[0] == "optim.adamw"]
    iter_ns = np.diff(ends).tolist() if len(ends) == cfg.iter_max else [wall // cfg.iter_max] * cfg.iter_max
    h = hashlib.blake2b()
    for f in (out_dir / "metrics.csv", result.final_checkpoint / "manifest.json", result.final_checkpoint / "tensors.bin"):
        h.update(f.read_bytes())
    return TrainPass(list(result.losses), wall, iter_ns, h.hexdigest())


def train_setup(cfg: RunConfig, data_dir: Path) -> Path:
    gen = generator_config(cfg, "train")
    for i in range(cfg.train_clips):
        write_clip(generate_clip(clip_seed(cfg.seed, "train", i), gen), data_dir / "train" / f"clip_{i:05d}")
    return data_dir


def account_train(out: Outcome, p: TrainPass, cfg: RunConfig) -> None:
    out.attempted += cfg.iter_max
    if p.error is not None:
        out.failed += cfg.iter_max
        out.report.setdefault("errors", []).append(p.error)  # a failed call stops the run
    else:
        out.failed += sum(not math.isfinite(v) for v in p.losses)


def run_train(
    out: Outcome, cfg: RunConfig, seconds: float, trace: bool, data_dir: Path, out_dir: Path, min_steps: int
) -> None:
    # an untimed first call lets the allocator and the page cache settle
    warm = train_pass(cfg, data_dir, out_dir)
    account_train(out, warm, cfg)
    if warm.error:
        return
    passes = [warm]
    start = time.perf_counter()
    deadline, cap = start + seconds, start + 2 * seconds + 20
    if not trace:
        timed: list[TrainPass] = []
        while time.perf_counter() < cap and (
            time.perf_counter() < deadline or sum(len(p.iter_ns) for p in timed) < min_steps
        ):
            p = train_pass(cfg, data_dir, out_dir)
            account_train(out, p, cfg)
            if p.error:
                return
            timed.append(p)
        passes += timed
        times = np.array([t for p in timed for t in p.iter_ns]) / 1e6
        rates = [cfg.iter_max / p.wall_ns * 1e9 for p in timed]
        out.metrics["steps_per_s"] = float(np.median(rates))
        out.report["pass_steps_per_s"] = rates
        out.metrics["step_ms_p50"], out.metrics["step_ms_p90"] = (float(v) for v in np.percentile(times, [50, 90]))
        out.report["steps"] = int(times.size)
        out.report["passes"] = len(timed)
    else:
        plain_ns, traced_ns, samples, seen = [], [], [], None
        while len(samples) < 2 or (time.perf_counter() < deadline and time.perf_counter() < cap):
            plain = train_pass(cfg, data_dir, out_dir)
            tracer = spans.Tracer()
            traced = train_pass(cfg, data_dir, out_dir, tracer)
            for p in (plain, traced):
                account_train(out, p, cfg)
            if plain.error or traced.error:
                return
            passes.append(plain)
            out.check(
                "traced_outputs_equal_untraced", plain.losses == traced.losses and plain.digest == traced.digest
            )
            counts = step_counts(tracer, cfg.iter_max)
            counts["stream.fired_slots"] = counts["stream.id_reuse_ratio"] = 0.0
            if seen is None:
                seen = counts
            out.check("exact_counts_repeat", counts == seen)
            plain_ns.append(plain.wall_ns / cfg.iter_max)
            traced_ns.append(traced.wall_ns / cfg.iter_max)
            samples.append(layer_times(tracer, traced.wall_ns, cfg.iter_max))
        out.metrics.update(seen)
        finish_layers(out, samples, plain_ns, traced_ns)
    base = passes[0]
    out.check("losses_finite", all(math.isfinite(v) for p in passes for v in p.losses))
    out.check("repeat_calls_equal", all(p.losses == base.losses and p.digest == base.digest for p in passes))
    out.report["train_loss_tail"] = float(np.mean(base.losses[-TAIL_ITERS:]))


# ---------------------------------------------------------------------------
# per-layer aggregation


def step_counts(tracer: spans.Tracer, steps: int) -> dict[str, float]:
    return {m: tracer.counts[counter] / steps for m, (counter, _) in spans.COUNTED.items()}


def layer_times(tracer: spans.Tracer, pass_ns: int, steps: int) -> dict[str, float]:
    """Per-step self time of each layer and the unattributed rest, in ms."""
    self_ns = tracer.self_times_ns()
    ms = {f"{s}_ms": self_ns.get(s, 0) / steps / 1e6 for s in spans.LAYER_SPANS}
    ms["unattributed_ms"] = pass_ns / steps / 1e6 - sum(ms.values())
    return ms


def finish_layers(out: Outcome, samples, plain_ns, traced_ns) -> None:
    for name in samples[0]:
        out.metrics[name] = float(np.median([s[name] for s in samples]))
    overhead = np.subtract(traced_ns, plain_ns)  # per pair of passes over the same input
    out.metrics["trace_overhead_ms"] = float(np.median(overhead)) / 1e6
    out.report["traced_passes"] = len(samples)
    # a layer whose callables are gone is reported absent; it reads 0 because
    # none of its work could be seen
    out.report["absent"] = sorted(spans.absent_metrics())


# ---------------------------------------------------------------------------
# reference summary


def stream_summary(preds) -> dict:
    return {
        "class_prob_sums": [p.class_probs.sum(axis=0).tolist() for p in preds],
        "logit_mean": [float(p.mask_logits.mean()) for p in preds],
        "logit_std": [float(p.mask_logits.std()) for p in preds],
        "mask_pixels": [int((p.mask_logits >= 0).sum()) for p in preds],
        "identities": [p.identities.tolist() for p in preds],
    }


def reference_summary(name: str, work: Path) -> dict:
    """Outputs of `name` at the reference seed, summarised."""
    if WORKLOADS[name].kind == "stream":
        cfg = make_config(name, REF_SEED)
        clip = generate_clip(clip_seed(REF_SEED, "val", 0), generator_config(cfg, "val"))
        p = stream_pass(RCFModel(cfg), clip, limit=REF_FRAMES)
        if p.error:
            raise RuntimeError(p.error)
        return stream_summary(p.preds)
    cfg = make_config(name, REF_SEED, REF_TRAIN)
    data = train_setup(cfg, work / "ref_data")
    p = train_pass(cfg, data, work / "ref_out")
    if p.error:
        raise RuntimeError(p.error)
    return {"losses": p.losses}


def matches(got, want) -> bool:
    """Floats within RTOL/ATOL, integers exactly, recursively."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(matches(g, w) for g, w in zip(got, want))
    if isinstance(want, int):
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


# ---------------------------------------------------------------------------
# the run


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(name: str, seed: int, seconds: float, trace: bool, root: Path, extra) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workload": name,
        "seed": seed,
        "config_seed": make_config(name, seed, extra).seed,
        "seconds": seconds,
        "trace": int(trace),
        "overrides": [*WORKLOADS[name].overrides, *extra],
        "git_commit": git_commit(root),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    root: Path,
    extra: tuple[str, ...] = (),
    setup_repeats: int = SETUP_REPEATS,
    min_steps: int = MIN_STEPS,
) -> Outcome:
    """Set up, measure for `seconds`, check; `extra` overrides shrink test runs."""
    wl = WORKLOADS[name]
    cfg = make_config(name, seed, extra)
    out = Outcome()
    out.report["environment"] = environment(name, seed, seconds, trace, root, extra)
    work.mkdir(parents=True, exist_ok=True)
    setup_s = []
    for _ in range(1 if trace else max(1, setup_repeats)):
        if wl.kind == "train":
            shutil.rmtree(work / "data", ignore_errors=True)
        start = time.perf_counter()
        if wl.kind == "stream":
            model, clips = stream_setup(cfg)
        else:
            data_dir = train_setup(cfg, work / "data")
        setup_s.append(time.perf_counter() - start)
    if wl.kind == "stream":
        run_stream(out, cfg, seconds, trace, model, clips, min_steps)
    else:
        run_train(out, cfg, seconds, trace, data_dir, work / "out", min_steps)

    want = json.loads(REFERENCE_PATH.read_text())[name] if REFERENCE_PATH.is_file() else None
    out.check("reference_file_present", want is not None)
    if want is not None:
        try:
            got = reference_summary(name, work)
        except Exception as exc:  # the program failed on the reference input
            out.report.setdefault("errors", []).append(f"reference: {type(exc).__name__}: {exc}")
            got = None
        out.check("matches_reference_summary", got is not None and matches(got, want))

    if not trace:
        out.metrics["setup_s"] = float(np.median(setup_s))
        out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.metrics["ok_frac"] = 1.0 - out.failed / max(out.attempted, 1)
        out.report["setup_s_samples"] = setup_s
    out.report["checks"] = out.checks
    return out
