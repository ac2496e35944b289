"""No dead code: every function, method, closure, lambda and comprehension of
`src/rcfvis` runs under some CLI command.

`trace_commands` starts `sys.settrace` before `rcfvis` is imported, runs
every subcommand through `cli.main` on one tiny 32x48 corpus, plus
failing runs for each documented exit code (2, 3 and 4), and restores the
previous tracer.  It runs in a child interpreter, since the test session
has imported `rcfvis` long before.  With `class_threshold=0` an untrained
model fires every slot, so the tracker's IoU and override paths run.

A code object is keyed by file, first line and name (`co_qualname` needs
Python 3.11); the failure names each unentered one by file, line and a
qualified name built from its nesting.  Class and module bodies run on
import and are not checked: `tests/test_surface.py` checks classes.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "rcfvis"

# "file qualname" -> why no command enters it
ALLOWED = {
    "tensor.py grad_check": "the tests' finite-difference gradient oracle",
    "config.py RunConfig.mask_hw": "the grid that benchmarks/workloads.py checks the model's mask logits against",
}

TINY = """\
image_h = 32
image_w = 48
train_clips = 2
val_clips = 2
probe_clips = 1
gen_frames = 4
class_threshold = 0.0
seed = 3
"""


def _corrupt_inputs(work: Path, clip: Path):
    """A clip whose manifest holds a byte that is not UTF-8, and a training
    corpus whose one clip has NaN pixels."""
    shutil.copytree(clip, work / "corrupt")
    mpath = work / "corrupt" / "manifest.json"
    mpath.write_bytes(b"\xff" + mpath.read_bytes())
    nan_clip = work / "nan" / "train" / clip.name
    shutil.copytree(clip, nan_clip)
    entry = next(b for b in json.loads((nan_clip / "manifest.json").read_text())["blocks"] if b["name"] == "frames")
    with open(nan_clip / "tensors.bin", "r+b") as fh:
        fh.seek(entry["offset"])
        fh.write(b"\xff" * entry["nbytes"])  # float32 NaN


def trace_commands(work: Path) -> set:
    """(file, first line, name) of every code object under `src/rcfvis` that
    the commands entered."""
    cfg = work / "tiny.cfg"
    cfg.write_text(TINY)
    (work / "not_utf8.cfg").write_bytes(TINY.encode() + b"seed = 4\xff\n")
    data, run = work / "data", work / "run"
    ckpt, clip = str(run / "ckpt_final"), str(data / "val" / "clip_00000")
    flags = ["--config", str(cfg)]
    runs = [
        ["gen-data", *flags, "--out", str(data)],
        ["train", *flags, "--data", str(data), "--out", str(run), "--set", "iter_max=3", "--set", "ckpt_every=2"],
        ["eval", "--ckpt", ckpt, "--data", str(data), "--out", str(work / "eval.csv")],
        ["infer", "--ckpt", ckpt, "--clip", clip, "--out", str(work / "pred")],
        ["dump-attention", "--ckpt", ckpt, "--clip", clip, "--frame", "1", "--out", str(work / "attn")],
        ["eval", "--ckpt", ckpt, "--data", str(data), "--split", "probe", "--out", str(work / "probe.csv")],
        ["bench-latency", "--fps-stream", "6", "--fps-model", "89.4"],
    ]
    failures = [
        (2, ["gen-data", "--config", str(work / "not_utf8.cfg"), "--out", str(work / "none")]),
        (3, ["infer", "--ckpt", ckpt, "--clip", str(work / "corrupt"), "--out", str(work / "corrupt_pred")]),
        (3, ["train", *flags, "--data", str(work / "nan"), "--out", str(work / "nan_run"), "--set", "iter_max=1"]),
        (4, ["train", *flags, "--data", str(data), "--out", str(work / "diverged"), "--set", "lr0=1", "--set", "iter_max=3"]),
    ]

    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        from rcfvis import cli

        def run_expecting(want, argv):
            got = cli.main(argv)
            if got != want:
                raise SystemExit(f"{' '.join(argv)} exited {got}, expected {want}")

        for argv in runs:
            run_expecting(0, argv)
        _corrupt_inputs(work, Path(clip))
        for want, argv in failures:
            run_expecting(want, argv)
    finally:
        sys.settrace(previous)
    return {
        (Path(c.co_filename).name, c.co_firstlineno, c.co_name)
        for c in entered
        if c.co_flags & inspect.CO_OPTIMIZED and Path(c.co_filename).resolve().parent == PACKAGE
    }


def code_objects():
    """(file, first line, name) -> qualified name of each function, method,
    closure, lambda and comprehension in `src/rcfvis`."""
    found = {}

    def walk(code, path, qualname, in_function):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            function = bool(const.co_flags & inspect.CO_OPTIMIZED)
            name = f"{qualname}{'.<locals>' if in_function else ''}.{const.co_name}".lstrip(".")
            if function:
                found[(path.name, const.co_firstlineno, const.co_name)] = name
            walk(const, path, name, function)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, "", False)
    return found


def _entered(tmp_path) -> set:
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    return {tuple(key) for key in json.loads((tmp_path / "entered.json").read_text())}


def test_every_code_object_runs_under_some_command(tmp_path):
    objects = code_objects()
    assert len(objects) > 300  # the scan found the package
    entered = _entered(tmp_path)
    assert entered <= objects.keys()
    labels = {key: f"{key[0]} {qualname}" for key, qualname in objects.items()}
    for entry, reason in ALLOWED.items():
        assert reason
        keys = {key for key, label in labels.items() if label == entry}
        assert keys, f"{entry} is gone; drop it from the allowlist"
        assert not keys & entered, f"{entry} runs under a command now; drop it from the allowlist"
    dead = sorted(key for key in objects.keys() - entered if labels[key] not in ALLOWED)
    assert not dead, "entered by no command: " + ", ".join(f"{f}:{line} {objects[f, line, n]}" for f, line, n in dead)


if __name__ == "__main__":
    work = Path(sys.argv[1])
    sys.path.insert(0, str(SRC))
    keys = trace_commands(work)
    (work / "entered.json").write_text(json.dumps(sorted(keys)))
