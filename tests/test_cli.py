"""CLI integration tests on a miniature configuration: every subcommand,
exit codes, output layouts, and byte-level determinism."""

import argparse
import json
import shutil
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from patmod import cli, data
from patmod.errors import ConfigError
from patmod.model import MINI_CONFIG, ModelConfig, PatternModel, load_checkpoint, save_checkpoint, to_flat
from patmod.runconfig import RunConfig, load_run_config
from patmod.training import SWEEP_PARAMETERS, TrainConfig

MINI_CFG = """
s_points=48
f_points=48
regions=8
patterns=2
pattern_points=16
image_feat=16
region_feat=8
image_size=16
conv_channels=4,4,8,8,8,8,8
train_per_class=2
test_per_class=1
epochs=1
batch_size=2
seed=1
"""

# the desk-scale session of the README
DESK_CFG = """
s_points=256
f_points=256
patterns=4
pattern_points=64
image_feat=128
region_feat=32
image_size=32
conv_channels=8,8,16,16,32,32,32
epochs=10
dataset_dir=dataset
out_dir=run
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "mini.cfg"
    cfg.write_text(MINI_CFG + f"dataset_dir={root / 'ds'}\nout_dir={root / 'run'}\n")
    assert cli.main(["gen-data", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return root, cfg


def test_gen_data_layout(workspace):
    root, _ = workspace
    manifest = root / "ds" / "manifest.jsonl"
    records = data.read_manifest(manifest)
    # 3 seen * 2 train + 3 seen * 1 test + 2 unseen * 1 test
    assert len(records) == 11
    splits = {r["split"] for r in records}
    assert splits == {"train", "test_seen", "test_unseen"}
    assert (root / "ds" / "config_resolved.txt").exists()


def test_gen_data_refuses_overwrite(workspace):
    root, cfg = workspace
    assert cli.main(["gen-data", "--config", str(cfg)]) == 3
    assert cli.main(["gen-data", "--config", str(cfg), "--force"]) == 0


def test_manifest_line_count_matches_samples(workspace):
    root, _ = workspace
    lines = (root / "ds" / "manifest.jsonl").read_text().strip().splitlines()
    assert len(lines) == 11


def test_train_outputs(workspace):
    root, _ = workspace
    out = root / "run"
    assert (out / "checkpoint.pmod").exists()
    assert (out / "config_resolved.txt").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[1].startswith("epoch,split,class")
    data_rows = lines[2:]
    assert len(data_rows) == 1  # one epoch -> one train row


def test_train_refuses_overwrite_without_force(workspace):
    _, cfg = workspace
    assert cli.main(["train", "--config", str(cfg)]) == 3


def test_train_ablation_flag_echoed(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "ablat"
    code = cli.main(["train", "--config", str(cfg), "--no-shift", "--out", str(out)])
    assert code == 0
    resolved = (out / "config_resolved.txt").read_text()
    assert "no_shift=True" in resolved


def test_train_determinism_modulo_wall_clock(workspace, tmp_path):
    _, cfg = workspace
    outputs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        outputs.append(out)
    a, b = outputs
    assert (a / "checkpoint.pmod").read_bytes() == (b / "checkpoint.pmod").read_bytes()
    assert _mask_wall(a / "metrics.csv") == _mask_wall(b / "metrics.csv")


def _mask_wall(path):
    """Metrics rows minus the wall-clock column (the one nondeterministic field)."""
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("epoch"):
            rows.append(line)
        else:
            rows.append(",".join(line.split(",")[:-1]))
    return rows


def test_eval_schema_and_split_filter(workspace, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.pmod"
    out = tmp_path / "eval"
    assert cli.main([
        "eval", "--config", str(cfg), "--checkpoint", str(ckpt),
        "--split", "unseen", "--out", str(out),
    ]) == 0
    lines = (out / "eval_unseen.csv").read_text().splitlines()
    assert lines[1] == "epoch,split,class,cd_eval,iou,loss_shape,loss_region,loss_total,wall_ms"
    classes = [row.split(",")[2] for row in lines[2:]]
    assert classes == ["ring", "sofa_block", "mean"]  # unseen classes only


def test_eval_with_downsampling(workspace, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.pmod"
    out = tmp_path / "eval_ds"
    assert cli.main([
        "eval", "--config", str(cfg), "--checkpoint", str(ckpt),
        "--split", "seen", "--points", "16", "--out", str(out),
    ]) == 0


@pytest.mark.parametrize("flags", [["--set", "eval_points=-3"], ["--points", "-5"]], ids=["set", "points"])
def test_negative_eval_points_exit_2(workspace, tmp_path, flags):
    root, cfg = workspace
    out = tmp_path / "neg"
    assert cli.main([
        "eval", "--config", str(cfg), "--checkpoint", str(root / "run" / "checkpoint.pmod"),
        "--split", "seen", "--out", str(out), *flags,
    ]) == 2
    assert not out.exists()


def test_points_flag_overrides_eval_points():
    args = cli._build_parser().parse_args(
        ["eval", "--checkpoint", "c.pmod", "--set", "eval_points=8", "--points", "16"]
    )
    assert cli._resolve(args).eval_points == 16
    with pytest.raises(ConfigError, match="eval_points"):
        load_run_config(None, {"eval_points": "-1"})


def test_eval_refuses_overwrite_without_force(workspace, tmp_path):
    root, cfg = workspace
    argv = [
        "eval", "--config", str(cfg), "--checkpoint", str(root / "run" / "checkpoint.pmod"),
        "--split", "unseen", "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    csv = tmp_path / "eval_unseen.csv"
    csv.write_text("earlier result")
    assert cli.main(argv) == 3
    assert csv.read_text() == "earlier result"
    assert cli.main(argv + ["--force"]) == 0
    assert csv.read_text().startswith("# cd_eval")
    # the model config comes from the checkpoint; the training run keeps its echo
    assert sorted(f.name for f in tmp_path.iterdir()) == ["eval_unseen.csv"]


def test_reconstruct_outputs_and_determinism(workspace, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.pmod"
    image = next((root / "ds" / "test_seen").glob("*.pgm"))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main([
            "reconstruct", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--image", str(image), "--out", str(out), "--dump-trace",
        ]) == 0
        outs.append(out)
    a, b = outs
    cloud = data.read_xyz(a / "reconstruction.xyz")
    assert 0 < cloud.shape[0] <= 48  # kept rows only; mini capacity may truncate
    assert (a / "reconstruction.xyz").read_bytes() == (b / "reconstruction.xyz").read_bytes()
    assert len(list(a.glob("pattern_*.xyz"))) == 2
    assert (a / "initial_prediction.xyz").exists()
    ply = (a / "reconstruction.ply").read_bytes()
    assert f"element vertex {cloud.shape[0]}\n".encode() in ply.split(b"end_header\n")[0]
    assert len(ply.split(b"end_header\n", 1)[1]) == 12 * cloud.shape[0]


def test_dump_trace_writes_the_kept_rows_of_each_nonempty_region(tmp_path):
    """--dump-trace writes the reconstruction's own trace: R' and U files for
    each nonempty region only, holding its kept rows, and the U rows in region
    order are the reconstruction."""
    ckpt = tmp_path / "mini.pmod"
    save_checkpoint(ckpt, PatternModel(ModelConfig(**MINI_CONFIG), seed=4))
    image = tmp_path / "img.pgm"
    data.write_pgm(image, np.full((1, 8, 8), 0.5))
    model, _ = load_checkpoint(ckpt)
    counts = model.reconstruct(data.read_pgm(image)).split.counts.tolist()
    assert 0 in counts and max(counts) > MINI_CONFIG["pattern_points"]  # an empty and a two-pattern region
    out = tmp_path / "out"
    argv = ["reconstruct", "--checkpoint", str(ckpt), "--image", str(image), "--out", str(out), "--dump-trace"]
    assert cli.main(argv) == 0
    nonempty = [m for m, k in enumerate(counts) if k]
    for kind in ("modularized", "customized"):
        assert sorted(out.glob(f"{kind}_region_*.xyz")) == [out / f"{kind}_region_{m}.xyz" for m in nonempty]
        assert [len(data.read_xyz(out / f"{kind}_region_{m}.xyz")) for m in nonempty] == [counts[m] for m in nonempty]
    customized = np.vstack([data.read_xyz(out / f"customized_region_{m}.xyz") for m in nonempty])
    np.testing.assert_array_equal(customized, data.read_xyz(out / "reconstruction.xyz"))


def test_reconstruct_unreadable_image(workspace, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.pmod"
    missing = tmp_path / "missing.pgm"
    assert cli.main([
        "reconstruct", "--config", str(cfg), "--checkpoint", str(ckpt),
        "--image", str(missing), "--out", str(tmp_path / "x"),
    ]) == 3


def test_interpolate_endpoints_match_reconstruct(workspace, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.pmod"
    images = sorted((root / "ds" / "train").glob("*.pgm"))[:2]
    out = tmp_path / "interp"
    assert cli.main([
        "interpolate", "--config", str(cfg), "--checkpoint", str(ckpt),
        "--image-a", str(images[0]), "--image-b", str(images[1]),
        "--steps", "5", "--out", str(out),
    ]) == 0
    files = sorted(out.glob("interp_*.xyz"))
    assert [f.name for f in files] == [
        "interp_0.000.xyz", "interp_0.250.xyz", "interp_0.500.xyz",
        "interp_0.750.xyz", "interp_1.000.xyz",
    ]
    rec = tmp_path / "endpoint"
    assert cli.main([
        "reconstruct", "--config", str(cfg), "--checkpoint", str(ckpt),
        "--image", str(images[0]), "--out", str(rec),
    ]) == 0
    assert (out / "interp_0.000.xyz").read_bytes() == (rec / "reconstruction.xyz").read_bytes()


def test_interpolate_two_steps_endpoints_only(workspace, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.pmod"
    images = sorted((root / "ds" / "train").glob("*.pgm"))[:2]
    out = tmp_path / "interp2"
    assert cli.main([
        "interpolate", "--config", str(cfg), "--checkpoint", str(ckpt),
        "--image-a", str(images[0]), "--image-b", str(images[1]),
        "--steps", "2", "--out", str(out),
    ]) == 0
    assert sorted(f.name for f in out.glob("*.xyz")) == ["interp_0.000.xyz", "interp_1.000.xyz"]


@pytest.mark.parametrize("command", ["reconstruct", "interpolate"])
@pytest.mark.parametrize("flags", [{}, {"no_local": True}], ids=["full", "no_local"])
def test_echo_describes_the_checkpoint_model(tmp_path, command, flags):
    """Without --config the run config holds the paper defaults; the echo
    must hold the model that was loaded and ran."""
    ckpt = tmp_path / "mini.pmod"
    save_checkpoint(ckpt, PatternModel(ModelConfig(**{**MINI_CONFIG, "pattern_extent": 0.3, **flags}), seed=0))
    model, _ = load_checkpoint(ckpt)
    image = tmp_path / "img.pgm"
    data.write_pgm(image, np.full((1, 8, 8), 0.5))
    out = tmp_path / "out"
    argv = [command, "--checkpoint", str(ckpt), "--out", str(out)]
    if command == "reconstruct":
        argv += ["--image", str(image)]
    else:
        argv += ["--image-a", str(image), "--image-b", str(image), "--steps", "2"]
    assert cli.main(argv) == 0
    echo = load_run_config(out / "config_resolved.txt")
    assert echo.model == model.config


def test_sweep_row_per_value(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "sweep"
    assert cli.main([
        "sweep", "--config", str(cfg), "--parameter", "sampling_mode",
        "--values", "voxel,plane", "--out", str(out),
    ]) == 0
    lines = (out / "sweep_sampling_mode.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,cd_seen,cd_unseen"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "parameter, value",
    [("M", "6"), ("M", "1.5"), ("alpha", "abc")],
    ids=["impossible_M", "fractional_M", "non_numeric_alpha"],
)
def test_sweep_all_invalid_exit_2(workspace, tmp_path, parameter, value):
    """Each value is skipped with a warning, then the sweep exits 2 before
    it writes anything."""
    root, cfg = workspace
    out = tmp_path / "badsweep"
    assert cli.main([
        "sweep", "--config", str(cfg), "--parameter", parameter,
        "--values", value, "--out", str(out),
    ]) == 2
    assert list(out.iterdir()) == []


def test_sweep_empty_test_split_exit_2_before_training(workspace, tmp_path, caplog, monkeypatch):
    """A dataset without unseen classes has no test_unseen samples; the sweep
    exits as eval does for an empty split, before it trains or writes."""
    _, cfg = workspace
    ds, out = tmp_path / "ds", tmp_path / "out"
    assert cli.main(["gen-data", "--config", str(cfg), "--dataset", str(ds), "--set", "unseen_classes="]) == 0
    monkeypatch.setattr(cli, "sweep", lambda *args: pytest.fail("the sweep trained"))
    argv = ["sweep", "--config", str(cfg), "--dataset", str(ds), "--out", str(out), "--parameter", "alpha",
            "--values", "0.1"]
    assert cli.main(argv) == 2
    assert "no samples in split 'unseen'" in caplog.text
    assert not out.exists()


def test_diverging_training_exit_4_keeps_last_good_parameters(workspace, tmp_path, caplog):
    """A learning rate that drives the parameters non-finite ends training
    with exit 4: the last good parameters are dumped, and no final
    checkpoint or metrics file is written."""
    _, cfg = workspace
    out = tmp_path / "out"
    argv = ["train", "--config", str(cfg), "--out", str(out), "--set", "lr=1e300", "--set", "epochs=3"]
    assert cli.main(argv) == 4
    assert "numerical abort" in caplog.text
    assert sorted(f.name for f in out.iterdir()) == ["abort_last_good.pmod", "config_resolved.txt"]
    load_checkpoint(out / "abort_last_good.pmod")


def test_last_step_that_blows_up_exit_4_writes_no_checkpoint(workspace, tmp_path, caplog):
    """Six samples at batch size 6 make one Adam step, and at lr 1e300 it
    leaves the parameters huge: the forward pass checked before the save
    ends training with exit 4, so no checkpoint of the blown-up model is
    written."""
    _, cfg = workspace
    out = tmp_path / "out"
    argv = ["train", "--config", str(cfg), "--out", str(out),
            "--set", "lr=1e300", "--set", "epochs=1", "--set", "batch_size=6"]
    assert cli.main(argv) == 4
    assert "non-finite values in image feature" in caplog.text
    assert sorted(f.name for f in out.iterdir()) == ["abort_last_good.pmod", "config_resolved.txt"]


def test_unknown_config_key_exit_2(workspace, tmp_path):
    _, cfg = workspace
    assert cli.main(["train", "--config", str(cfg), "--set", "nope=1", "--out", str(tmp_path / "x")]) == 2


def test_bad_config_file_exit_2(tmp_path, caplog):
    """A line without '=' and bytes that are not UTF-8 each end the command
    with exit 2 and a message naming the file and line, before it writes."""
    cfg, ds = tmp_path / "bad.cfg", tmp_path / "ds"
    for content in (b"epochs: 5\n", b"\xff\xfe\x00bad"):
        cfg.write_bytes(content)
        caplog.clear()
        assert cli.main(["gen-data", "--config", str(cfg), "--dataset", str(ds)]) == 2
        assert f"{cfg}:1" in caplog.text
    assert not ds.exists()


def test_missing_dataset_exit_3(workspace, tmp_path):
    _, cfg = workspace
    assert cli.main([
        "train", "--config", str(cfg), "--dataset", str(tmp_path / "void"),
        "--out", str(tmp_path / "y"),
    ]) == 3


@pytest.mark.parametrize(
    "target, payload",
    [
        ("manifest", lambda rec: b"[1, 2]"),
        ("manifest", lambda rec: json.dumps({k: v for k, v in rec.items() if k != "seed"}).encode()),
        ("manifest", lambda rec: b"\xff\xfe\x00"),
        ("image_path", lambda rec: b"P5\n-8 -8\n255\n" + bytes(64)),
        ("cloud_path", lambda rec: b"0 0 0\nnan nan nan\n"),
        ("cloud_path", lambda rec: b""),
        ("cloud_path", lambda rec: b"0 0 0\n1e200 0 0\n"),
        ("cloud_path", lambda rec: b"\xff\xfe\x00"),
    ],
    ids=["manifest_not_object", "manifest_missing_seed", "manifest_not_utf8", "pgm_negative_size", "xyz_nan",
         "xyz_empty", "xyz_huge", "xyz_not_utf8"],
)
def test_bad_dataset_input_exit_3(workspace, tmp_path, caplog, target, payload):
    """A bad manifest record, image header or cloud file in the first
    train record ends training with exit 3 and a message naming the file,
    before any output is written."""
    root, cfg = workspace
    ds = tmp_path / "ds"
    shutil.copytree(root / "ds", ds)
    manifest = ds / "manifest.jsonl"
    lineno, rec = next((n, r) for n, r in enumerate(data.read_manifest(manifest), 1) if r["split"] == "train")
    if target == "manifest":
        lines = manifest.read_bytes().splitlines()
        lines[lineno - 1] = payload(rec)
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        named = f"manifest.jsonl:{lineno}"
    else:
        (ds / rec[target]).write_bytes(payload(rec))
        named = rec[target].split("/")[-1]
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(out)]) == 3
    assert named in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "reconstruct", "interpolate"])
def test_wrong_image_size_exit_2_before_any_output(workspace, tmp_path, caplog, command):
    """An input image whose size is not the model's image_size ends the
    command with exit 2 and a message naming the file, before any output
    is written."""
    root, cfg = workspace
    ds = tmp_path / "ds"
    shutil.copytree(root / "ds", ds)
    split = "test_seen" if command == "eval" else "train"
    good, bad = [ds / r["image_path"] for r in data.read_manifest(ds / "manifest.jsonl") if r["split"] == split][:2]
    data.write_pgm(bad, np.full((1, 8, 8), 0.5))  # the model takes 16 x 16
    ckpt = str(root / "run" / "checkpoint.pmod")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--dataset", str(ds), "--out", str(out)] + {
        "train": [],
        "eval": ["--checkpoint", ckpt],
        "sweep": ["--parameter", "alpha", "--values", "0.1"],
        "reconstruct": ["--checkpoint", ckpt, "--image", str(bad)],
        "interpolate": ["--checkpoint", ckpt, "--image-a", str(good), "--image-b", str(bad), "--steps", "2"],
    }[command]
    assert cli.main(argv) == 2
    assert f"{bad.name}: image shape (1, 8, 8)" in caplog.text
    assert not out.exists()


def test_non_boolean_set_value_exit_2(workspace, tmp_path):
    _, cfg = workspace
    out = tmp_path / "typo"
    assert cli.main(["train", "--config", str(cfg), "--set", "no_local=ture", "--out", str(out)]) == 2
    assert not (out / "checkpoint.pmod").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_variable_exit_2(workspace, tmp_path, monkeypatch, caplog, value):
    _, cfg = workspace
    monkeypatch.setenv("PATMOD_THREADS", value)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert "PATMOD_THREADS" in caplog.text


@pytest.mark.parametrize(
    "command, sets",
    [
        ("train", ["conv_channels=a,b,c,d,e,f,g"]),
        ("train", ["seen_classes=table", "unseen_classes=table"]),
        ("train", ["image_size=abc"]),
        ("gen-data", ["regions=9"]),
        ("train", ["sampling_mode=plane", "pattern_points=8"]),
        ("train", ["pattern_points=0"]),
        ("train", ["lr=nan"]),
        ("train", ["lr=-1e-4"]),
        ("train", ["alpha=nan"]),
        ("train", ["lr_decay=inf"]),
        ("train", ["decay_every_epochs=0"]),
        ("train", ["seed=-1"]),
        ("train", ["model_seed=-1"]),
        ("train", ["pattern_extent=nan"]),
        ("train", ["pattern_extent=0"]),
        ("train", ["pattern_extent=1e308"]),
        ("gen-data", ["image_size=0"]),
        ("gen-data", ["image_size=-3"]),
        ("gen-data", ["seen_classes=foo"]),
        ("train", ["seen_classes=foo"]),
        ("gen-data", ["seen_classes=table,table"]),
        ("train", ["seen_classes=table,table"]),
        ("gen-data", ["seen_classes="]),
        ("train", ["seen_classes="]),
        ("train", ["no_local=true", "no_l_region=true"]),
        ("train", ["no_local=true", "no_l_shape=true"]),
    ],
    ids=[
        "conv_channels", "class_overlap", "image_size", "gen_data_regions", "plane_lattice", "pattern_points",
        "lr_nan", "lr_negative", "alpha_nan", "lr_decay_inf", "decay_every_epochs", "seed", "model_seed",
        "pattern_extent_nan", "pattern_extent_zero", "pattern_extent_huge",
        "gen_data_image_size_zero", "gen_data_image_size_negative",
        "gen_data_unknown_class", "unknown_class", "gen_data_repeated_class", "repeated_class",
        "gen_data_no_seen_class", "no_seen_class", "no_local_with_no_l_region", "no_local_with_no_l_shape",
    ],
)
def test_bad_set_value_exit_2_before_any_output(workspace, tmp_path, command, sets):
    """The whole config is resolved and checked before a command writes;
    main returns the exit code, so no traceback reaches the user."""
    _, cfg = workspace
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "gen-data":  # it writes into the dataset directory
        argv += ["--dataset", str(tmp_path / "ds")]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sets, field",
    [
        (["patterns=0"], "patterns"),
        (["regions=0"], "regions"),
        (["s_points=0", "f_points=0"], "s_points"),
        (["image_feat=0"], "image_feat"),
        (["region_feat=-1"], "region_feat"),
        (["image_channels=0"], "image_channels"),
        (["conv_channels=4,4,0,8,8,8,8"], "conv_channels[2]"),
    ],
    ids=["patterns", "regions", "s_points", "image_feat", "region_feat", "image_channels", "conv_channel"],
)
def test_impossible_model_size_exit_2_naming_field(workspace, tmp_path, caplog, sets, field):
    """A model size below one is a config error found before any output."""
    _, cfg = workspace
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert f"{field} must be >= 1" in caplog.text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "key, value, low",
    [
        ("batch_size", "0", 1), ("epochs", "-1", 0), ("checkpoint_every", "-1", 0), ("threads", "0", 1),
        ("train_per_class", "0", 1), ("test_per_class", "-2", 1),
    ],
)
def test_impossible_training_count_exit_2_naming_field(workspace, tmp_path, caplog, key, value, low):
    """A training count below its floor is named with its value before any output."""
    _, cfg = workspace
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out"), "--set", f"{key}={value}"]
    assert cli.main(argv) == 2
    assert f"{key} must be >= {low}, got {value}" in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_each_config_key_has_one_owner():
    """No key is declared by two parts of the run configuration, so a key
    sets exactly one setting."""
    nested = {"model", "train", "split"}
    key_sets = [
        {f.name for f in fields(ModelConfig)},
        {f.name for f in fields(TrainConfig)},
        {f.name for f in fields(data.DatasetSplit)},
        {f.name for f in fields(RunConfig)} - nested,
    ]
    for a, b in combinations(key_sets, 2):
        assert not a & b, sorted(a & b)
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    aliases = {a.dest for sub in commands.values() for a in sub._actions if a.dest.startswith(cli.ALIAS)}
    assert aliases and {dest[len(cli.ALIAS):] for dest in aliases} <= set().union(*key_sets)


# every key whose text is parsed to a type or checked; dataset_dir and out_dir take any non-empty path
TYPED_KEYS = sorted(to_flat(RunConfig()).keys() - {"dataset_dir", "out_dir"})


def _error_of(caplog, argv) -> str:
    caplog.clear()
    assert cli.main(argv) == 2
    return caplog.records[-1].getMessage()


@pytest.mark.parametrize("key", TYPED_KEYS)
def test_bad_value_same_message_from_file_and_set(tmp_path, caplog, key):
    """A bad value exits 2 with one message naming the key, whether it comes
    from a config file line or a --set item, and nothing is written."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key}=abc\n")
    argv = ["train", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]
    from_file = _error_of(caplog, argv + ["--config", str(bad)])
    assert key in from_file
    assert _error_of(caplog, argv + ["--set", f"{key}=abc"]) == from_file
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_sweep_skips_a_bad_value_with_the_set_message(workspace, tmp_path, caplog, parameter):
    _, cfg = workspace
    key = SWEEP_PARAMETERS[parameter]
    message = _error_of(caplog, ["train", "--config", str(cfg), "--out", str(tmp_path / "t"), "--set", f"{key}=abc"])
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--parameter", parameter, "--values", "abc"]
    _error_of(caplog, argv)
    assert f"skipping {parameter}='abc': {message}" in caplog.text


@pytest.mark.parametrize(
    "command, flag, key",
    [("train", "--seed", "seed"), ("train", "--epochs", "epochs"), ("eval", "--points", "eval_points")],
)
def test_zero_flag_overrides_an_earlier_set(command, flag, key):
    argv = [command, "--set", f"{key}=5", flag, "0"] + (["--checkpoint", "c.pmod"] if command == "eval" else [])
    cfg = cli._resolve(cli._build_parser().parse_args(argv))
    assert to_flat(cfg)[key] == "0"


def test_repeated_key_exit_2_naming_both_places(tmp_path, caplog):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("regions=8\n# the same key again\nregions=27\n")
    argv = ["train", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]
    assert _error_of(caplog, argv + ["--config", str(cfg)]) == f"{cfg}:3: 'regions' is already set at {cfg}:1"
    sets = ["--set", "lr=1e-3", "--set", "epochs=2", "--set", " lr =1e-2"]
    assert _error_of(caplog, argv + sets) == "--set:3: 'lr' is already set at --set:1"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flag", ["--out", "--dataset"])
def test_empty_path_exit_2(workspace, tmp_path, monkeypatch, caplog, flag):
    """An empty path would be the working directory; it is refused before
    anything is written there."""
    _, cfg = workspace
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--config", str(cfg), flag, ""]) == 2
    assert "must not be empty" in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_set_item_is_stripped_as_a_file_line(tmp_path):
    (tmp_path / "lr.cfg").write_text(" lr = 1e-3 \n")
    args = cli._build_parser().parse_args(["train", "--set", " lr = 1e-3 "])
    assert cli._resolve(args) == load_run_config(tmp_path / "lr.cfg")
    assert cli._resolve(args).train.lr == 1e-3


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_each_split_manifest_is_read_once(workspace, tmp_path, monkeypatch, command):
    """train loads one split and sweep three; each reads the manifest once."""
    _, cfg = workspace
    reads = []
    read_manifest = data.read_manifest
    monkeypatch.setattr(data, "read_manifest", lambda path: reads.append(path) or read_manifest(path))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--parameter", "alpha", "--values", "0.1"]
    assert cli.main(argv) == 0
    assert len(reads) == {"train": 1, "sweep": 3}[command]


@pytest.mark.parametrize("text", [MINI_CFG, DESK_CFG], ids=["mini", "readme_desk"])
def test_resolved_config_round_trip(tmp_path, text):
    (tmp_path / "run.cfg").write_text(text)
    cfg = load_run_config(tmp_path / "run.cfg", {"no_shift": "true"})
    cfg.write(tmp_path / "config_resolved.txt")
    assert load_run_config(tmp_path / "config_resolved.txt") == cfg


def test_resolved_config_echoes_parsed_values():
    text = load_run_config(None, {"seen_classes": "table,,chair"}).to_text()
    assert "\nseen_classes=table,chair\n" in text
