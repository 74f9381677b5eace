"""The runs of tests/same_outputs.py, its route and fit hashes on
coarse grids, and its comparison on two small output trees."""

import importlib.util
from pathlib import Path


def _same_outputs():
    path = Path(__file__).with_name("same_outputs.py")
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_are_the_shipped_configs_and_the_battery():
    # the battery is the one output no shipped config makes
    root = Path(__file__).resolve().parents[1]
    runs = _same_outputs().cli_runs(root)
    configs = sorted((root / "configs").glob("*.ini"))
    assert [name for name, _ in runs] == [
        *(p.stem for p in configs), "sharpness"]
    assert runs[-1][1] == ["sharpness"]
    assert all(args[1:] == ["--config", str(p)]
               for (_, args), p in zip(runs, configs))


def test_route_hashes_name_every_route_and_stencil_once_per_spacing():
    # four routes (u, then the sups) and three stencils per spacing,
    # the same lines on a second run
    hashes = _same_outputs().route_hashes
    lines = hashes((1 / 16, 1 / 32))
    assert [ln.split(" h=")[0] for ln in lines] == 2 * [
        "pou", "pou", "poly", "poly", "g^5", "g^5", "g^12", "g^12",
        "dbar_fd", "d_fd", "dbar_fd_onesided"]
    assert [ln.split()[2] for ln in lines[:8]] == 4 * ["u", "sups"]
    assert hashes((1 / 32,)) == lines[11:]


def test_fit_hashes_name_every_run_twice_per_spacing():
    # two compacta per spacing of the first list, two unit-disk pairs
    # per spacing of the second, each a fits line and an x line (or the
    # error twice), the same lines on a second run
    hashes = _same_outputs().fit_hashes
    lines = hashes((1 / 16,), (1 / 16, 1 / 32))
    heads = [ln.split(" h=")[0] for ln in lines]
    assert heads == 2 * ["fits quartic disk1.2"] + 2 * ["fits quartic sector"] \
        + 2 * (2 * ["fits linear disk"] + 2 * ["fits quartic disk"])
    assert [ln.split()[4] for ln in lines[4:]] == 4 * ["fits", "x"]
    # a fits line holds degree, sup_error, cond and coef hash per field
    assert len(lines[4].split()) == 5 + 2 * 4
    assert hashes((), (1 / 32,)) == lines[8:]


def _tree(root: Path, stamp: str, body: str) -> Path:
    run = root / "corona_linear"
    run.mkdir(parents=True)
    (run / "corona.csv").write_text(
        f"# corona generated {stamp}\nlevel,h\n0,{body}\n")
    (run / "summary.txt").write_text("corona: PASS\n")
    (run / "exit_status").write_text("0\n")
    (root / "acceptance.txt").write_text("criterion 1 (dbar solver): PASS\n")
    return root


def test_a_changed_stamp_line_is_ignored(tmp_path):
    compare = _same_outputs().compare_trees
    old = _tree(tmp_path / "old", "2026-01-01T00:00:00+00:00", "0.015625")
    new = _tree(tmp_path / "new", "2026-06-30T12:34:56+00:00", "0.015625")
    assert compare(old, new) == []


def test_a_changed_body_byte_is_reported(tmp_path):
    compare = _same_outputs().compare_trees
    old = _tree(tmp_path / "old", "2026-01-01T00:00:00+00:00", "0.015625")
    new = _tree(tmp_path / "new", "2026-01-01T00:00:00+00:00", "0.015626")
    (new / "acceptance.txt").write_text("criterion 1 (dbar solver): FAIL\n")
    (new / "extra.txt").write_text("")
    messages = compare(old, new)
    assert len(messages) == 3
    assert messages[0].startswith("acceptance.txt: 1 line(s) differ, "
                                  "first line 1:")
    assert messages[1].startswith(
        "corona_linear/corona.csv: 1 line(s) differ, first line 3: "
        "b'0,0.015625' -> b'0,0.015626'")
    assert messages[2] == "extra.txt: only in the new tree"
