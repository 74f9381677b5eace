"""The runs of tests/same_outputs.py, its route, fit and division
hashes on coarse grids, and its comparison on two small output trees."""

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
    # four routes (u, then the sups), the lattice and three stencils per
    # spacing of the first list, the lattice and the stencils alone per
    # spacing of the second (by default h = 1/512), the same lines on a
    # second run
    hashes = _same_outputs().route_hashes
    assert hashes.__defaults__[1] == (1 / 512,)
    lines = hashes((1 / 16, 1 / 32), (1 / 64,))
    fields = ["pompeiu", "dbar_fd", "d_fd", "dbar_fd_onesided"]
    assert [ln.split(" h=")[0] for ln in lines] == 2 * [
        "pou", "pou", "poly", "poly", "g^5", "g^5", "g^12", "g^12",
        *fields] + fields
    assert [ln.split(" h=")[1].split()[0] for ln in lines[24:]] == 4 * [
        "0.015625"]
    assert [ln.split()[2] for ln in lines[:8]] == 4 * ["u", "sups"]
    assert hashes((1 / 32,), (1 / 64,)) == lines[12:]


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


def test_division_hashes_name_every_run_and_battery_item_once():
    # seven division runs (a hash per field, then the report's) and the
    # battery's six items (the certificate at the power, then one
    # below), the same lines on a second run
    hashes = _same_outputs().division_hashes
    lines = hashes(1 / 32, 1 / 32, 1 / 32)
    runs = [ln.split(" h=") for ln in lines[:7]]
    assert [head for head, _ in runs] == [
        "division continuous", "division c1 power=2", "division c1 power=3",
        "division c1 two zeros", "division lemma power=2",
        "division lemma power=4", "division lemma power=7"]
    fields = [tail.split()[1:-2] for _, tail in runs]
    assert [len(f) for f in fields] == [2, 1, 1, 2, 1, 1, 1]
    assert all(tail.split()[-2] == "report" for _, tail in runs)
    assert [ln.split()[:2] for ln in lines[7:]] == [
        ["battery", name] for name in (
            "boundary_values", "first_derivatives", "holomorphic_values",
            "holomorphic_derivatives,_chain", "holomorphic_derivatives",
            "dbar_derivatives")]
    assert all(len(ln.split()) == 4 for ln in lines[7:])
    assert hashes(1 / 32, 1 / 32, 1 / 32) == lines


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
