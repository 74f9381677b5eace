"""End-to-end checks of the command-line front end.

Exit-code contract: 0 clean, 1 config problems (including malformed
expressions, reported with a character position), 2 violated module
preconditions, 3 failed acceptance checks.  Everything runs in-process
through main() so stderr and exit codes stay observable.
"""

import ast
import inspect
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from dbarkit import cli
from dbarkit.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_OK,
                         EXIT_PRECONDITION, ConfigError, load_config, main,
                         refinement_study, run, sharpness_battery)
from dbarkit.division import FAIL, PASS
from dbarkit.domains import load_mask
from dbarkit.expr import MAX_NESTING

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def body(csv_path):
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("# ")
    return lines[1:]


# ------------------------------------------------------------ exit codes


def test_malformed_expression_exits_1_with_position(tmp_path, capsys):
    cfg = write(tmp_path, "[corona]\nf = sub(1, z)), z\n")
    assert main(["corona", "--config", cfg]) == EXIT_CONFIG
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "pow(z, 1e400)", "add(z, 1e400)", "div(z, 0)", "pow(0, -1)",
    "div(1, sub(1, 1))", "pow(2, 1e20)", "pow(1e200, 2)", "mul(1e200, 1e200)"])
def test_constant_errors_in_expressions_exit_1_with_position(capsys, text):
    # literals past the float range, constant zero denominators and
    # constant powers that overflow are malformed expressions
    rc = main(["divide", "--f", text, "--g", "z", "--power", "1",
               "--class", "C0"])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "config error" in err and "(at position" in err


def _divide_dbar1(tmp_path, f):
    # divide at h = 1/32, set in a config file: argparse reads --h as an
    # abbreviation of --help
    cfg = write(tmp_path, f"[divide]\nf = {f}\ng = z\npower = 1\n"
                          "class = Dbar1\nh = 1/32\n")
    return main(["divide", "--config", cfg, "--out", str(tmp_path)])


@pytest.mark.parametrize("text", [
    "neg(" * 1200 + "z" + ")" * 1200,
    "sub(z, " * 200 + "z" + ")" * 200], ids=["neg-1200", "sub-200"])
def test_over_deep_expressions_exit_1_with_position(tmp_path, capsys, text):
    # past MAX_NESTING levels the parser stops, before Python's recursion
    # limit can stop the parser or the derivative layers
    assert _divide_dbar1(tmp_path, text) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "(at position" in err
    assert f"deeper than {MAX_NESTING} levels" in err


def test_deepest_accepted_expression_runs_dbar1(tmp_path):
    text = "sub(z, " * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert _divide_dbar1(tmp_path, text) == EXIT_OK


def test_missing_config_file_exits_1(capsys):
    assert main(["domains", "--config", "/no/such/file.ini"]) == EXIT_CONFIG


def test_command_mismatch_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\ncommand = corona\n")
    assert main(["cauchy", "--config", cfg]) == EXIT_CONFIG
    assert "declares command" in capsys.readouterr().err


def test_unknown_domain_kind_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "[domain]\nkind = torus\n\n[lconn]\nz0 = 0+0j\n")
    assert main(["lconn", "--config", cfg]) == EXIT_CONFIG


def test_bad_usage_exits_1(capsys):
    # argparse's own usage failures are config errors here, not exit 2
    assert main(["no_such_command"]) == EXIT_CONFIG


def test_domination_violation_exits_2(capsys):
    rc = main(["divide", "--f", "mul(2, z)", "--g", "z",
               "--power", "2", "--class", "C0"])
    assert rc == EXIT_PRECONDITION
    assert "|f| <= |g|" in capsys.readouterr().err


def test_divisor_zero_everywhere_exits_2(capsys):
    # g = 0 puts every node in Z(g), and nothing measured never passes
    rc = main(["divide", "--f", "z", "--g", "0",
               "--power", "3", "--class", "C1"])
    assert rc == EXIT_PRECONDITION
    assert "|f| <= |g| off Z(g): no node" in capsys.readouterr().err


def test_disconnected_probe_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "[domain]\nkind = sector_chain\ncount = 6\n\n"
                          "[lconn]\nz0 = 0+0j\nscales = 0.2 0.05\nh = 1/256\n")
    assert main(["lconn", "--config", cfg]) == EXIT_PRECONDITION
    assert "disconnected" in capsys.readouterr().err


# hypotheses that raise the plain domains.PreconditionError, each with
# the exact line main prints for it
@pytest.mark.parametrize("command, text, line", [
    ("cauchy", "[run]\nlevels = 1/32\n\n[cauchy]\nf = exp(mul(800, z))\n",
     "66 non-finite samples on support, first at "
     "[0.90625-0.40625j 0.90625-0.375j   0.90625-0.34375j]"),
    ("lconn", "[lconn]\npreset = spiral\ndepth = 0.5\n",
     "depth too shallow for the coarsest scale: "
     "theta_max = depth/r must exceed pi + 1"),
    ("taylor", "[taylor]\nf = conj(z)\nz0 = 0.5+0j\nm = 1\n",
     "f must be conjugation-free (holomorphic)"),
    ("taylor", "[taylor]\nf = z\nz0 = 5+0j\nm = 1\n",
     "no interior samples at radius 0.2"),
    ("lconn", "[lconn]\nz0 = 5+0j\n",
     "z0 = 5+0j lies 512 cells from its closest Inside node 1+0j, beyond "
     "the 3-cell hop to z0; z0 must lie on the domain or within its "
     "boundary layer"),
    ("domains", "[domain]\nkind = disk\nradius = 1e300\n",
     "a grid of 10^604 nodes at h = 0.015625 is past numpy's array size "
     "limit; coarsen h or shrink the domain"),
], ids=["cauchy-non-finite", "spiral-too-shallow", "taylor-conj",
        "taylor-no-samples", "lconn-z0-off-domain", "domains-huge-grid"])
def test_plain_preconditions_exit_2(tmp_path, capsys, command, text, line):
    assert main([command, "--config", write(tmp_path, text)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"precondition failed: {line}\n"


@pytest.mark.parametrize("command", ["corona", "bezout"])
def test_generators_that_vanish_everywhere_exit_2(tmp_path, capsys, command):
    cfg = write(tmp_path, f"[run]\nlevels = 1/32\n\n[{command}]\nf = 0, 0\n")
    assert main([command, "--config", cfg]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("precondition failed: common zero at 3209 node(s)")


def test_main_takes_exit_2_from_the_error_class():
    # exactly two handlers, and no list of precondition classes to keep
    # in step with the modules that raise them
    handlers = [ast.unparse(node.type)
                for node in ast.walk(ast.parse(inspect.getsource(main)))
                if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["ConfigError", "(PreconditionError, PoleError)"]
    imported = {alias.name
                for node in ast.walk(ast.parse(inspect.getsource(cli)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {n for n in imported if n.endswith("Error")} \
        == {"ExprParseError", "PoleError", "PreconditionError"}
    assert not hasattr(cli, "PRECONDITION_ERRORS")


def test_failed_acceptance_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\nlevels = 1/32 1/64\n\n"
                          "[corona]\nf = sub(1, z), z\ndbar_tol = 1e-12\n")
    assert main(["corona", "--config", cfg, "--out", str(tmp_path / "out")]) \
        == EXIT_ACCEPTANCE


def test_corona_empty_margin_exits_2(tmp_path, capsys):
    # radius 0.1 leaves no node 0.15 in from the boundary: nothing is
    # measured, so no dbar check can pass on 0 or fail on NaN; the
    # run stops as a violated precondition naming the level
    cfg = write(tmp_path, "[run]\nlevels = 1/64 1/128\n\n"
                          "[domain]\nkind = disk\nradius = 0.1\n\n"
                          "[corona]\nf = sub(1, z), z\n")
    assert main(["corona", "--config", cfg]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("precondition failed: at h = 0.015625 a margin of 10 "
                   "cells leaves 0 nodes to measure dbar_sup on; lower "
                   "physical_margin\n")


@pytest.mark.parametrize("command, metric", [("corona", "dbar_sup"),
                                             ("cauchy", "max_dev")])
def test_comb_margin_leaves_no_node_exits_2(tmp_path, capsys, command,
                                            metric):
    # the comb's base strip is 0.25 tall and its teeth are thinner
    # still: a 0.15 margin (5 cells at 1/32, 10 at 1/64) leaves no node
    # on either level, so no check was made and none may fail
    cfg = write(tmp_path, "[run]\nlevels = 1/32 1/64\n\n"
                          "[domain]\nkind = comb\n\n"
                          "[corona]\nf = sub(1, z), z\n\n[cauchy]\nf = 1\n")
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        f"precondition failed: at h = 0.03125 a margin of 5 cells leaves 0 "
        f"nodes to measure {metric} on; lower physical_margin\n")
    assert not out_dir.exists()


def test_programming_errors_surface(monkeypatch):
    # exit 2 belongs to PreconditionError and PoleError; any other
    # exception, a plain ValueError included, is a bug and main lets it
    # through instead of reporting "precondition failed"
    for error in (TypeError("unsupported operand"),
                  ValueError("math domain error")):
        def broken(cfg, error=error):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "cauchy",
                            cli._COMMANDS["cauchy"]._replace(run=broken))
        with pytest.raises(type(error), match=str(error)):
            main(["cauchy", "--levels", "1"])


# -------------------------------------------------------- config loading


def test_increasing_ladder_rejected(tmp_path):
    cfg = write(tmp_path, "[run]\nlevels = 1/64 1/32\n\n[cauchy]\nf = 1\n")
    assert main(["cauchy", "--config", cfg]) == EXIT_CONFIG


def test_levels_flag_truncates_and_extends():
    cfg = load_config("cauchy", levels=2)
    assert cfg.h_list == (1 / 64, 1 / 128)
    cfg = load_config("cauchy", levels=4)
    assert cfg.h_list == (1 / 64, 1 / 128, 1 / 256, 1 / 512)


def test_default_domain_is_unit_disk():
    cfg = load_config("cauchy")
    assert np.all(cfg.domain.contains(np.array([0j, 0.9j])))
    assert not cfg.domain.contains(1.5 + 0j)


DIVIDE = "[divide]\nf = z\ng = conj(z)\npower = 3\nclass = C1\n"


def test_domain_flag_keeps_section_keys(tmp_path):
    # main hands --domain to load_config as an override like any flag
    cfg = write(tmp_path, "[domain]\nkind = disk\nradius = 0.5\n\n" + DIVIDE)
    config = load_config("divide", config_path=cfg,
                         overrides={"domain": "disk"})
    assert config.domain.radius == 0.5


def test_domain_flag_checks_section_keys_against_kind(tmp_path, capsys):
    cfg = write(tmp_path, "[domain]\nkind = disk\nradius = 0.5\n\n" + DIVIDE)
    assert main(["divide", "--config", cfg, "--domain", "comb"]) == EXIT_CONFIG
    assert "[domain] has unknown key(s) radius" in capsys.readouterr().err


def test_tolerances_must_be_positive(tmp_path):
    cfg = write(tmp_path, "[corona]\nf = z\nresidual_tol = -1\n")
    assert main(["corona", "--config", cfg]) == EXIT_CONFIG


def test_threads_validated(capsys):
    # no worker option exists: orchestration is serial
    assert main(["faa", "--n", "4", "--threads", "2"]) == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("body_text", [
    "[faa]\nn = \n",
    "[faa]\ntrials = fast\n",
    "[run]\ncommand = faa\nseed = 0x\n",
])
def test_non_integer_keys_rejected(tmp_path, capsys, body_text):
    cfg = write(tmp_path, body_text)
    assert main(["faa", "--config", cfg]) == EXIT_CONFIG
    assert "must be an integer" in capsys.readouterr().err


def test_non_numeric_number_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "[corona]\nf = z\nslope_min = steep\n")
    assert main(["corona", "--config", cfg]) == EXIT_CONFIG
    assert "cannot parse number" in capsys.readouterr().err


# nan and inf parse as floats; each of these once reached the grid, the
# probe or a check and failed there, or made a check that cannot fail
@pytest.mark.parametrize("command, text, where, key", [
    ("domains", "[domain]\nradius = nan\n", "domain", "radius"),
    ("domains", "[run]\nlevels = inf 1/16\n", "run", "levels"),
    ("lconn", "[lconn]\nz0 = nan+0j\n", "lconn", "z0"),
    ("lconn", "[lconn]\nh = inf\n", "lconn", "h"),
    ("corona", "[corona]\nf = z\ndbar_tol = inf\n", "corona", "dbar_tol"),
    ("taylor", "[taylor]\nf = z\nz0 = 0.5+0j\nm = 1\ncoeffs = 1, inf\n",
     "taylor", "coeffs"),
], ids=["radius-nan", "levels-inf", "z0-nan", "h-inf", "dbar_tol-inf",
        "coeffs-inf"])
def test_non_finite_values_rejected(tmp_path, capsys, command, text, where,
                                    key):
    assert main([command, "--config", write(tmp_path, text)]) == EXIT_CONFIG
    assert f"[{where}] {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, key, known", [
    # a misspelt dbar_tol used to be ignored: PASS against the default
    ("corona", "[run]\nlevels = 1/32 1/64\n\n"
               "[corona]\nf = sub(1, z), z\ndbar_tl = 1e-12\n",
     "dbar_tl", "dbar_tol"),
    ("domains", "[run]\nlevels = 1/32\n\n[domain]\nkind = disk\nradus = 0.1\n",
     "radus", "radius"),
], ids=["corona-dbar_tl", "domain-radus"])
def test_unknown_key_exits_1(tmp_path, capsys, command, text, key, known):
    assert main([command, "--config", write(tmp_path, text)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unknown key(s) {key} " in err
    assert re.search(rf"known: .*\b{known}\b", err)


@pytest.mark.parametrize("command, text, key", [
    ("cauchy", "[run]\nlevels =\n", "levels"),
    ("faa", "[faa]\ntrials = 0\n", "trials"),
    ("faa", "[faa]\nmax_n = 0\n", "max_n"),
    ("faa", "[faa]\nmax_n = 30\n", "max_n"),
    ("faa", "[faa]\nverify = ture\n", "verify"),
    ("lconn", "[lconn]\nz0 = 1+0j\nh = 1/64\nsamples = 0\n", "samples"),
    ("lconn", "[lconn]\npreset = spiral\nsamples = 0\n", "samples"),
    ("lconn", "[lconn]\npreset = spiral\nnodes = 0\n", "nodes"),
    # the spiral probe needs at least 64 path nodes
    ("lconn", "[lconn]\npreset = spiral\nnodes = 10\n", "nodes"),
    ("taylor", "[taylor]\nf = exp(z)\nz0 = 1+0j\nm = 2\nsamples = 0\n",
     "samples"),
    # m = 2 takes exactly m + 1 = 3 coefficient overrides
    ("taylor", "[taylor]\nf = exp(z)\nz0 = 1+0j\nm = 2\ncoeffs = 1, 1\n",
     "coeffs"),
    # numpy seeds are nonnegative
    ("faa", "[run]\nseed = -1\n\n[faa]\nverify = true\n", "seed"),
], ids=["empty-levels", "trials-0", "max_n-0", "max_n-30", "verify-ture",
        "lconn-samples-0", "spiral-samples-0", "spiral-nodes-0",
        "spiral-nodes-10",
        "taylor-samples-0", "taylor-coeffs-2-of-3", "seed-negative"])
def test_counts_and_booleans_checked_at_load(tmp_path, capsys, command,
                                             text, key):
    assert main([command, "--config", write(tmp_path, text)]) == EXIT_CONFIG
    assert re.search(rf"\] {key}\b", capsys.readouterr().err)


# one valid section per command schema; the guard below breaks one key
# at a time, so every other key of the section stays well formed
VALID_SECTIONS = [
    ("domains", {}), ("cauchy", {}), ("bezout", {"f": "z"}),
    ("corona", {"f": "z"}),
    ("divide", {"f": "z", "g": "conj(z)", "power": "3", "class": "C1"}),
    ("sharpness", {}), ("faa", {"verify": "true"}), ("lconn", {}),
    ("lconn", {"preset": "spiral"}),
    ("taylor", {"f": "exp(z)", "z0": "1+0j", "m": "2"}),
]
VALID_DOMAINS = {"annulus_sector": {"r_in": "0.5", "r_out": "1",
                                    "half_angle": "1"},
                 "polygon": {"vertices": "0 1 1j"}}


def _malformed_cases():
    # every key except free text (out, dump) has a form that "@" breaks
    cases = []

    def add(command, section, where, schema, label):
        for key, (cast, _) in schema.items():
            if cast is not cli._text:
                text = f"[{where}]\n" + "".join(
                    f"{k} = {v}\n" for k, v in {**section, key: "@"}.items())
                cases.append(pytest.param(command, text, where, key,
                                          id=f"{label}-{key}"))

    for command, section in VALID_SECTIONS:
        schema = cli._COMMANDS[command].schema
        if callable(schema):
            schema = schema(section)
        preset = section.get("preset")
        add(command, section, command, schema,
            command if preset is None else f"{command}-{preset}")
    add("faa", {}, "run", cli._RUN, "run")
    add("domains", {}, "domain", cli._KIND, "domain")
    for kind, (_, schema) in cli._DOMAIN_KINDS.items():
        add("domains", {"kind": kind, **VALID_DOMAINS.get(kind, {})},
            "domain", schema, f"domain-{kind}")
    return cases


def test_valid_sections_cover_every_command():
    assert {c for c, _ in VALID_SECTIONS} == set(cli._COMMANDS)


@pytest.mark.parametrize("command, text, where, key", _malformed_cases())
def test_malformed_value_exits_1_naming_key(tmp_path, capsys, command, text,
                                            where, key):
    assert main([command, "--config", write(tmp_path, text)]) == EXIT_CONFIG
    assert re.search(rf"\[{where}\] {key}\b", capsys.readouterr().err)


# ----------------------------------------------------------- subcommands


def test_faa_table_matches_hand_values(tmp_path):
    out = tmp_path / "out"
    assert main(["faa", "--n", "4", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in body(out / "faa.csv")[1:]]
    table = {r[1]: int(r[2]) for r in rows}
    assert table == {"4": 1, "3+1": 4, "2+2": 3, "2+1+1": 6, "1+1+1+1": 1}
    assert sum(table.values()) == 15


@pytest.mark.parametrize("max_n, bell", [(1, ""), (4, "; B4 = 15")])
def test_faa_verify_names_only_checked_bell_numbers(tmp_path, capsys, max_n,
                                                    bell):
    cfg = write(tmp_path, f"[faa]\nverify = true\ntrials = 5\n"
                          f"max_n = {max_n}\n")
    assert main(["faa", "--config", cfg]) == EXIT_OK
    assert f"checked n = 1..{max_n}{bell}\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags, text", [
    (["--n", "4", "--verify"], ""),
    ([], "[faa]\nverify = false\n"),
    ([], ""),
    (["--verify"], "[faa]\nn = 4\n"),
], ids=["both-flags", "verify-false", "neither", "n-key-verify-flag"])
def test_faa_needs_exactly_one_of_n_and_verify(tmp_path, capsys, flags, text):
    cfg = write(tmp_path, text)
    assert main(["faa", "--config", cfg, *flags]) == EXIT_CONFIG
    assert re.search(r"\[faa\] .*\bn\b.*\bverify\b", capsys.readouterr().err)


@pytest.mark.parametrize("flags, text, rows", [
    (["--n", "3"], "[faa]\nverify = false\n", 3),  # p(3) partitions
    (["--verify"], "[faa]\ntrials = 5\n", 5),
], ids=["table", "battery"])
def test_faa_mode_follows_n_or_verify(tmp_path, flags, text, rows):
    out = tmp_path / "out"
    assert main(["faa", "--config", write(tmp_path, text), *flags,
                 "--out", str(out)]) == EXIT_OK
    assert len(body(out / "faa.csv")[1:]) == rows


def test_faa_verify_report(tmp_path):
    cfg = write(tmp_path, "[faa]\nverify = true\ntrials = 25\n")
    out = tmp_path / "out"
    assert main(["faa", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = body(out / "faa.csv")[1:]
    assert len(rows) == 25
    assert all(float(r.split(",")[2]) <= 1e-10 for r in rows)


def test_csv_bodies_are_deterministic(tmp_path):
    cfg = write(tmp_path, "[faa]\nverify = true\ntrials = 15\n")
    bodies = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["faa", "--config", cfg, "--out", str(out)]) == EXIT_OK
        bodies.append(body(out / "faa.csv"))
    assert bodies[0] == bodies[1]


def test_domains_census_and_dump(tmp_path):
    cfg = write(tmp_path, "[domains]\ncomponents = 1\ndump = mask.txt\n")
    out = tmp_path / "out"
    assert main(["domains", "--config", cfg, "--levels", "2",
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in body(out / "domains.csv")[1:]]
    assert len(rows) == 2
    for r in rows:
        assert int(r[4]) > int(r[5]) > 0  # inside > interior > 0
        assert int(r[8]) == 1
    dumped = load_mask(out / "mask.txt")
    assert dumped.counts()["inside"] == int(rows[-1][4])


def test_cauchy_ladder_report():
    cfg = load_config("cauchy", overrides={"f": "conj(z)"})
    cfg.h_list = (1 / 32, 1 / 64)
    rep = run(cfg)
    assert rep.exit_status == EXIT_OK
    assert rep.slopes["max_dev"]["slope"] == pytest.approx(
        1.9600895637894842, rel=1e-9)
    assert rep.rows[-1][3] == pytest.approx(3.505654324251952e-05, rel=1e-9)


def test_cauchy_single_level_has_no_slopes():
    cfg = load_config("cauchy", levels=1)
    rep = run(cfg)
    assert rep.slopes == {} and len(rep.rows) == 1


def test_bezout_poly_route_evaluates_no_fit_again(tmp_path, poly_calls):
    # the poly residual comes from quotient_fits' x on the nodes; no fit
    # is called on the nodes after the ladder
    cfg = write(tmp_path, "[run]\nlevels = 1/64\n\n"
                          "[bezout]\nf = z, sub(1, z)\nroute = poly\n")
    assert main(["bezout", "--config", cfg]) == EXIT_OK
    assert poly_calls == []


def test_bezout_both_routes():
    cfg = load_config("bezout", overrides={"f": "z, sub(1, z)"}, levels=1)
    rep = run(cfg)
    assert [r[0] for r in rep.rows] == ["poly", "pou"]
    assert all(r[1] < 1e-12 for r in rep.rows)
    assert rep.rows[0][2] == pytest.approx(1.0, abs=1e-12)  # delta
    assert rep.exit_status == EXIT_OK


def test_corona_report_exact_residual_flag():
    cfg = load_config("corona", overrides={"f": "sub(1, z), z"})
    cfg.h_list = (1 / 32, 1 / 64)
    rep = run(cfg)
    assert rep.exit_status == EXIT_OK
    assert rep.slopes["residual_sup"]["exact"]
    assert rep.slopes["dbar_sup"]["slope"] == pytest.approx(1.9822, abs=2e-3)
    assert rep.rows[-1][3] == pytest.approx(9.179382017550086e-04, rel=1e-6)


def test_divide_inline_flags(tmp_path):
    out = tmp_path / "out"
    rc = main(["divide", "--f", "z", "--g", "conj(z)", "--power", "4",
               "--class", "Dbar1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in body(out / "divide.csv")[1:]]
    assert {r[0] for r in rows} >= {"value", "dbar", "d_of_dbar"}
    assert all(r[1] == PASS for r in rows)


def test_lconn_disk_csv(tmp_path):
    assert main(["lconn", "--config", str(CONFIG_DIR / "lconn_disk.ini"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = [line.split(",") for line in body(tmp_path / "lconn.csv")[1:]]
    assert [r[2] for r in rows] == ["bounded"] * 3
    assert float(rows[0][1]) == pytest.approx(1.0652455355833288, rel=1e-9)


def test_lconn_expectation_mismatch_exits_3(tmp_path):
    cfg = write(tmp_path, "[lconn]\nz0 = 1+0j\nh = 1/64\nexpect = growing\n")
    assert main(["lconn", "--config", cfg]) == EXIT_ACCEPTANCE


def test_lconn_spiral_preset_matches_probe(tmp_path):
    assert main(["lconn", "--config", str(CONFIG_DIR / "lconn_spiral.ini"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = [line.split(",") for line in body(tmp_path / "lconn.csv")[1:]]
    ratios = [float(r[1]) for r in rows]
    assert ratios == pytest.approx(
        [1.865714989023406, 3.9249805246659975, 6.60571785891787], rel=1e-9)
    assert all(r[2] == "growing" for r in rows)


def test_taylor_csv_and_expectations(tmp_path):
    out = tmp_path / "out"
    assert main(["taylor", "--config", str(CONFIG_DIR / "taylor_exp.ini"),
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in body(out / "taylor.csv")[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2]
    assert [float(r[1]) for r in rows] == pytest.approx(
        [3.016473791990812, 2.0220003286455577, 1.0329958483485353], rel=1e-9)
    # the branch-point quotient misses first-order contact; expect = fail
    cfg = write(tmp_path, "[taylor]\n"
                          "f = exp(mul(0.5, log(sub(1, z))))\n"
                          "z0 = 1+0j\nm = 1\ncoeffs = 0+0j, 0+0j\n"
                          "expect = fail\n")
    assert main(["taylor", "--config", cfg]) == EXIT_OK
    cfg = write(tmp_path, "[taylor]\n"
                          "f = exp(mul(0.5, log(sub(1, z))))\n"
                          "z0 = 1+0j\nm = 1\ncoeffs = 0+0j, 0+0j\n")
    assert main(["taylor", "--config", cfg]) == EXIT_ACCEPTANCE


# ------------------------------------------------------ sharpness battery


@pytest.fixture(scope="module")
def battery():
    return sharpness_battery()


def test_battery_covers_six_items(battery):
    assert len(battery) == 6
    assert sorted(i["power"] for i in battery) == [2, 2, 2, 3, 3, 4]
    assert {i["claimed"] for i in battery} == {"C0", "C1", "A0", "A1", "Dbar1"}


def test_battery_passes_at_power_fails_below(battery):
    for item in battery:
        assert item["verdict_at_power"] == PASS, item["item"]
        assert item["verdict_below"] == FAIL, item["item"]


def test_battery_measured_magnitudes(battery):
    by_name = {i["item"]: i for i in battery}
    # boundary-value spread is 1 by construction one power below
    assert by_name["boundary values"]["measured_below"] == pytest.approx(
        1.0, abs=1e-6)
    # the chain tails differ by |2i - 2| = 2 sqrt(2)
    chain = by_name["holomorphic derivatives, chain"]
    assert chain["measured_below"] == pytest.approx(2 * np.sqrt(2), abs=1e-3)


def test_sharpness_subcommand(tmp_path):
    assert main(["sharpness", "--out", str(tmp_path)]) == EXIT_OK
    rows = body(tmp_path / "sharpness.csv")[1:]
    assert len(rows) == 6


# ------------------------------------------------------ refinement study


def test_refinement_study_needs_three_levels():
    cfg = load_config("cauchy", levels=2)
    with pytest.raises(ConfigError, match="three levels"):
        refinement_study(cfg)


def test_refinement_study_rejects_metric_free_command():
    cfg = load_config("bezout", overrides={"f": "z, sub(1, z)"}, levels=3)
    with pytest.raises(ConfigError, match="no refinement metrics"):
        refinement_study(cfg)


def test_refinement_study_slopes():
    cfg = load_config("cauchy")
    cfg.h_list = (1 / 16, 1 / 32, 1 / 64)
    slopes = refinement_study(cfg)
    assert slopes["max_dev"]["slope"] >= 0.9
    assert not slopes["max_dev"]["exact"]


# -------------------------------------------------------- shipped configs


@pytest.mark.parametrize("cfg_path", sorted(CONFIG_DIR.glob("*.ini")),
                         ids=lambda p: p.stem)
def test_shipped_configs_exit_clean(cfg_path, tmp_path):
    command = None
    for line in cfg_path.read_text().splitlines():
        if line.strip().startswith("command"):
            command = line.split("=")[1].strip()
    assert command is not None
    bodies = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun
        assert main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        # everything below the generation stamp is byte-identical
        stamp, rest = (out / f"{command}.csv").read_bytes().split(b"\n", 1)
        assert stamp.startswith(b"# ")
        bodies.append(rest)
    assert bodies[0] == bodies[1]


# ------------------------------------------------------- documented runs


def _readme_quick_runs() -> list:
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = readme.split("Quick runs without a config:", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.strip()]


def test_readme_quick_runs_exit_0(capsys):
    # every documented config-free command still runs clean
    runs = _readme_quick_runs()
    assert len(runs) >= 4
    for argv in runs:
        assert argv[0] == "dbarkit"
        assert main(argv[1:]) == EXIT_OK, argv
