"""Opt-in mutation check: every mutant below must fail its named tests.

Run by hand from anywhere in the repository:

    python tests/mutants.py

For each row of MUTANTS, src/ is copied to a temporary directory, the
row's snippet (which must occur exactly once in its file) is replaced,
and the row's tests run against the copy in one sequential pytest
subprocess.  A mutant survives when those tests pass.  Every named test
first runs once on an unmutated copy, where it must pass.  The script
names each survivor and exits 1 if any mutant survives (2 if the table
or the unmutated run is broken).  A survivor needs a test that kills it.

pytest does not collect this file.  tests/test_mutants.py checks in the
suite, without running a mutant, that every snippet occurs once and
every named test exists (table_errors).
Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
Computer 11 (1978).
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str         # path under src/
    snippet: str      # exact source text, present once in the file
    replacement: str
    tests: tuple      # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("sign of S's numerator", "dbarkit/expr.py",
           "S = exp(div(neg(add(1, Z)), sub(1, Z)))",
           "S = exp(div(add(1, Z), sub(1, Z)))",
           ("tests/test_expr.py::test_inner_function_is_its_closed_form",)),
    Mutant("b and d swapped in mobius", "dbarkit/expr.py",
           "return div(add(mul(a, arg), b), add(mul(c, arg), d))",
           "return div(add(mul(a, arg), d), add(mul(c, arg), b))",
           ("tests/test_expr.py::test_mobius_is_its_closed_form",)),
    Mutant("pow exponent need not be an integer", "dbarkit/expr.py",
           "lambda c: c.imag == 0 and c.real.is_integer(),",
           "lambda c: c.imag == 0,",
           ("tests/test_expr.py::test_parser_errors_are_positioned",)),
    Mutant("non-finite constants pass the parser", "dbarkit/expr.py",
           "if isinstance(c, Const) and not cmath.isfinite(c.value):",
           "if False:",
           ("tests/test_expr.py::test_parser_errors_are_positioned",)),
    Mutant("antisymmetric sign in _obstruction", "dbarkit/corona.py",
           "- dbx[j][r] * np.conj(fv[k][r]))",
           "+ dbx[j][r] * np.conj(fv[k][r]))",
           ("tests/test_corona.py::test_koszul_entry_matches_hand_formula",)),
    Mutant("|D| >= 1/2 certificate", "dbarkit/bezout.py",
           "if dmin < 0.5:", "if dmin < 0.0:",
           ("tests/test_bezout.py::test_quotient_fits_refuses_a_small_denominator",)),
    Mutant("dbar x's quotient rule adds its two terms", "dbarkit/bezout.py",
           "(dp * D - p * dD)", "(dp * D + p * dD)",
           ("tests/test_corona.py::test_poly_route_matches_symbolic_oracle",)),
    Mutant("collar exclusion radius one step short", "dbarkit/corona.py",
           "2.1 * mask.grid.h", "1.1 * mask.grid.h",
           ("tests/test_corona.py::"
            "test_weighted_dbar_sups_skip_the_two_step_diamond",)),
    Mutant("projection screen without its roundoff band", "dbarkit/bezout.py",
           "return 4 * (d + 1) * np.finfo(float).eps * cond * scale",
           "return 0 * scale",
           ("tests/test_bezout.py::"
            "test_screen_band_admits_a_degree_at_its_exact_sup",)),
    Mutant("projection screen from the last block only", "dbarkit/bezout.py",
           "resid -= qv[p0:p].T @ Q[:, p0:p].T",
           "resid = rhs.T - qv[p0:p].T @ Q[:, p0:p].T",
           ("tests/test_bezout.py::test_screened_ladder_matches_full_node_ladder",)),
    Mutant("node blocks drop the remainder past the last full block",
           "dbarkit/cauchy.py", "zip(starts, [*starts[1:], n])",
           "zip(starts, [*starts[1:], starts[-1] + size])",
           ("tests/test_bezout.py::test_poly_dbars_share_one_table_bitwise",
            "tests/test_cauchy.py::"
            "test_node_sampler_is_the_one_shot_rule_bitwise",
            "tests/test_division.py::"
            "test_node_vector_record_is_the_full_grid_rule_bitwise",
            "tests/test_division.py::"
            "test_blocked_scale_evaluates_each_away_node_once")),
    Mutant("row strips of ROW_STRIP rows, not of SAMPLE_BLOCK nodes",
           "dbarkit/cauchy.py",
           "return node_blocks(shape[0], -(-SAMPLE_BLOCK // per_row))",
           "return node_blocks(shape[0], ROW_STRIP)",
           ("tests/test_cauchy.py::"
            "test_strip_kernels_are_the_one_shot_rule_bitwise",
            "tests/test_corona.py::"
            "test_correction_strips_are_the_one_shot_rule_bitwise")),
    Mutant("non-finite error only when every sample is non-finite",
           "dbarkit/cauchy.py", "if bad.any():", "if bad.all():",
           ("tests/test_cauchy.py::"
            "test_sampled_field_checks_finiteness_on_the_support_only",
            "tests/test_cauchy.py::"
            "test_node_sampler_is_the_one_shot_rule_bitwise",
            "tests/test_division.py::"
            "test_node_vector_record_is_the_full_grid_rule_bitwise")),
    Mutant("domination slack dropped", "dbarkit/division.py",
           "rhs(i, j) + 1e-9 * max(slack_ref, 1.0)).any()",
           "rhs(i, j)).any()",
           ("tests/test_corona.py::test_g12_singleton_is_principal_division",
            "tests/test_division.py::"
            "test_extension_power_seven_under_weak_domination")),
    Mutant("node window without its + 2", "dbarkit/domains.py",
           "math.ceil(reach / self.grid.h) + 2)",
           "math.ceil(reach / self.grid.h))",
           ("tests/test_division.py::"
            "test_windowed_rings_match_the_full_grid_rule",)),
    Mutant("near set drops nodes at exactly the distance",
           "dbarkit/domains.py", "on = d <= dist", "on = d < dist",
           ("tests/test_division.py::"
            "test_near_keeps_nodes_at_exactly_the_distance",)),
    Mutant("covering floor admits a zero delta", "dbarkit/bezout.py",
           "if delta <= 0:", "if delta < 0:",
           ("tests/test_bezout.py::test_partition_names_the_common_zero",)),
    Mutant("criterion 1: sign of the Cauchy transform", "dbarkit/cauchy.py",
           "np.multiply(-1.0 / math.pi, u, out=u)",
           "np.multiply(1.0 / math.pi, u, out=u)",
           ("tests/test_cauchy.py::test_pompeiu_constant_density",)),
    Mutant("criterion 2: u_j = x_j + sum f_k H_kj in the assembly",
           "dbarkit/corona.py",
           "np.subtract(x_vals[j][r], corr,",
           "np.add(x_vals[j][r], corr,",
           ("tests/test_corona.py::test_corona_linear_pair",)),
    Mutant("criterion 3: g^5 target weighted by g^3", "dbarkit/corona.py",
           "weight=gv ** 4, lift=lift,", "weight=gv ** 3, lift=lift,",
           ("tests/test_corona.py::test_g5_pipeline",)),
    Mutant("criterion 4: covering route divides by |f_j|", "dbarkit/bezout.py",
           "zero_extended(a.values, g.values, a.values != 0)",
           "zero_extended(a.values, np.abs(g.values), a.values != 0)",
           ("tests/test_bezout.py::test_bezout_pou_residual",)),
    Mutant("criterion 5: PASS band of the verdict ladder narrowed",
           "dbarkit/division.py",
           "if measured <= 0.05 * scale:", "if measured <= 0.03 * scale:",
           ("tests/test_division.py::test_verdict_ladder_thresholds",
            "tests/test_cli.py::test_battery_passes_at_power_fails_below")),
    Mutant("criterion 6: derivative bound's power of |g|",
           "dbarkit/division.py",
           "/ gvals[live] ** (m + 1 - n)", "/ gvals[live] ** (m - n)",
           ("tests/test_division.py::"
            "test_scan_constant_matches_hand_maximum",)),
    Mutant("criterion 7: gradient growth bound loosened",
           "dbarkit/division.py",
           "bool(growth <= 1.5)", "bool(growth <= 5.0)",
           ("tests/test_division.py::"
            "test_multi_c1_gradient_blows_up_at_power_two",)),
    Mutant("criterion 8: f-derivative order in the chain rule",
           "dbarkit/faa.py",
           "acc = acc + term * f_derivs[len(k) - 1]",
           "acc = acc + term * f_derivs[0]",
           ("tests/test_faa.py::test_low_order_closed_forms",)),
    Mutant("criterion 9: bounded band of the L-probe", "dbarkit/geometry.py",
           "(max(vals) - min(vals)) <= 0.2 * min(vals)",
           "(max(vals) - min(vals)) <= 0.02 * min(vals)",
           ("tests/test_geometry.py::"
            "test_disk_probe_bounded_at_two_resolutions",)),
    Mutant("Wolff numerator without conj", "dbarkit/bezout.py",
           "else np.conj(g.values) * weight, s2, live))",
           "else g.values * weight, s2, live))",
           ("tests/test_bezout.py::"
            "test_q_fields_weighted_is_the_wolff_quotient",
            "tests/test_bezout.py::"
            "test_wolff_identity_holds_on_the_live_nodes")),
    Mutant("opening bounds the datum by sum|f_j|^2", "dbarkit/division.py",
           "check_domination(np.abs(values), gens.s1, gens.mask,",
           "check_domination(np.abs(values), gens.s2, gens.mask,",
           ("tests/test_division.py::"
            "test_dominated_admits_equality_in_sum_of_moduli",)),
    Mutant("covering check never fires", "dbarkit/bezout.py",
           "uncovered = total == 0", "uncovered = total < 0",
           ("tests/test_bezout.py::test_partition_epsilon_too_large",)),
    Mutant("half spectrum mirrored without its sign", "dbarkit/cauchy.py",
           "b[top - r0:] *= -np.conj(", "b[top - r0:] *= np.conj(",
           ("tests/test_cauchy.py::test_lattice_matches_the_full_period_rule",)),
    Mutant("kernel band filled, so the kernel is not odd",
           "dbarkit/cauchy.py",
           "my = np.r_[0:ny, 1 - ny:0]", "my = np.r_[0:py - ny + 1, 1 - ny:0]",
           ("tests/test_cauchy.py::test_half_spectrum_matches_the_full_one",
            "tests/test_cauchy.py::"
            "test_lattice_matches_the_full_period_rule")),
    Mutant("last strip runs past the period", "dbarkit/cauchy.py",
           "r1 = min(r0 + ROW_STRIP, py)", "r1 = r0 + ROW_STRIP",
           ("tests/test_cauchy.py::test_lattice_matches_the_full_period_rule",)),
    Mutant("dbar x measured after u is written over it", "dbarkit/corona.py",
           "    dbar_sup_x = _dbar_sup(xv, mask, sel)\n"
           "    uv = _assemble(xv, f_vals, H, own=weight is not None)\n",
           "    uv = _assemble(xv, f_vals, H, own=weight is not None)\n"
           "    dbar_sup_x = _dbar_sup(xv, mask, sel)\n",
           ("tests/test_corona.py::"
            "test_g5_correction_lowers_dbar_of_the_weighted_x",)),
    Mutant("on_nodes fills with ones", "dbarkit/cauchy.py",
           "out = np.zeros(sel.shape,", "out = np.ones(sel.shape,",
           ("tests/test_cauchy.py::test_on_nodes_scatters_row_major",)),
    Mutant("series power by squaring tests the wrong bit", "dbarkit/faa.py",
           "if e & 1:", "if e & 2:",
           ("tests/test_faa.py::test_taylor_expand_known_series",)),
    Mutant("nesting cap one level late", "dbarkit/expr.py",
           "if depth > MAX_NESTING:", "if depth > MAX_NESTING + 1:",
           ("tests/test_expr.py::test_nesting_stops_one_level_past_the_cap",)),
    Mutant("erosion window one node narrow", "dbarkit/domains.py",
           "n, width = len(a), 2 * k + 1", "n, width = len(a), 2 * k",
           ("tests/test_domains.py::"
            "test_eroded_matches_iterated_binary_erosion",)),
    Mutant("erosion window without its rest AND", "dbarkit/domains.py",
           "out[k:n - k] = run[:n - width + 1] & run[rest:]",
           "out[k:n - k] = run[:n - width + 1]",
           ("tests/test_domains.py::"
            "test_eroded_matches_iterated_binary_erosion",
            "tests/test_domains.py::"
            "test_window_and_covers_every_hole_position")),
    Mutant("node-vector zero floor drops nodes at exactly the floor",
           "dbarkit/division.py",
           "return magnitude <= ZERO_REL * sup_abs(magnitude)",
           "return magnitude < ZERO_REL * sup_abs(magnitude)",
           ("tests/test_division.py::"
            "test_record_zero_set_keeps_a_node_at_exactly_the_floor",)),
    Mutant("value scale one power short", "dbarkit/division.py",
           "scale = sup_over(fv[a:b] ** N / gv[a:b]",
           "scale = sup_over(fv[a:b] ** (N - 1) / gv[a:b]",
           ("tests/test_division.py::"
            "test_node_vector_record_is_the_full_grid_rule_bitwise",)),
    Mutant("probe rings without their live cut", "dbarkit/division.py",
           "[[(yy[on], xx[on]) for yy, xx in _rings(mask, c, radii)",
           "[[(yy, xx) for yy, xx in _rings(mask, c, radii)",
           ("tests/test_division.py::"
            "test_certificate_verdict_does_not_depend_on_which_way_up_"
            "the_data_lies",
            "tests/test_division.py::"
            "test_live_rings_are_the_full_grid_rule_on_the_live_nodes")),
    Mutant("away set without its live cut", "dbarkit/division.py",
           "interior_shrunk(mask, 3) & self.live",
           "interior_shrunk(mask, 3)",
           ("tests/test_division.py::"
            "test_derivative_scales_skip_a_zero_line_of_the_divisor",)),
    Mutant("flat node index read with rows and columns swapped",
           "dbarkit/domains.py",
           "iy, ix = np.divmod(nodes, self.grid.nx)",
           "ix, iy = np.divmod(nodes, self.grid.nx)",
           ("tests/test_domains.py::"
            "test_points_of_flat_indices_are_coords_bitwise",
            "tests/test_division.py::"
            "test_blocked_scale_evaluates_each_away_node_once",
            "tests/test_division.py::"
            "test_node_vector_record_is_the_full_grid_rule_bitwise")),
    Mutant("node ordinates repeated by column counts", "dbarkit/domains.py",
           "np.repeat(ys, np.count_nonzero(sel, axis=1))",
           "np.repeat(ys, np.count_nonzero(sel, axis=0))",
           ("tests/test_domains.py::"
            "test_coords_and_zgrid_are_the_complex_rule_bitwise",)),
]


def source_copy(tmp: str, mutant=None) -> Path:
    """src/ copied under tmp, with the mutant's substitution applied."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / mutant.file
        text = path.read_text()
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return src


def tests_pass(src: Path, tests) -> bool:
    """True when the tests pass against the package under src; one
    sequential pytest process, stopped at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def table_errors() -> list:
    """One message per broken row: a snippet that does not occur exactly
    once in its file, or a test id that names no module-level test
    function.  Nothing is run."""
    errors = []
    for m in MUTANTS:
        count = (ROOT / "src" / m.file).read_text().count(m.snippet)
        if count != 1:
            errors.append(
                f"{m.name}: snippet occurs {count} times in {m.file}")
        for test in m.tests:
            path, _, name = test.partition("::")
            file = ROOT / path
            defined = file.is_file() and any(
                isinstance(node, ast.FunctionDef)
                and node.name == name.split("[")[0]
                for node in ast.parse(file.read_text()).body)
            if not defined:
                errors.append(f"{m.name}: no test {test}")
    return errors


def main() -> int:
    errors = table_errors()
    if errors:
        print("\n".join(errors))
        return 2
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if not tests_pass(source_copy(tmp), named):
            print("the named tests fail on the unmutated source")
            return 2
    survivors = []
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            survived = tests_pass(source_copy(tmp, m), m.tests)
        print(f"{'SURVIVED' if survived else 'killed':8}  {m.name}")
        if survived:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: "
              + "; ".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
