"""Opt-in check that the working tree behaves as a git revision does.

Run by hand from anywhere in the repository:

    python tests/same_outputs.py REV

REV is any local revision (a commit, branch or tag).  It is exported
with `git archive` into a temporary directory; then, on that tree and
on the working tree, with BLAS on one thread, each shipped config
(configs/*.ini) and the sharpness battery (`dbarkit sharpness`, which
no config runs) run through `python -m dbarkit.cli` with their own
output directories, tests/test_acceptance.py runs through pytest, and
`python tests/same_outputs.py --hashes` prints the route_hashes of the
tree's dbarkit (the correction routes at h = 1/64 to 1/256, the
lattice transform and the stencils at h = 1/64 to 1/512, as hashes of
their arrays and the reprs of their sups), its
fit_hashes (quotient_fits on ill-conditioned compacta and on the unit
disk at every fit stride the ladders reach) and its division_hashes
(the multi-generator divisions, the extension lemma and the sharpness
battery's certificates, as hashes of their fields and reports).
The two output trees are compared byte for byte: each CSV body below
its generation-stamp line, each summary.txt, each exit status, the
nine acceptance lines and the route, fit and division hashes.  The script names
every difference (a tree that prints no acceptance line or no hash
counts as one) and exits 1 on any, 0 when there is none and 2 when
REV cannot be exported.

pytest does not collect this file; tests/test_same_outputs.py checks
compare_trees on two small output trees.
"""

import configparser
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update((var, "1") for var in BLAS_VARS)
    return env


def cli_runs(tree: Path) -> list:
    """(output directory name, dbarkit.cli arguments) of each run of the
    source tree `tree`: its shipped configs, then the sharpness battery
    with its default spacings."""
    runs = []
    for ini in sorted((tree / "configs").glob("*.ini")):
        cp = configparser.ConfigParser()
        cp.read(ini)
        runs.append((ini.stem, [cp["run"]["command"], "--config", str(ini)]))
    return runs + [("sharpness", ["sharpness"])]


def run_outputs(tree: Path, out: Path) -> None:
    """The outputs of cli_runs and the acceptance lines of the source
    tree `tree`, written under `out`."""
    for name, args in cli_runs(tree):
        dest = out / name
        done = subprocess.run(
            [sys.executable, "-m", "dbarkit.cli", *args, "--out", str(dest)],
            cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "exit_status").write_text(f"{done.returncode}\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=tree, env=_env(tree), capture_output=True, text=True)
    lines = [ln for ln in done.stdout.splitlines()
             if ln.startswith("criterion ")]
    (out / "acceptance.txt").write_text("".join(ln + "\n" for ln in lines))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--hashes"],
        cwd=tree, env=_env(tree), capture_output=True, text=True)
    (out / "routes.txt").write_text(done.stdout)


def _sha(a) -> str:
    # an array's bytes, or bytes as they are
    return hashlib.sha256(a if isinstance(a, bytes) else a.tobytes()
                          ).hexdigest()


def route_hashes(hs=(1 / 64, 1 / 128, 1 / 256), fine=(1 / 512,)) -> list:
    """One line per output of the correction routes, the lattice and
    the stencils of the dbarkit that is imported, on the unit disk: at
    each spacing of hs the sha256 of u's bytes and the repr of the four
    sups, skew and entry_reports of the pou and poly corona_solve on
    (z^2, (1-z)^2), g_power_solve (g^5) and g12_solve (g^12) on (z^2,
    z^3) with g = z^2 (the benchmark's inputs, margins max(3,
    round(0.15 / h))); then, at each spacing of hs and of fine, the
    sha256 of pompeiu, dbar_fd, d_fd and dbar_fd_onesided of a sampled
    non-polynomial field (at h = 1/512, 64 lattice strips and 16
    stencil strips, which run on every CPU).  No shipped config runs
    these routes at these spacings, and the CSVs' rounding would hide a
    moved bit."""
    # imported here: the comparison runs each tree's dbarkit in a
    # subprocess and needs none on its own path
    from dbarkit import cauchy, corona
    from dbarkit.domains import Disk, build_mask
    from dbarkit.expr import Const, Z, add, conj, div, exp, intpow, mul, sub

    disk, one = Disk(0j, 1.0), Const(1.0)
    denom = add(one, mul(Z, conj(Z)))
    quartic = [intpow(Z, 2), intpow(sub(one, Z), 2)]
    g, fs = intpow(Z, 2), [intpow(Z, 2), intpow(Z, 3)]
    xs = [div(one, denom), div(conj(Z), denom)]
    h_list = [conj(intpow(Z, 2)), conj(intpow(Z, 3))]
    routes = {
        "pou": lambda h, m: corona.corona_solve(
            quartic, disk, h=h, route="pou", margin=m),
        "poly": lambda h, m: corona.corona_solve(
            quartic, disk, h=h, route="poly", margin=m),
        "g^5": lambda h, m: corona.g_power_solve(g, fs, xs, disk, h=h,
                                                 margin=m),
        "g^12": lambda h, m: corona.g12_solve(g, fs, h_list, disk, h=h,
                                              margin=m),
    }

    lines = []
    for h in (*hs, *fine):
        m = max(3, int(round(0.15 / h)))
        for name, solve in (routes.items() if h in hs else ()):
            sol = solve(h, m)
            lines.append(f"{name} h={h:g} u " + " ".join(
                _sha(u.values) for u in sol.u))
            lines.append(f"{name} h={h:g} sups {sol.residual_sup!r} "
                         f"{sol.dbar_sup!r} {sol.dbar_sup_x!r} "
                         f"{sol.skew_residual!r} {sol.entry_reports!r}")
        field = cauchy.sample_field(
            exp(mul(conj(Z), add(Z, one))), build_mask(disk, h=h))
        for fn in (cauchy.pompeiu, cauchy.dbar_fd, cauchy.d_fd,
                   cauchy.dbar_fd_onesided):
            lines.append(f"{fn.__name__} h={h:g} {_sha(fn(field).values)}")
    return lines


def fit_hashes(hs_compacta=(1 / 64, 1 / 128),
               hs_disk=(1 / 32, 1 / 64, 1 / 128, 1 / 256)) -> list:
    """Two lines per quotient_fits run of the dbarkit that is imported:
    each fit's degree, the repr of its sup_error and cond and the
    sha256 of its coef bytes, then the sha256 of x and dbar x (or the
    repr of the error the run raised).  The runs are the quartic pair
    (z^2, (1-z)^2) with max_degree=30 on Disk(0, 1.2) and on
    AnnulusSector(0.5, 1.5, 2.5), where cond reaches 1e9, at each
    spacing of hs_compacta, and the pairs (1-z, z) and (z^2, (1-z)^2)
    on the unit disk at each spacing of hs_disk; by default those reach
    the fit strides 1, 3 and 11 (bezout.MAX_FIT_NODES)."""
    from dbarkit.bezout import BezoutProblem, quotient_fits
    from dbarkit.domains import AnnulusSector, Disk
    from dbarkit.expr import Const, Z, intpow, sub

    one = Const(1.0)
    linear, quartic = [sub(one, Z), Z], [intpow(Z, 2), intpow(sub(one, Z), 2)]
    runs = [(name, domain, quartic, 30, h) for h in hs_compacta
            for name, domain in (("quartic disk1.2", Disk(0j, 1.2)),
                                 ("quartic sector",
                                  AnnulusSector(0.5, 1.5, 2.5)))]
    runs += [(name, Disk(0j, 1.0), fs, 16, h) for h in hs_disk
             for name, fs in (("linear disk", linear),
                              ("quartic disk", quartic))]

    lines = []
    for name, domain, fs, max_degree, h in runs:
        head = f"fits {name} h={h:g}"
        try:
            fits, x, dbx = quotient_fits(
                BezoutProblem.build(domain, fs, h=h), max_degree)
        except ValueError as err:  # a refused fit is an output too
            lines += [f"{head} {err!r}"] * 2
            continue
        lines.append(f"{head} fits " + " ".join(
            f"{p.degree} {p.sup_error!r} {p.cond!r} {_sha(p.coef)}"
            for p in fits))
        lines.append(f"{head} x " + " ".join(_sha(a) for a in x + dbx))
    return lines


def division_hashes(h=1 / 128, h_fine=1 / 512, h_chain=1 / 256) -> list:
    """One line per division run of the dbarkit that is imported, on
    the unit disk at spacing h: the sha256 of each field's values and of
    the report's repr for criterion 7's multi_division_continuous (h^2
    over (z, 1 - z)) and multi_division_c1 (z over conj z at powers 2
    and 3), for multi_division_c1 on two generators with two common
    zeros (p and conj p, p = (z - 1/2)(z + 1/2)), and for
    quotient_extension_lemma at powers 2, 4 and 7; then one line per
    item of the sharpness battery at h_fine and h_chain: the sha256 of
    the repr of the probes (verdicts, measurements, scales and details:
    per-center ring spreads and radii, or family tails) at the power and
    one below.  Criterion 7's acceptance line prints two decimals, and
    the battery's CSV only the worst measurement."""
    from dbarkit import cli, division
    from dbarkit.domains import Disk
    from dbarkit.expr import Const, Z, add, conj, intpow, mul, sub

    disk, one, half = Disk(0j, 1.0), Const(1.0), Const(0.5)
    p = mul(sub(Z, half), add(Z, half))
    runs = {
        "continuous": lambda: division.multi_division_continuous(
            Z, [Z, sub(one, Z)], disk, grid_h=h),
        "c1 power=2": lambda: division.multi_division_c1(
            Z, [conj(Z)], disk, power=2, grid_h=h),
        "c1 power=3": lambda: division.multi_division_c1(
            Z, [conj(Z)], disk, power=3, grid_h=h),
        "c1 two zeros": lambda: division.multi_division_c1(
            p, [p, conj(p)], disk, power=3, grid_h=h),
        **{f"lemma power={k}": partial(division.quotient_extension_lemma,
                                       Z, fs, k, disk, grid_h=h)
           for k, fs in ((2, [Z]), (4, [Z]), (7, [intpow(Z, 2)]))},
    }

    lines = []
    for name, run in runs.items():
        fields, report = run()
        # the lemma returns one field, the divisions a list
        fields = fields if isinstance(fields, list) else [fields]
        lines.append(f"division {name} h={h:g} " + " ".join(
            _sha(f.values) for f in fields)
            + f" report {_sha(repr(report).encode())}")
    for (name, claimed, _, dom, power, f, g, build, fams_at,
         fams_below) in cli._sharpness_items(h_fine, h_chain):
        problem = division.DivisionProblem.build(f, g, dom, **build)
        certs = (problem.certify(power, claimed, fams_at),
                 problem.certify(power - 1, claimed, fams_below))
        lines.append(f"battery {name.replace(' ', '_')} "
                     + " ".join(_sha(repr(c.probes).encode()) for c in certs))
    return lines


def _body(path: Path) -> list:
    lines = path.read_bytes().split(b"\n")
    # a CSV's first line is its generation stamp
    return lines[1:] if path.suffix == ".csv" else lines


def compare_trees(old: Path, new: Path) -> list:
    """One message per file that differs between two output trees: a
    file on one side only, or different contents, named with its first
    differing line and the number of differing lines."""
    names = sorted({p.relative_to(t) for t in (old, new)
                    for p in t.rglob("*") if p.is_file()})
    messages = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            side = "old" if a.is_file() else "new"
            messages.append(f"{name}: only in the {side} tree")
            continue
        la, lb = _body(a), _body(b)
        if la == lb:
            continue
        offset = 2 if name.suffix == ".csv" else 1
        diff = [i for i in range(max(len(la), len(lb)))
                if la[i:i + 1] != lb[i:i + 1]]
        i = diff[0]
        was, now = (repr(t[i]) if i < len(t) else "no line" for t in (la, lb))
        messages.append(f"{name}: {len(diff)} line(s) differ, first line "
                        f"{i + offset}: {was} -> {now}")
    return messages


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, extracted under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--hashes"]:
        print("\n".join(route_hashes() + fit_hashes() + division_hashes()))
        return 0
    if len(argv) != 1:
        print("usage: python tests/same_outputs.py REV | --hashes")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            export(argv[0], tmp / "tree")
        except subprocess.CalledProcessError as err:
            print(f"cannot export {argv[0]}: {err.stderr.decode().strip()}")
            return 2
        run_outputs(tmp / "tree", tmp / "old")
        run_outputs(ROOT, tmp / "new")
        messages = compare_trees(tmp / "old", tmp / "new")
        messages += [f"the {side} tree printed no {what}"
                     for side in ("old", "new")
                     for what, name in (("acceptance line", "acceptance.txt"),
                                        ("route hash", "routes.txt"))
                     if not (tmp / side / name).read_text()]
        print((tmp / "new" / "acceptance.txt").read_text(), end="")
    for m in messages:
        print(m)
    if messages:
        print(f"{len(messages)} difference(s) from {argv[0]}")
        return 1
    print(f"no difference from {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
