"""Command-line entry point.

Subcommands: run (single simulation with artifacts), convergence
(refinement study), verify (property suite), export-mesh.  Every option
can also live in a flat ``key = value`` config file passed with
--config; explicit flags win over file values.  All outputs are CSV
with a header row.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .analysis import lowest_rate, rates
from .driver import (
    BENCHMARKS,
    convergence_study,
    make_benchmark,
    run_benchmark,
    write_convergence_csv,
    write_energy_csv,
    write_report_csv,
    write_snapshots,
)
from .assembly import (
    AssemblyError,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    cell_forms,
)
from .mesh import FAMILIES, MeshFamily, MeshError, generate, load_mesh, save_mesh
from .timeloop import SAFETY, InstabilityError

# --assert holds every consecutive pair of levels to this order
RATE_FLOOR = 1.8

# what bad input makes a command raise: flag values of the wrong type, bad
# config values, unreadable mesh files, unstable or oversized runs, runs
# that do not fit in memory; main reports each in one line and exits 2
INPUT_ERRORS = (argparse.ArgumentError, AssemblyError, InstabilityError,
                MemoryError, MeshError, OSError, ValueError)


def error_line(exc: BaseException) -> str:
    """The one line a command prints for ``exc``, naming its type when
    the exception carries no message (``MemoryError()``)."""
    return f"error: {str(exc) or type(exc).__name__}"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _subcommands(parser: argparse.ArgumentParser):
    """The subcommand parsers of ``parser``."""
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices.values()


def load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """Flat key = value file; '#' starts a comment.  A key is a long option
    of any subcommand of ``parser`` without its dashes, except --config and
    --help; its value is converted like the flag's and stored under the
    flag's dest."""
    options = {opt[2:]: action for sub in _subcommands(parser)
               for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt not in ("--config", "--help")}
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in options:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        action = options[key]
        # a flag without a value (store_true) takes a boolean
        typ = bool if action.nargs == 0 else action.type or str
        try:
            out[action.dest] = _parse_bool(value) if typ is bool else typ(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be "
                             f"{typ.__name__}, got {value!r}") from None
    return out


def parse_levels(text: str) -> list[int]:
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            levels = list(range(int(lo), int(hi) + 1))
        else:
            levels = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        levels = []
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("--levels must be a comma list or lo-hi range of "
                         f"ascending distinct integers, got {text!r}")
    return levels


def parse_tau(text: str) -> float | str:
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"--tau must be a number or 'auto', got {text!r}") from None


def check_run(T: float, tau: float | str, damping: float,
              snapshot_every: int = 0, grid_n: int = 1) -> None:
    """Raise ValueError naming the flag of the first out-of-range input of
    ``run``; ``convergence`` takes no snapshots and leaves the last two
    at their defaults."""
    if not 0 < T < math.inf:
        raise ValueError(f"--T must be positive and finite, got {T}")
    if tau != "auto" and not 0 < tau < math.inf:
        raise ValueError(f"--tau must be positive and finite, got {tau}")
    if tau != "auto" and tau * tau < sys.float_info.min:
        raise ValueError("--tau must be at least 1.5e-154 (tau^2 underflows "
                         f"below it), got {tau}")
    if not 0 <= damping < math.inf:
        raise ValueError(f"--damping must be >= 0 and finite, got {damping}")
    if snapshot_every < 0:
        raise ValueError(f"--snapshot-every must be >= 0, got {snapshot_every}")
    if grid_n < 1:
        raise ValueError(f"--grid-n must be >= 1, got {grid_n}")


def _family_from_args(args) -> MeshFamily:
    return MeshFamily(
        kind=args.mesh_family,
        base_divisions=args.base_divisions,
        perturbation=args.perturbation,
        seed=args.seed,
    )


def _add_mesh_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--mesh-family", choices=FAMILIES,
                   default="structured-triangle")
    p.add_argument("--base-divisions", type=int, default=2,
                   help="grid divisions at level 0")
    p.add_argument("--perturbation", type=float, default=0.2,
                   help="vertex jitter for the perturbed family, as a "
                        "fraction of h in [0, sqrt(2)/4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")


def _add_simulation_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", default="auto",
                   help=f"time step, or 'auto' for {SAFETY:g} times the "
                        "stability limit from the element eigenvalue bound")
    p.add_argument("--T", type=float, default=2.0, dest="T",
                   help="final time")
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                   default="planewave")


def _write_coo_csv(matrix, path: Path) -> None:
    coo = matrix.tocoo()
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("row,col,value\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{int(i)},{int(j)},{float(v)!r}\n")


def cmd_run(args) -> int:
    family = _family_from_args(args)
    tau = parse_tau(args.tau)
    check_run(args.T, tau, args.damping, args.snapshot_every, args.grid_n)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = make_benchmark(args.benchmark)
    mesh = load_mesh(args.mesh_file) if args.mesh_file else None
    res = run_benchmark(family, args.level, bench, tau, args.T,
                        damping=args.damping,
                        snapshot_every=args.snapshot_every,
                        snapshot_n=args.grid_n, energy_every=10, mesh=mesh)
    write_energy_csv(res.energy_trace, out_dir / "energy.csv")
    write_report_csv(res.report, out_dir / "report.csv")
    print(f"h = {res.report.h:.6g}  tau = {res.state.tau:.6g}  "
          f"energy_error = {res.report.energy_error:.6e}  "
          f"discrete_error = {res.report.discrete_error:.6e}")
    if res.snapshots:
        write_snapshots(res.snapshots, out_dir)
    if args.dump_matrices:
        dofmap = build_dofmap(res.mesh)
        forms = cell_forms(dofmap)
        _write_coo_csv(assemble_lumped_mass(dofmap, forms),
                       out_dir / "mass.csv")
        _write_coo_csv(assemble_stiffness(dofmap, forms),
                       out_dir / "stiffness.csv")
    return 0


def cmd_convergence(args) -> int:
    family = _family_from_args(args)
    levels = parse_levels(args.levels)
    tau = parse_tau(args.tau)
    check_run(args.T, tau, args.damping)
    if args.assert_rates and len(levels) < 3:
        raise ValueError("--assert needs at least 3 levels")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = make_benchmark(args.benchmark)
    reports = convergence_study(family, levels, bench, tau, args.T,
                                damping=args.damping)
    write_convergence_csv(reports, out_dir / "convergence.csv")
    print(f"{'h':>12} {'energy_err':>14} {'discrete_err':>14} "
          f"{'eoc_e':>7} {'eoc_d':>7}")
    rows = zip(reports, rates(reports, "energy"), rates(reports, "discrete"))
    for r, *eocs in rows:
        ee, ed = ("" if x is None else f"{x:.2f}" for x in eocs)
        print(f"{r.h:>12.6g} {r.energy_error:>14.6e} "
              f"{r.discrete_error:>14.6e} {ee:>7} {ed:>7}")
    if args.assert_rates:
        ok, parts = True, []
        for measure in ("energy", "discrete"):
            i, rate = lowest_rate([(r.h, getattr(r, measure + "_error"))
                                   for r in reports])
            ok = ok and rate >= RATE_FLOOR
            parts.append(f"{measure} {rate:.3f} "
                         f"(levels {levels[i]}->{levels[i + 1]})")
        print(f"lowest eoc: {', '.join(parts)} -> {'ok' if ok else 'FAIL'}")
        if not ok:
            return 1
    return 0


def cmd_verify(args) -> int:
    if args.beta is not None and not math.isfinite(args.beta):
        raise ValueError(f"--beta must be finite, got {args.beta}")
    # imported here so that run and convergence never load the property
    # suite, which only verify uses
    from .verify import run_all
    results = run_all(beta_override=args.beta)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def cmd_export_mesh(args) -> int:
    family = _family_from_args(args)
    target = Path(args.mesh_file or Path(args.out_dir)
                  / f"mesh_{family.kind}_L{args.level}.txt")
    # an unusable output path is refused before the mesh is built
    target.parent.mkdir(parents=True, exist_ok=True)
    mesh = generate(family, args.level)
    save_mesh(mesh, target)
    print(f"wrote {target} ({mesh.n_vertices} vertices, "
          f"{mesh.n_cells} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="hdivwave",
        description="Mass-lumped H(div) wave equation simulator",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one benchmark configuration")
    _add_mesh_options(p_run)
    _add_simulation_options(p_run)
    p_run.add_argument("--level", type=int, default=2,
                       help="refinement level")
    p_run.add_argument("--snapshot-every", type=int, default=0,
                       help="emit a velocity snapshot every k steps (0 = never)")
    p_run.add_argument("--grid-n", type=int, default=100,
                       help="snapshot grid points per axis")
    p_run.add_argument("--mesh-file", default=None,
                       help="text mesh to use instead of a generated one")
    p_run.add_argument("--dump-matrices", action="store_true",
                       help="write mass/stiffness in coordinate CSV format")

    p_conv = sub.add_parser("convergence", help="refinement study")
    _add_mesh_options(p_conv)
    _add_simulation_options(p_conv)
    p_conv.add_argument("--levels", default="0,1,2",
                        help="comma list or lo-hi range of levels")
    p_conv.add_argument("--assert", action="store_true", dest="assert_rates",
                        help="exit 1 unless both error measures converge at "
                             f"EOC >= {RATE_FLOOR} on every consecutive "
                             "pair of levels")

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--config", help="flat key = value config file")
    p_ver.add_argument("--beta", type=float, default=None,
                       help="override the vertex quadrature weight "
                            "(negative control)")

    p_exp = sub.add_parser("export-mesh", help="write a generated mesh "
                                               "in the text format")
    _add_mesh_options(p_exp)
    p_exp.add_argument("--level", type=int, default=2)
    p_exp.add_argument("--mesh-file", default=None,
                       help="output path (default: a file in --out-dir)")

    for p, func in ((p_run, cmd_run), (p_conv, cmd_convergence),
                    (p_ver, cmd_verify), (p_exp, cmd_export_mesh)):
        p.set_defaults(func=func)
        p.exit_on_error = False  # main reports a bad flag value in one line
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; values of the --config file it names become the
    defaults of every subcommand, so that explicit flags win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    parser = build_parser()
    if known.config:
        defaults = load_config(known.config, parser)
        for p in _subcommands(parser):
            p.set_defaults(**defaults)
    args, extra = parser.parse_known_args(argv)
    if extra:  # newer Pythons' parse_args would raise, not show usage
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(error_line(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
