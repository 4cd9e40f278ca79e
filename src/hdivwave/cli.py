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
from dataclasses import dataclass
from pathlib import Path

from .analysis import lowest_rate
from .driver import (
    convergence_study,
    make_benchmark,
    run_benchmark,
    write_convergence_csv,
    write_energy_csv,
    write_report_csv,
    write_snapshot_csv,
)
from .assembly import (
    AssemblyError,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
)
from .mesh import FAMILIES, MeshFamily, MeshError, generate, load_mesh, save_mesh
from .timeloop import InstabilityError
from .verify import run_all

_CONFIG_TYPES = {
    "mesh-family": str,
    "level": int,
    "levels": str,
    "base-divisions": int,
    "perturbation": float,
    "seed": int,
    "tau": str,
    "T": float,
    "damping": float,
    "benchmark": str,
    "out-dir": str,
    "snapshot-every": int,
    "mesh-file": str,
    "dump-matrices": bool,
    "assert": bool,
    "beta": float,
}

# --assert holds every consecutive pair of levels to this order
RATE_FLOOR = 1.8

_DEST = {
    "assert": "assert_rates",
    "T": "T",
}


def _dest(key: str) -> str:
    return _DEST.get(key, key.replace("-", "_"))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _CONFIG_TYPES[key]
        out[_dest(key)] = _parse_bool(value) if typ is bool else typ(value)
    return out


def _parse_levels(text: str) -> list[int]:
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_tau(text: str):
    return "auto" if text == "auto" else float(text)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a simulation command needs."""

    family: MeshFamily
    levels: tuple[int, ...]
    tau: float | str
    T: float
    damping: float
    benchmark: str
    out_dir: Path
    snapshot_every: int
    mesh_file: str | None
    dump_matrices: bool
    assert_rates: bool

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"--T must be positive and finite, got {self.T}")
        if self.tau != "auto" and not 0 < self.tau < math.inf:
            raise ValueError(f"--tau must be positive and finite, got {self.tau}")
        if not self.levels:
            raise ValueError("need at least one level")
        if not 0 <= self.damping < math.inf:
            raise ValueError(f"--damping must be >= 0 and finite, got {self.damping}")
        if self.snapshot_every < 0:
            raise ValueError(f"--snapshot-every must be >= 0, got {self.snapshot_every}")


def _config_from_args(args) -> RunConfig:
    family = MeshFamily(
        kind=args.mesh_family,
        base_divisions=args.base_divisions,
        perturbation=args.perturbation,
        seed=args.seed,
    )
    if getattr(args, "levels", None) is not None:
        levels = _parse_levels(args.levels)
    else:
        levels = [args.level]
    return RunConfig(
        family=family,
        levels=tuple(levels),
        tau=_parse_tau(str(args.tau)),
        T=args.T,
        damping=args.damping,
        benchmark=args.benchmark,
        out_dir=Path(args.out_dir),
        snapshot_every=args.snapshot_every,
        mesh_file=args.mesh_file,
        dump_matrices=args.dump_matrices,
        assert_rates=getattr(args, "assert_rates", False),
    )


def _add_common(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--mesh-family", choices=FAMILIES,
                   default="structured-triangle")
    p.add_argument("--base-divisions", type=int, default=2,
                   help="grid divisions at level 0")
    p.add_argument("--perturbation", type=float, default=0.2,
                   help="vertex jitter for the perturbed family, as a "
                        "fraction of h in [0, sqrt(2)/4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", default="auto",
                   help="time step, or 'auto' for 0.9 times the stability "
                        "limit from the element eigenvalue bound")
    p.add_argument("--T", type=float, default=2.0, dest="T",
                   help="final time")
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--benchmark", choices=("planewave", "zero"),
                   default="planewave")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="emit a velocity snapshot every k steps (0 = never)")
    p.add_argument("--mesh-file", default=None,
                   help="text mesh to use instead of a generated one")
    p.add_argument("--dump-matrices", action="store_true",
                   help="write mass/stiffness in coordinate CSV format")
    p.set_defaults(**defaults)


def _write_coo_csv(matrix, path: Path) -> None:
    coo = matrix.tocoo()
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("row,col,value\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{int(i)},{int(j)},{float(v)!r}\n")


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    bench = make_benchmark(cfg.benchmark)
    mesh = load_mesh(cfg.mesh_file) if cfg.mesh_file else None
    level = cfg.levels[0]
    try:
        res = run_benchmark(cfg.family, level, bench, cfg.tau, cfg.T,
                            damping=cfg.damping,
                            snapshot_every=cfg.snapshot_every,
                            energy_every=10, mesh=mesh)
    except (AssemblyError, InstabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_energy_csv(res.energy_trace, cfg.out_dir / "energy.csv")
    if res.report is not None:
        write_report_csv(res.report, cfg.out_dir / "report.csv")
        print(f"h = {res.report.h:.6g}  tau = {res.tau:.6g}  "
              f"energy_error = {res.report.energy_error:.6e}  "
              f"discrete_error = {res.report.discrete_error:.6e}")
    for i, (t, grid) in enumerate(res.snapshots):
        write_snapshot_csv(grid, cfg.out_dir / f"snapshot_{i:04d}.csv")
    if res.snapshots:
        with open(cfg.out_dir / "snapshots.csv", "w", newline="",
                  encoding="utf-8") as f:
            f.write("file,t\n")
            for i, (t, _) in enumerate(res.snapshots):
                f.write(f"snapshot_{i:04d}.csv,{float(t)!r}\n")
    if cfg.dump_matrices:
        dofmap = build_dofmap(res.mesh)
        _write_coo_csv(assemble_lumped_mass(dofmap).tocsr(),
                       cfg.out_dir / "mass.csv")
        _write_coo_csv(assemble_stiffness(dofmap),
                       cfg.out_dir / "stiffness.csv")
    return 0


def cmd_convergence(args) -> int:
    cfg = _config_from_args(args)
    if cfg.assert_rates and len(cfg.levels) < 3:
        print("error: --assert needs at least 3 levels", file=sys.stderr)
        return 2
    bench = make_benchmark(cfg.benchmark)
    try:
        reports = convergence_study(cfg.family, list(cfg.levels), bench,
                                    cfg.tau, cfg.T, damping=cfg.damping)
    except (InstabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_convergence_csv(reports, cfg.out_dir / "convergence.csv")
    print(f"{'h':>12} {'energy_err':>14} {'discrete_err':>14} "
          f"{'eoc_e':>7} {'eoc_d':>7}")
    for r in reports:
        ee = "" if r.eoc_energy is None else f"{r.eoc_energy:.2f}"
        ed = "" if r.eoc_discrete is None else f"{r.eoc_discrete:.2f}"
        print(f"{r.h:>12.6g} {r.energy_error:>14.6e} "
              f"{r.discrete_error:>14.6e} {ee:>7} {ed:>7}")
    if cfg.assert_rates:
        ok, parts = True, []
        for measure in ("energy", "discrete"):
            i, rate = lowest_rate(reports, measure)
            ok = ok and rate >= RATE_FLOOR
            parts.append(f"{measure} {rate:.3f} "
                         f"(levels {cfg.levels[i]}->{cfg.levels[i + 1]})")
        print(f"lowest eoc: {', '.join(parts)} -> {'ok' if ok else 'FAIL'}")
        if not ok:
            return 1
    return 0


def cmd_verify(args) -> int:
    results = run_all(beta_override=args.beta)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def cmd_export_mesh(args) -> int:
    cfg = _config_from_args(args)
    try:
        mesh = generate(cfg.family, cfg.levels[0])
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.mesh_file:
        target = Path(cfg.mesh_file)
        target.parent.mkdir(parents=True, exist_ok=True)
    else:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        target = cfg.out_dir / \
            f"mesh_{cfg.family.kind}_L{cfg.levels[0]}.txt"
    save_mesh(mesh, target)
    print(f"wrote {target} ({mesh.n_vertices} vertices, "
          f"{mesh.n_cells} cells)")
    return 0


def build_parser(defaults: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdivwave",
        description="Mass-lumped H(div) wave equation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one benchmark configuration")
    _add_common(p_run, defaults)
    p_run.add_argument("--level", type=int, default=2,
                       help="refinement level")
    p_run.set_defaults(func=cmd_run, levels=None)

    p_conv = sub.add_parser("convergence", help="refinement study")
    _add_common(p_conv, defaults)
    p_conv.add_argument("--levels", default="0,1,2",
                        help="comma list or lo-hi range of levels")
    p_conv.add_argument("--assert", action="store_true", dest="assert_rates",
                        help="exit 1 unless both error measures converge at "
                             f"EOC >= {RATE_FLOOR} on every consecutive "
                             "pair of levels")
    p_conv.set_defaults(func=cmd_convergence)
    if "levels" in defaults:
        p_conv.set_defaults(levels=defaults["levels"])

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--config", help="flat key = value config file")
    p_ver.add_argument("--beta", type=float, default=None,
                       help="override the vertex quadrature weight "
                            "(negative control)")
    if "beta" in defaults:
        p_ver.set_defaults(beta=defaults["beta"])
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export-mesh", help="write a generated mesh "
                                               "in the text format")
    _add_common(p_exp, defaults)
    p_exp.add_argument("--level", type=int, default=2)
    p_exp.set_defaults(func=cmd_export_mesh, levels=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        defaults = load_config(known.config) if known.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser(defaults)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MeshError, OSError, ValueError) as exc:
        # bad config values, unreadable mesh files, unknown benchmarks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
