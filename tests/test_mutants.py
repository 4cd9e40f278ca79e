"""Mutation checks: each mutant breaks the program in one place, and the
tests it names must notice.

    python tests/test_mutants.py --check

copies ``src`` to a temporary directory for each mutant, replaces the
mutant's source text (which must occur exactly once) and runs only the
mutant's tests against the copy, stopping at the first failure.  It
prints one line per mutant, ``name: killed by <test>`` or
``name: SURVIVED``, and exits 1 if any mutant survives or any source text
does not occur exactly once.  The test suite checks only the last
condition, which keeps the list from going stale.

A change that moves a mutated line updates its entry here.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_TL = "tests/test_timeloop.py::"
_ADVANCE = _TL + "test_advance_is_n_reference_steps_bit_for_bit"
_LUMPED_MASS = """\
    return _scatter(dofmap.ndof,
                    ((g.l2g[:, pair], Me[:, pair[:, None], pair][cls])
                     for g, (Me, _, cls) in zip(dofmap.groups, forms)
                     for pair in _lumped_pairs(g)))
"""

# name, file under src/hdivwave, source text, replacement, tests
MUTANTS = [
    ("lumped-beta-0.1", "quadrature.py",
     "LUMPED_BETA = 1.0 / 12.0", "LUMPED_BETA = 0.1",
     ["tests/test_quadrature.py::test_monomial_exactness"]),
    ("lumped-beta-1/16", "quadrature.py",
     "LUMPED_BETA = 1.0 / 12.0", "LUMPED_BETA = 1.0 / 16.0",
     ["tests/test_quadrature.py::test_monomial_exactness"]),
    ("lumped-mass-without-zeros", "assembly.py",
     _LUMPED_MASS, _LUMPED_MASS.replace("return", "M =", 1)
     + "    M.eliminate_zeros()\n    return M\n",
     ["tests/test_assembly.py::test_assembly_matches_the_triplet_form"]),
    ("no-touched-row-forcing", "timeloop.py",
     "            load[con.rows] += F[k]\n", "",
     [_TL + "test_windowed_steps_are_bit_identical_to_the_per_level_load"
      "[hybrid-none]"]),
    ("forcing-row-behind", "timeloop.py",
     "load[con.rows] += F[k]", "load[con.rows] += F[k - 1]",
     [_TL + "test_windowed_steps_are_bit_identical_to_the_per_level_load"
      "[hybrid-none]"]),
    ("boundary-level-behind", "timeloop.py",
     "g_curr, G[k + 2], t + tau", "g_curr, G[k + 1], t + tau",
     [_TL + "test_windowed_steps_are_bit_identical_to_the_per_level_load"
      "[hybrid-none]"]),
    ("no-damped-boundary-forcing", "timeloop.py",
     "            w[1] += self._d_con * gdot\n", "",
     [_TL + "test_damped_boundary_forcing_tracks_the_decaying_equilibrium"]),
    ("ku-prev-aliases-the-load", "timeloop.py",
     "Ku = load.copy()    # Ku_prev holds no forcing", "Ku = load",
     [_ADVANCE + "[none-data-mid-window]"]),
    ("matvec-without-zero-fill", "assembly.py",
     "    out.fill(0.0)\n", "",
     [_ADVANCE + "[none-no-data-mid-window]"]),
    ("times-j-index-swapped", "assembly.py",
     "np.multiply(J[..., i, 0], x[..., 0], out=o)",
     "np.multiply(J[..., 0, i], x[..., 0], out=o)",
     ["tests/test_assembly.py::test_point_map_matches_the_einsum_form"]),
    ("certificate-without-stiffness", "timeloop.py",
     "A = c * M - t2 * K", "A = c * M",
     [_TL + "test_certificate_agrees_with_the_limit_at_every_scale"]),
    ("certificate-without-margin", "timeloop.py",
     "c = (2.0 * SAFETY) ** 2 * (1.0 - 1e-8)", "c = (2.0 * SAFETY) ** 2",
     [_TL + "test_certificate_agrees_with_the_limit_at_every_scale"]),
    ("distinct-key-without-scale", "assembly.py",
     "key = np.hstack([self.J.reshape(self.n, 4), self.scale])",
     "key = self.J.reshape(self.n, 4)",
     [_TL + "test_distinct_cells_carry_every_distinct_cell_matrix"]),
    ("snapshot-offset", "driver.py",
     "n + snapshot_every - (n - 1) % snapshot_every",
     "n + snapshot_every - n % snapshot_every",
     ["tests/test_driver.py::test_snapshots_shape_and_times"]),
    ("guard-at-ten-times-blowup", "timeloop.py",
     "if not nrm <= BLOWUP:", "if not nrm <= 10 * BLOWUP:",
     [_TL + "test_guard_on_one_signed_large_state"]),
    ("damped-update-without-a", "timeloop.py",
     "u_next -= a * u_prev", "u_next -= u_prev",
     [_ADVANCE + "[constant-no-data-mid-window]"]),
]


def occurrences() -> dict[str, int]:
    """How often each mutant's source text occurs in its file."""
    source = {m[1]: (SRC / "hdivwave" / m[1]).read_text(encoding="utf-8")
              for m in MUTANTS}
    return {name: source[path].count(old)
            for name, path, old, _, _ in MUTANTS}


def killer(name: str, path: str, old: str, new: str,
           tests: list[str]) -> str | None:
    """The first named test that fails on the mutant, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "hdivwave" / path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src))
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
             "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if res.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.M)
    if res.returncode != 1 or failed is None:
        raise RuntimeError(f"{name}: pytest exited {res.returncode}\n"
                           f"{res.stdout}{res.stderr}")
    return failed.group(1)


def check() -> int:
    bad = {name: n for name, n in occurrences().items() if n != 1}
    for name, n in bad.items():
        print(f"{name}: source text occurs {n} times")
    survived = 0
    for mutant in MUTANTS:
        if mutant[0] in bad:
            continue
        test = killer(*mutant)
        print(f"{mutant[0]}: " + ("SURVIVED" if test is None
                                  else f"killed by {test}"), flush=True)
        survived += test is None
    return 1 if bad or survived else 0


def test_every_source_text_occurs_once():
    assert {name: n for name, n in occurrences().items() if n != 1} == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        sys.exit("usage: test_mutants.py --check")
    sys.exit(check())
