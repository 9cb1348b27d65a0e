"""The four benchmark workloads: their operations, inputs and pinned references.

Every operation is one ``trilag`` command line, run through
``trilag.cli.main`` with default flags only (no ``--threads``, ``--delta``,
``--method`` or ``--restarts``), so the whole load stays in one process.
Each operation carries a check of its exit code and JSON report against a
pinned reference; a mismatch fails the operation.

Only ``instances`` draws its inputs from the seed; the other workloads have
fixed inputs and record the seed unused.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BOUND = "3/32"
INSTANCES = 1000


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[int, dict | None], str | None]  # error message, or None when correct


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[int, Path], list[Op]]  # (seed, input directory) -> operations
    # functions expected to do their work here (checked by check.py)
    heavy: tuple[str, ...]


def _expect(code: int, report: dict | None, **fields) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report"
    for key, want in fields.items():
        got = report.get(key)
        if callable(want) and not want(got):
            return f"{key} = {got!r} fails its reference"
        if not callable(want) and got != want:
            return f"{key} = {got!r}, expected {want!r}"
    return None


def _certify_ops(seed: int, workdir: Path) -> list[Op]:
    # The leaf format is left unchecked on purpose: it is expected to change.
    def check(code, report):
        return _expect(code, report, result=lambda r: isinstance(r, str) and r.startswith("CERTIFIED"))

    return [Op(["certify"], check)]


def _sweep_ops(seed: int, workdir: Path) -> list[Op]:
    def check_enumerate(code, report):
        return _expect(
            code, report, n=5, count=59049, violations=[],
            max_cf_density="4/5", max_uniform_lcf="11/125",
        )

    def check_fdf(code, report):
        return _expect(code, report, n=5, count=59049, c4_free_count=56799, counterexamples=[])

    return [
        Op(["enumerate", "--n", "5"], check_enumerate),
        Op(["validate-fdf", "--n", "5"], check_fdf),
    ]


def _optimize_ops(seed: int, workdir: Path) -> list[Op]:
    def check(n):
        return lambda code, report: _expect(code, report, n=n, value_exact=BOUND)

    return [Op(["optimize", "--n", str(n)], check(n)) for n in range(2, 13)]


def random_orientation(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Each vertex pair independently absent, forward or backward."""
    arcs = []
    for u, v in itertools.combinations(range(n), 2):
        r = rng.randint(0, 2)
        if r == 1:
            arcs.append((u, v))
        elif r == 2:
            arcs.append((v, u))
    return arcs


def random_weights(rng: random.Random, n: int, max_part: int = 30) -> list[Fraction]:
    """A random exact rational point of the simplex."""
    while True:
        parts = [rng.randint(0, max_part) for _ in range(n)]
        total = sum(parts)
        if total:
            return [Fraction(a, total) for a in parts]


def _write(path: Path, text: str) -> None:
    """Write ``text`` over the file in place, truncating only after the write.

    Truncating first would free the file's block and allocate a new one;
    on the ext4 host the benchmark was tuned on that cost 0.1-0.3 ms a file
    and varied 3-fold from run to run.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    with os.fdopen(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def write_instances(seed: int, workdir: Path, count: int = INSTANCES) -> list[tuple[Path, Path]]:
    """Write ``count`` seeded (graph, weights) file pairs, n uniform on 2..8."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(count):
        n = rng.randint(2, 8)
        arcs = random_orientation(rng, n)
        weights = random_weights(rng, n)
        graph_path = workdir / f"g{i:04d}.txt"
        weights_path = workdir / f"w{i:04d}.txt"
        _write(graph_path, f"digraph {n}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        _write(weights_path, "".join(f"{w}\n" for w in weights))
        pairs.append((graph_path, weights_path))
    return pairs


def _instances_ops(seed: int, workdir: Path) -> list[Op]:
    def check(code, report):
        return _expect(code, report, all_pass=True)

    return [
        Op(["pipeline", str(g), str(w)], check) for g, w in write_instances(seed, workdir)
    ]


WORKLOADS = {
    "certify": Workload(
        make_ops=_certify_ops,
        heavy=(
            "polynomials.bernstein_min", "polynomials.interval_box_bounds",
            "polynomials.h_polynomial", "certify.certify", "certify.bernstein_lower_bound",
            "certify.interval_lower_bound", "certify.default_equality_candidates",
            "simplex.maximize", "simplex.project_to_simplex", "simplex.gradient",
            "simplex.closed_form", "cli.main",
        ),
    ),
    "sweep": Workload(
        make_ops=_sweep_ops,
        heavy=(
            "graphs.build_f", "graphs.build_cf", "graphs.build_bf", "graphs.underlying",
            "graphs.has_induced_directed_c4", "graphs.has_independent_4set",
            "lagrangian.lagrangian_cf", "lagrangian.lagrangian_bf",
            "harness.orientation_from_index", "harness.enumerate_orientations",
            "harness.validate_fdf_family", "cli.main",
        ),
    ),
    "instances": Workload(
        make_ops=_instances_ops,
        heavy=(
            "reduction.neighbor_sums", "reduction.merge", "reduction.reduce_to_complete",
            "lagrangian.lagrangian_cf", "lagrangian.lagrangian_bf",
            "polynomials.h_polynomial", "polynomials.Poly3.evaluate",
            "certify.check_point_exact", "simplex.closed_form", "simplex.trivariate_g",
            "simplex.majorization_bound_check", "harness.pipeline_report",
            "fileio.parse_graph", "fileio.parse_weights", "cli.main",
        ),
    ),
    "optimize": Workload(
        make_ops=_optimize_ops,
        heavy=(
            "simplex.maximize", "simplex.project_to_simplex", "simplex.gradient",
            "simplex.closed_form", "cli.main",
        ),
    ),
}
