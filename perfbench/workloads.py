"""The four pinned CLI workloads and the starting point each seed selects.

Seed 0 runs the config's own starting point.  Seed s > 0 replaces it with
points[(s - 1) % len(points)].  Work grows with the canonical height of the
starting point, so each list holds only low-height rationals whose runs took
within about 3% of the same time at the pinned depth when the lists were
chosen (Python 3.11, 2 cores); the point still changes every coordinate,
gcd, hit and verdict.  census-tree keeps point 3 for every seed: its nearest
candidate, -3, takes 7% longer at depth 11, and every other point of small
height at least 25% longer or shorter, which would widen the seed-to-seed
spread past a third of the wall_s bound.  Work counts are still reported per
seed, because the points do not do identical work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str          # path relative to the repository root
    depth: int           # pinned --depth
    points: tuple        # starting points for seeds > 0
    why: str

    def point_for_seed(self, root: Path, seed: int) -> str:
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if seed == 0:
            return str(json.loads((root / self.config).read_text(encoding="utf-8"))["point"])
        return self.points[(seed - 1) % len(self.points)]

    def shipped_depth(self, root: Path) -> int:
        return int(json.loads((root / self.config).read_text(encoding="utf-8"))["depth"])


WORKLOADS = {w.name: w for w in (
    Workload(
        "census-tree", "census", "configs/bounds_mixed.json", 11,
        ("3",),
        "deduplicated 4,095-node tree with mid-size coordinates: normalization "
        "gcds, ProjPoint.affine in the S-integrality loop, homogeneous evaluation"),
    Workload(
        "orbit-dump", "orbit", "configs/census_hypothesis_pair.json", 11,
        ("1/2", "2"),
        "same tree used as a writer: a 41 MB CSV of decimal big integers, so the "
        "orbits/cli report path and memory held for output dominate"),
    Workload(
        "gamma-scan", "gamma", "configs/bounds_mixed.json", 15,
        ("-3", "1/2", "-1/2", "3"),
        "one periodic-word orbit growing toward the 10^6-bit cap, exact Fraction "
        "chordal distances and certified signs; no tree walk, no serialization"),
    Workload(
        "system-height-tree", "system-height", "configs/bounds_mixed.json", 11,
        ("3/2", "3"),
        "the separate stack walker in heights plus LogExpr.interval over 2,048 "
        "large atoms"),
)}
