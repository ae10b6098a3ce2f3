"""Output check: every returned placement is legal and matches its
reference.

References are HPWL and bounding area per (engine, circuit, seed),
recorded by ``python3 perfbench/reference.py`` from the same default
``place()`` flows the workloads run.  The flows are deterministic
except where a MILP solve stops at its wall-clock limit; such ops are
*limit-bound*: a mismatch there is reported by name with its HPWL,
not counted as a failure, because it is the known defect the numbers
must keep showing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: relative tolerance on HPWL/area against the recorded reference
REL_TOL = 1e-6

#: summed pairwise overlap above this (um^2) is an illegal placement
OVERLAP_TOL = 1e-6


def reference_key(engine: str, circuit: str, seed: int) -> str:
    return f"{engine}|{circuit}|{seed}"


def load_references() -> "dict[str, list[float]]":
    with REFERENCE_PATH.open() as handle:
        return json.load(handle)["values"]


@dataclass
class Verdict:
    """Outcome of checking one placement."""

    ok: bool
    hpwl: float = math.nan
    area: float = math.nan
    problems: "list[str]" = field(default_factory=list)
    limit_bound_mismatch: bool = False


def check_placement(placement: Any, engine: str, circuit: str, seed: int,
                    references: "dict[str, list[float]]",
                    limit_bound: bool) -> Verdict:
    """Audit one placement and compare it with its reference."""
    from repro.placement.audit import audit_constraints
    from repro.placement.metrics import bounding_area, hpwl, total_overlap

    verdict = Verdict(ok=True, hpwl=hpwl(placement),
                      area=bounding_area(placement))
    overlap = total_overlap(placement)
    if overlap > OVERLAP_TOL:
        verdict.problems.append(f"overlap {overlap:.6g} um2")
    audit = audit_constraints(placement)
    if not audit.ok:
        verdict.problems.extend(audit.violations)
    ref = references.get(reference_key(engine, circuit, seed))
    if ref is None:
        verdict.problems.append("no reference recorded")
    else:
        for label, got, want in (("hpwl", verdict.hpwl, ref[0]),
                                 ("area", verdict.area, ref[1])):
            if not math.isclose(got, want, rel_tol=REL_TOL):
                if limit_bound:
                    verdict.limit_bound_mismatch = True
                else:
                    verdict.problems.append(
                        f"{label} {got:.6f} != reference {want:.6f}")
    verdict.ok = not verdict.problems
    return verdict
