"""Checks on the experiment tables, independent of the code under test.

Every check returns a list of failure messages; an empty list passes.
Tables are the six-row CSVs of ``ComparisonResult.to_csv``.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import REFERENCE_DIR

ACTIVE, PASSIVE = "h(S,P)", "constant h"
COHORTS = ("All samples", "Default", "No-default")
COLUMNS = ("n", "mean", "std", "q023", "q977")

# crisis-reciprocal's published default fraction and the band test_08 allows
CRISIS_DEFAULT_FRAC, CRISIS_BAND = 0.8542, 0.05


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_table(csv: str) -> dict:
    """``{(cohort, side): {column: float or None}}``; raises ValueError on
    a table that does not have the six expected rows."""
    lines = csv.splitlines()
    if not lines or lines[0] != "label," + ",".join(COLUMNS):
        raise ValueError("table header differs from label,n,mean,std,q023,q977")
    rows = {}
    for line in lines[1:]:
        label, *cells = line.rsplit(",", len(COLUMNS))
        cohort, _, side = label.partition(" + ")
        if len(cells) != len(COLUMNS) or cohort not in COHORTS or side not in (ACTIVE, PASSIVE):
            raise ValueError(f"unexpected table row {line!r}")
        rows[cohort, side] = {k: float(v) if v else None for k, v in zip(COLUMNS, cells)}
    if len(rows) != 6:
        raise ValueError(f"table has {len(rows)} distinct rows, not 6")
    return rows


def check_conservation(table: dict, n_paths: int) -> list:
    """All / Default / No-default sizes add up, on both sides alike."""
    errs = []
    for side in (ACTIVE, PASSIVE):
        n_all, n_def, n_no = (table[c, side]["n"] for c in COHORTS)
        if n_all != n_paths or n_def + n_no != n_all:
            errs.append(f"{side}: cohorts {n_def:g} + {n_no:g} != all {n_all:g} "
                        f"(paths {n_paths})")
    if table["Default", ACTIVE]["n"] != table["Default", PASSIVE]["n"]:
        errs.append("default cohort sizes differ between the two sides")
    return errs


def _above(table, cohort, stat, hi, lo, strict) -> list:
    a, p = table[cohort, hi][stat], table[cohort, lo][stat]
    ok = a is not None and p is not None and (a > p if strict else a >= p)
    return [] if ok else [f"{cohort} {stat}: {hi} {a} {'>' if strict else '>='} {lo} {p} fails"]


def check_patterns(workload: str, table: dict, n_paths: int) -> list:
    """The active-versus-passive patterns of tests/test_acceptance.py."""
    if workload == "log-interior":
        return (_above(table, "All samples", "mean", ACTIVE, PASSIVE, False)
                + _above(table, "All samples", "std", ACTIVE, PASSIVE, False))
    if workload == "log-corner":
        frac = table["Default", ACTIVE]["n"] / n_paths
        errs = [] if abs(frac - CRISIS_DEFAULT_FRAC) <= CRISIS_BAND else [
            f"default fraction {frac:.4f} outside {CRISIS_DEFAULT_FRAC} +- {CRISIS_BAND}"]
        return (errs + _above(table, "Default", "mean", ACTIVE, PASSIVE, True)
                + _above(table, "No-default", "mean", PASSIVE, ACTIVE, True))
    return []


def max_rel_err(table: dict, ref: dict) -> float:
    """Largest relative difference of any statistic from the reference."""
    worst = 0.0
    for key, ref_row in ref.items():
        for col, want in ref_row.items():
            got = table[key][col]
            if got == want:
                continue
            if got is None or want is None:
                return math.inf
            worst = max(worst, abs(got - want) / abs(want) if want else math.inf)
    return worst


def load_references(directory=REFERENCE_DIR) -> dict:
    """``{workload: {"seed", "n_paths", "csv", "csv_sha256", "rng_digest"}}``."""
    index = json.loads((directory / "reference.json").read_text())
    refs = {}
    for name, entry in index["workloads"].items():
        csv = (directory / f"{name}.csv").read_text()
        refs[name] = dict(entry, csv=csv)
    return refs


def check_reference(csv: str, digest: str, ref: dict) -> tuple:
    """``(max_rel_err, errors)`` of a table and bundle digest against the
    reference recorded at the seed commit."""
    errs = []
    if sha256(ref["csv"]) != ref["csv_sha256"]:
        errs.append("stored reference CSV does not match its recorded sha256")
    try:
        err = max_rel_err(parse_table(csv), parse_table(ref["csv"]))
    except ValueError as exc:
        return math.inf, errs + [f"reference table unreadable: {exc}"]
    if sha256(csv) != ref["csv_sha256"]:
        errs.append(f"table differs from the reference (max relative error {err:.3g})")
    if digest != ref["rng_digest"]:
        errs.append("rng_digest differs from the reference")
    return err, errs
