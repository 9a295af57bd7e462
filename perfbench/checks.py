"""Output checks for one benchmark repetition.

Each check returns a list of problems; an empty list means the output is
correct. The checks read only what the program wrote (its CSV and the
regrets the repetition reports) and recompute the bounds from the workload
inputs, not from the library.
"""

from __future__ import annotations

import math

# Final-row values may move in the last bits (a fused kernel reorders sums),
# but not by more than this.
REL_TOL = 1e-6
ABS_TOL = 1e-12
# Last-iterate rate certificate: r_tan(x_{t+1/2}) <= 55 D / (eta t) for t >= 2.
RATE_CONSTANT = 55.0
ADVERSARIAL_HEADER = "t,regret"


def recorded_rounds(T, stride):
    """Rows are written at 1, 1+stride, ... and always at T."""
    return sorted(set(range(1, T + 1, stride)) | {T})


def _close(got, want):
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def parse_csv(text, expected_header):
    """Split a CSV into (rows as {column: float or None}, problems)."""
    problems = []
    if not text.endswith("\n"):
        problems.append("CSV does not end with a newline")
    lines = text.split("\n")[:-1] or [""]
    if lines[0] != expected_header:
        return [], problems + [f"header {lines[0]!r} != {expected_header!r}"]
    columns = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            problems.append(f"line {number}: {len(cells)} cells, expected {len(columns)}")
            continue
        try:
            values = [float(c) if c else None for c in cells]
        except ValueError:
            problems.append(f"line {number}: unparsable cell")
            continue
        if any(v is not None and not math.isfinite(v) for v in values):
            problems.append(f"line {number}: non-finite cell")
        rows.append(dict(zip(columns, values)))
    return rows, problems


def check_rounds(rows, T, stride):
    ts = [row["t"] for row in rows]
    if ts != recorded_rounds(T, stride):
        return [f"t column holds {len(ts)} rows, not the recorded rounds of T={T}, stride={stride}"]
    return []


def check_reference(values, reference):
    """Compare named final values with the stored reference."""
    problems = []
    for name, want in reference.items():
        got = values.get(name)
        if (got is None) != (want is None) or (got is not None and not _close(got, want)):
            problems.append(f"final {name} = {got!r}, reference {want!r}")
    return problems


def check_selfplay(text, header, T, stride, rate_D=None, reference=None):
    """Self-play CSV: schema, recorded rounds, finite cells, the rate
    certificate when ``rate_D`` is given, and the final row against
    ``reference`` when given."""
    rows, problems = parse_csv(text, header)
    problems += check_rounds(rows, T, stride)
    if rate_D is not None:
        for row in rows:
            t = row["t"]
            if t >= 2 and row["r_tan"] > RATE_CONSTANT * rate_D / (row["eta_1"] * t):
                problems.append(f"t={t:.0f}: r_tan {row['r_tan']!r} above 55 D/(eta t)")
                break
    if reference is not None and rows:
        problems += check_reference(rows[-1], reference)
    return problems


def check_adversarial(text, T, stride, eag_regret, reference=None):
    """Regret CSV of the adaptive learner, and the eag regret, which the
    linear-regret construction forces to at least T/2."""
    rows, problems = parse_csv(text, ADVERSARIAL_HEADER)
    problems += check_rounds(rows, T, stride)
    if not eag_regret >= T / 2.0:
        problems.append(f"eag regret {eag_regret!r} < T/2 = {T / 2.0}")
    if reference is not None and rows:
        problems += check_reference(
            {"regret": rows[-1]["regret"], "eag_regret": eag_regret}, reference)
    return problems
