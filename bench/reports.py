"""Report model and the output check against recorded reports.

Every op yields a list of reports: the text of a CLI output file, the CLI's
captured standard output, or a library result rendered as CSV.  A report's
kind names its schema, which says which cells are *slots* (values that may
be bracketed) and which cells are results:

* a pair slot is a ``lo``/``hi`` column pair; it is exact when both cells are
  the same ``p/q`` rational, otherwise a bracket (``inf`` allowed);
* a value slot is one cell holding either an exact ``p/q`` or a float from an
  engine of stated relative accuracy, read as the bracket ``v(1 -+ tol)``;
* result columns hold exact ``p/q`` quantities (a float there is inexact);
* a whole-report result counts the report as one exact result (point dumps,
  pore histograms).

The check against a recorded report (``compare``):

* every byte outside the slots must be identical, which is tested through a
  SHA-256 digest of the report with its slots masked;
* a slot recorded exact must be byte-identical;
* a slot recorded as a bracket must overlap the new bracket, and a slot that
  became exact must lie inside the recorded bracket.

So a change that makes a number strictly more exact passes, while a one-digit
change to an exact cell or a disjoint bracket fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

# Documented relative accuracy of the split-half quantile engine
# (porestats.tilde_quantile_largest): "accurate to ~1e-12 relative".
FLOAT_VALUE_REL_TOL = 1e-12

MASK = "\x00slot\x00"


@dataclass(frozen=True)
class Report:
    label: str
    kind: str
    text: str


@dataclass(frozen=True)
class Schema:
    fmt: str  # "csv", "json" or "text"
    pairs: tuple = ()
    values: tuple = ()
    results: tuple = ()
    whole: bool = False


SCHEMAS = {
    "ap": Schema("csv", pairs=(("product_lo", "product_hi"),)),
    "a1": Schema("csv", pairs=(("value_lo", "value_hi"),)),
    "fraction": Schema("csv", pairs=(("lo", "hi"),)),
    "quantiles": Schema("csv", values=("value",)),
    "ls": Schema("csv", results=("L_s", "S_s", "ratio")),
    "moments": Schema("csv", results=("EX", "EXinv", "product")),
    "divergence": Schema("csv", results=("tilde_ratio",)),
    "binomial": Schema("csv", results=("max_dev",)),
    "pores": Schema("csv", whole=True),
    "fig1": Schema("csv", whole=True),
    "points": Schema("text", whole=True),
    "porosity": Schema("json", results=("achieved_mass", "threshold_length", "maximal_length")),
    "spec": Schema("text"),
    "text": Schema("text"),
}


class ReportError(ValueError):
    """A report that cannot be read under its schema."""


@dataclass(frozen=True)
class Value:
    """A reported number: exact when lo == hi came from one rational."""

    lo: Fraction | float
    hi: Fraction | float
    exact: bool

    def rel_width(self) -> float | None:
        """(hi - lo) / |hi| for a finite bracket, None for exact or unbounded values."""
        if self.exact or math.isinf(self.hi) or math.isinf(self.lo) or self.hi == 0:
            return None
        return float(self.hi - self.lo) / abs(float(self.hi))


@dataclass
class Parsed:
    skeleton_sha256: str
    slots: list = field(default_factory=list)  # tuples of cell strings
    results: list = field(default_factory=list)  # Value per result


def number(cell: str) -> Fraction | float:
    if cell in ("inf", "-inf"):
        return float(cell)
    if "/" in cell:
        return Fraction(cell)
    return float(cell)


def slot_value(slot: tuple) -> Value:
    if len(slot) == 2:
        lo, hi = number(slot[0]), number(slot[1])
        exact = isinstance(lo, Fraction) and isinstance(hi, Fraction) and lo == hi
        if lo > hi:
            raise ReportError(f"bracket {slot} has lo > hi")
        return Value(lo, hi, exact)
    v = number(slot[0])
    if isinstance(v, Fraction):
        return Value(v, v, True)
    tol = abs(v) * FLOAT_VALUE_REL_TOL
    return Value(v - tol, v + tol, False)


def result_value(cell: str) -> Value:
    v = number(cell)
    return Value(v, v, isinstance(v, Fraction))


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def csv_rows(text: str) -> list[dict]:
    """Rows of a CSV report as header -> cell dictionaries."""
    return list(csv.DictReader(io.StringIO(text)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse(report: Report) -> Parsed:
    schema = SCHEMAS[report.kind]
    if schema.fmt == "csv":
        return _parse_csv(report, schema)
    out = Parsed(_sha(report.text))
    if schema.fmt == "json":
        try:
            payload = json.loads(report.text)
        except json.JSONDecodeError as err:
            raise ReportError(f"{report.label}: invalid JSON: {err}") from err
        for key in schema.results:
            if payload.get(key) is not None:
                out.results.append(result_value(payload[key]))
    if schema.whole:
        out.results.append(Value(Fraction(0), Fraction(0), True))
    return out


def _parse_csv(report: Report, schema: Schema) -> Parsed:
    rows = list(csv.reader(io.StringIO(report.text)))
    if csv_text(rows) != report.text:
        raise ReportError(f"{report.label}: not in the canonical CSV form")
    if not rows:
        raise ReportError(f"{report.label}: empty CSV report")
    header = rows[0]
    col = {name: i for i, name in enumerate(header)}
    try:
        pair_idx = [(col[a], col[b]) for a, b in schema.pairs]
        value_idx = [col[v] for v in schema.values]
        result_idx = [col[r] for r in schema.results]
    except KeyError as err:
        raise ReportError(f"{report.label}: missing column {err}") from err
    masked_cols = {i for pair in pair_idx for i in pair} | set(value_idx)
    out = Parsed("")
    masked = [header]
    try:
        for row in rows[1:]:
            if len(row) != len(header):
                raise ReportError(f"{report.label}: ragged row {row}")
            for a, b in pair_idx:
                out.slots.append((row[a], row[b]))
            for v in value_idx:
                out.slots.append((row[v],))
            for r in result_idx:
                if row[r]:
                    out.results.append(result_value(row[r]))
            masked.append([MASK if i in masked_cols else c for i, c in enumerate(row)])
        out.results.extend(slot_value(s) for s in out.slots)
    except ReportError:
        raise
    except (ValueError, ZeroDivisionError) as err:
        raise ReportError(f"{report.label}: unreadable number: {err}") from err
    if schema.whole:
        out.results.append(Value(Fraction(0), Fraction(0), True))
    out.skeleton_sha256 = _sha(csv_text(masked))
    return out


def record(report: Report) -> dict:
    """The reference entry stored for one report."""
    parsed = parse(report)
    return {
        "label": report.label,
        "kind": report.kind,
        "skeleton_sha256": parsed.skeleton_sha256,
        "slots": [list(s) for s in parsed.slots],
    }


def compare(reports: list[Report], recorded: list[dict], parsed: list[Parsed] | None = None) -> list[str]:
    """Problems found comparing an op's reports with its recorded reports."""
    if parsed is None:
        parsed = [parse(r) for r in reports]
    labels = [r.label for r in reports]
    rec_labels = [r["label"] for r in recorded]
    if labels != rec_labels:
        return [f"reports {labels} differ from the recorded {rec_labels}"]
    problems = []
    for report, now, rec in zip(reports, parsed, recorded):
        where = report.label
        if now.skeleton_sha256 != rec["skeleton_sha256"]:
            problems.append(f"{where}: exact cells differ from the recorded report")
        rec_slots = [tuple(s) for s in rec["slots"]]
        if len(now.slots) != len(rec_slots):
            problems.append(f"{where}: {len(now.slots)} bracketable values, recorded {len(rec_slots)}")
            continue
        for i, (new, old) in enumerate(zip(now.slots, rec_slots)):
            problem = compare_slot(new, old)
            if problem:
                problems.append(f"{where}: value {i}: {problem}")
    return problems


def compare_slot(new: tuple, old: tuple) -> str | None:
    was = slot_value(old)
    now = slot_value(new)
    if was.exact:
        if new != old:
            return f"exact value {old} changed to {new}"
        return None
    if now.exact:
        if not was.lo <= now.lo <= was.hi:
            return f"exact value {new} lies outside the recorded bracket {old}"
        return None
    if now.lo > was.hi or was.lo > now.hi:
        return f"bracket {new} is disjoint from the recorded bracket {old}"
    return None
