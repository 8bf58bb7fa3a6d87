"""Season results ingestion and verdicts against simulated benchmarks.

Actual season outcomes are compared with the simulated 95% intervals:
an entrant scoring above the interval exceeded expectations, inside it
met them, below it fell short.  The package ships the completed 2025
season as a regression corpus; elite status is part of the data, not
the code, since the set of front-running teams changes over the years.
"""

import csv
import math
from dataclasses import dataclass
from importlib import resources

from .calibration import DRIVER_CLASSES

__all__ = [
    "ENTITIES", "OUTCOMES", "ARROWS", "CSV_FIELDS", "VERDICT_FIELDS",
    "SeasonRecord", "Verdict", "classify", "classify_season",
    "ingest_results", "load_bundled_results",
    "markdown_table", "markdown_report", "verdict_rows",
]

ENTITIES = ("driver", "team")
OUTCOMES = ("above", "meets", "below")
ARROWS = {"above": "↑", "meets": "→", "below": "↓"}
CSV_FIELDS = ("name", "team", "class", "points", "entity")
VERDICT_FIELDS = ("name", "team", "class", "entity", "points", "ci_low", "ci_high", "outcome")

BUNDLED_RESULTS = "season_2025.csv"


@dataclass(frozen=True)
class SeasonRecord:
    """One entrant's actual season: name, team, class and points."""

    name: str
    team: str
    entrant_class: str
    points: float
    entity: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("record needs a name")
        if self.entity not in ENTITIES:
            raise ValueError(f"unknown entity {self.entity!r}; expected one of {ENTITIES}")
        if self.entrant_class not in DRIVER_CLASSES:
            raise ValueError(
                f"unknown class {self.entrant_class!r}; expected one of {DRIVER_CLASSES}"
            )
        if self.entity == "driver" and not self.team:
            raise ValueError(f"driver record {self.name!r} needs a team name")
        if not math.isfinite(self.points):
            raise ValueError(f"points must be finite, got {self.points!r}")
        if not self.points >= 0:
            raise ValueError(f"points must be non-negative, got {self.points!r}")

    @property
    def category(self):
        """Benchmark category the record is judged against."""
        return f"{self.entrant_class}_{self.entity}"


@dataclass(frozen=True)
class Verdict:
    """A record, the benchmark it was judged against and the outcome."""

    record: SeasonRecord
    benchmark: object
    outcome: str

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")

    @property
    def arrow(self):
        return ARROWS[self.outcome]


def classify(record, benchmark):
    """Judge one record against one benchmark summary.

    Points strictly above the interval's upper endpoint are "above",
    strictly below the lower endpoint "below", and anything on or
    inside the endpoints "meets".
    """
    if record.category != benchmark.category:
        raise ValueError(
            f"record {record.name!r} is {record.category}, benchmark is {benchmark.category}"
        )
    if record.points > benchmark.ci_high:
        outcome = "above"
    elif record.points < benchmark.ci_low:
        outcome = "below"
    else:
        outcome = "meets"
    return Verdict(record=record, benchmark=benchmark, outcome=outcome)


def classify_season(records, benchmarks):
    """Classify every record, preserving input order.

    ``benchmarks`` maps category names to ``SimulationSummary``
    objects; a record whose category has no benchmark is an error that
    names the offending record.
    """
    verdicts = []
    for record in records:
        benchmark = benchmarks.get(record.category)
        if benchmark is None:
            raise ValueError(f"no benchmark for {record.category} (record {record.name!r})")
        verdicts.append(classify(record, benchmark))
    return verdicts


def ingest_results(source):
    """Parse season records from a CSV text stream.

    The stream must carry the header ``name,team,class,points,entity``.
    Malformed rows raise ``ValueError`` naming the line and field;
    duplicate names within an entity are rejected.
    """
    reader = csv.DictReader(source)
    header = reader.fieldnames
    if header is None:
        raise ValueError("results stream is empty")
    if tuple(header) != CSV_FIELDS:
        raise ValueError(f"expected header {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}")

    records = []
    seen = set()
    for row in reader:
        line = reader.line_num
        if None in row or any(value is None for value in row.values()):
            raise ValueError(f"line {line}: wrong number of fields")
        try:
            points = float(row["points"])
        except ValueError:
            raise ValueError(f"line {line}: field 'points' is not a number: {row['points']!r}") from None
        try:
            record = SeasonRecord(
                name=row["name"].strip(),
                team=row["team"].strip(),
                entrant_class=row["class"].strip(),
                points=points,
                entity=row["entity"].strip(),
            )
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
        key = (record.entity, record.name)
        if key in seen:
            raise ValueError(f"line {line}: duplicate {record.entity} name {record.name!r}")
        seen.add(key)
        records.append(record)
    return records


def load_bundled_results():
    """Records of the bundled 2025 season regression corpus."""
    data = resources.files(__package__).joinpath("data", BUNDLED_RESULTS)
    with data.open(encoding="utf-8") as handle:
        return ingest_results(handle)


def verdict_rows(verdicts):
    """Verdicts as plain dicts keyed by ``VERDICT_FIELDS``, for JSON or CSV."""
    return [
        dict(zip(VERDICT_FIELDS, (
            verdict.record.name, verdict.record.team, verdict.record.entrant_class,
            verdict.record.entity, verdict.record.points,
            verdict.benchmark.ci_low, verdict.benchmark.ci_high, verdict.outcome,
        )))
        for verdict in verdicts
    ]


def markdown_table(columns, rows):
    """Lines of a markdown table: a header, its rule and one line per row of cell texts."""
    return [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join(" --- " for _ in columns) + "|",
        *("| " + " | ".join(cells) + " |" for cells in rows),
    ]


def markdown_report(verdicts):
    """Markdown tables of driver and team verdicts with arrow glyphs."""
    lines = []
    for entity, title, columns in (
        ("driver", "Drivers", ("Driver", "Team", "Points", "Performance")),
        ("team", "Teams", ("Team", "Points", "Performance")),
    ):
        rows = [v for v in verdicts if v.record.entity == entity]
        if not rows:
            continue
        if lines:
            lines.append("")
        lines.append(f"## {title}")
        lines.append("")
        table = []
        for verdict in rows:
            record = verdict.record
            cells = [record.name]
            if entity == "driver":
                cells.append(record.team)
            cells.extend([f"{record.points:g}", verdict.arrow])
            table.append(cells)
        lines.extend(markdown_table(columns, table))
    return "\n".join(lines) + "\n"
