"""Correctness checks on the files the ghkernel CLI writes.

Each check reads one command's output and either returns the number of
verdicts it holds or raises :class:`WrongOutput`.  Exact sweep reports are
also compared against a digest of their mathematical content recorded in
``digests.json``; the digest covers ``identity``, ``params``, ``lhs``,
``rhs``, ``residual`` and ``verdict`` of every row, in order, and nothing
else, so a ``spec_version`` bump or an added column is not a wrong answer.

Run ``python3 bench/reports.py --record`` to rewrite ``digests.json`` from
the current sources.  Do that only when a change of the mathematics is
intended: the digests are what makes a wrong exact report count as a
failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

IDENTITIES = ("graczyk", "rotation", "factorization", "inner-product-moments", "matrix")

# Rows each verify sweep writes on its built-in grid, in both modes.
EXPECTED_REPORTS = {
    "graczyk": 1365,
    "rotation": 3108,
    "factorization": 900,
    "inner-product-moments": 189,
    "matrix": 42,
}

CONTENT_KEYS = ("identity", "params", "lhs", "rhs", "residual", "verdict")
DIGESTS_PATH = Path(__file__).with_name("digests.json")


class WrongOutput(Exception):
    """A command's output is missing, malformed or mathematically wrong."""


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def content_digest(rows: list[dict]) -> str:
    """SHA-256 over the mathematical content of report rows, in order."""
    h = hashlib.sha256()
    for row in rows:
        content = [row[key] for key in CONTENT_KEYS]
        h.update(json.dumps(content, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WrongOutput(f"cannot read {path.name}: {exc}") from exc


def _load_json(path: Path) -> dict:
    try:
        payload = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"{path.name} is not JSON: {exc}") from exc
    _require(isinstance(payload, dict), f"{path.name} is not a JSON object")
    return payload


def check_verify_json(path: Path, identity: str, digests: dict[str, str]) -> int:
    """Exact JSON sweep report: all pass, expected count, recorded digest."""
    payload = _load_json(path)
    expected = EXPECTED_REPORTS[identity]
    rows = payload.get("reports")
    _require(payload.get("command") == "verify", "not a verify report")
    _require(payload.get("identity") == identity, f"identity is not {identity}")
    _require(payload.get("mode") == "exact", "mode is not exact")
    _require(payload.get("all_pass") is True, "all_pass is not true")
    _require(isinstance(rows, list), "reports missing")
    _require(
        payload.get("report_count") == expected and len(rows) == expected,
        f"{len(rows)} reports (report_count {payload.get('report_count')}), "
        f"expected {expected}",
    )
    try:
        bad = [row for row in rows if row["verdict"] != "exact-pass"]
        digest = content_digest(rows)
    except (KeyError, TypeError) as exc:
        raise WrongOutput(f"malformed report row: {exc!r}") from exc
    _require(not bad, f"{len(bad)} rows without exact-pass")
    _require(
        digest == digests.get(identity),
        f"content digest {digest[:12]} differs from the recorded one",
    )
    return len(rows)


def check_verify_csv(path: Path, identity: str) -> int:
    """Float CSV sweep report: expected row count, every verdict passes."""
    reader = csv.DictReader(io.StringIO(_read(path)))
    missing = set(CONTENT_KEYS) - set(reader.fieldnames or ())
    _require(not missing, f"CSV lacks columns {sorted(missing)}")
    rows = list(reader)
    expected = EXPECTED_REPORTS[identity]
    _require(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    for row in rows:
        _require(row["identity"] == identity, f"row for {row['identity']!r}")
        _require(row["mode"] == "float", "row mode is not float")
        _require(row["verdict"] == "within-tolerance", f"verdict {row['verdict']!r}")
    return len(rows)


def _verdicts_pass(entries: object, label: str) -> int:
    _require(isinstance(entries, list) and entries, f"{label} missing")
    for entry in entries:
        _require(entry.get("verdict") == "pass", f"{label} order {entry.get('order')} fails")
    return len(entries)


def check_sample_json(path: Path, target: str, seed: int, count: int, ks: bool) -> int:
    """Monte Carlo report: moment (and exact-moment) verdicts all pass."""
    payload = _load_json(path)
    params = payload.get("params", {})
    _require(payload.get("command") == "sample", "not a sample report")
    _require(payload.get("target") == target, f"target is not {target}")
    _require(payload.get("all_pass") is True, "all_pass is not true")
    _require(params.get("seed") == seed and params.get("count") == count,
             "seed or count differs from the command line")
    for side in ("lhs_stats", "rhs_stats"):
        _require(payload.get(side, {}).get("count") == count, f"{side} count differs")
    verdicts = _verdicts_pass(payload.get("moments"), "moment verdicts")
    if target == "chi-merge":
        verdicts += _verdicts_pass(payload.get("exact_verdicts"), "exact-moment verdicts")
    if ks:
        statistic = payload.get("ks", {}).get("statistic")
        _require(isinstance(statistic, float) and 0.0 <= statistic <= 1.0,
                 "KS statistic missing or out of [0, 1]")
    return verdicts


def record_digests() -> dict[str, str]:
    """Run every exact sweep in-process and digest its report rows."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ghkernel.cli import _report_row
    from ghkernel.sweeps import SWEEPS

    digests = {}
    for identity in IDENTITIES:
        rows = [_report_row(r) for r in SWEEPS[identity](mode="exact")]
        # Same canonical text round trip the CLI's JSON writer applies.
        rows = json.loads(json.dumps(rows, sort_keys=True))
        digests[identity] = content_digest(rows)
    return digests


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/reports.py --record")
    DIGESTS_PATH.write_text(json.dumps(record_digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}")
