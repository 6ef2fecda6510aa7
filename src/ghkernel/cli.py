"""Command-line front end: evaluation, identity sweeps, Monte Carlo checks.

Exit codes: 0 when every check passes, 1 when a mathematical check fails,
2 on malformed input or usage errors.  Reports are JSON (canonical form:
sorted keys, two-space indent) or CSV with the same columns; exact values
are serialized as fraction strings so zero-residual results survive the
trip to disk.

The JSON text is written by `canonical_json`, a small recursive writer
that gives the bytes of `json.dumps(obj, indent=2, sort_keys=True)` and
escapes strings with json's C escaper: `json.dumps` with an indent falls
back to the pure-Python encoder.  The CSV rows go through one `csv.writer`,
with their `params` in the same writer's one-line layout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .defaults import DEFAULT_COUNT, DEFAULT_ORDER, DEFAULT_Z
from .identities import (
    DEFAULT_FLOAT_TOLERANCE,
    EXACT_PASS,
    IdentityReport,
    Matrix,
    Vector,
    graczyk_reports,
    mat_flatten,
    matrix_polarization,
    polarization_pair,
)
from .ghpoly import gh_eval_recurrence, hermite_eval
from .scalars import EXACT, FLOAT, format_scalar, parse_scalar
from .sweeps import DEGREES, P_GRID, SWEEPS, grid_description, in_mode

if TYPE_CHECKING:
    import numpy as np

    from .sampling import SampleStats

SPEC_VERSION = __version__

# Each sample target's own options with their defaults; giving an option
# of another target is a usage error.
SAMPLE_OPTIONS: dict[str, dict[str, object]] = {
    "inner-product": {"xv": "3,4", "yv": "3,4", "p": "1"},
    "matrix": {"xm": "3,0;0,0", "ym": "0,4;0,0"},
    "chi-merge": {"a": 3, "b": 4},
}


_encode_str = json.encoder.encode_basestring_ascii  # C-backed in CPython


def _json_atom(value: object) -> str:
    """JSON text of a non-string leaf, as `json.dumps` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value: object, indent: str | None) -> str:
    """JSON text of `value`, keys sorted, strings by the C escaper: on one
    line, as `json.dumps` lays it out, when `indent` is None, else with its
    first line at `indent` and two spaces more per level."""
    inner = None if indent is None else indent + "  "
    head, sep, tail = ("\n" + inner, ",\n" + inner, "\n" + indent) if inner else ("", ", ", "")
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            item = value[key]
            items.append(
                _encode_str(key if isinstance(key, str) else _json_atom(key))
                + ": "
                + (_encode_str(item) if isinstance(item, str) else _json_text(item, inner))
            )
        return "{" + head + sep.join(items) + tail + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            _encode_str(item) if isinstance(item, str) else _json_text(item, inner)
            for item in value
        ]
        return "[" + head + sep.join(items) + tail + "]"
    if isinstance(value, str):
        return _encode_str(value)
    return _json_atom(value)


def canonical_json(obj: object) -> str:
    """Canonical serialization: the bytes of `json.dumps(obj, indent=2,
    sort_keys=True)` and a newline; loads + dumps reproduces them."""
    return _json_text(obj, "") + "\n"


def _parse_vector(text: str, mode: str) -> Vector:
    entries = text.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError(f"blank entry in vector {text!r}")
    return tuple(parse_scalar(entry, mode) for entry in entries)


def _parse_matrix(text: str, mode: str) -> Matrix:
    rows = text.split(";")
    if not all(row.strip() for row in rows):
        raise ValueError(f"blank row in matrix {text!r}")
    matrix = tuple(_parse_vector(row, mode) for row in rows)
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("matrix rows differ in length")
    return matrix


def _parse_real(text: str) -> float:
    value = parse_scalar(text, FLOAT)
    if not value.is_real():
        raise ValueError(f"expected a real number, got {text!r}")
    return float(value.re)


def _report_row(report: IdentityReport) -> dict[str, object]:
    lhs = format_scalar(report.lhs)
    return {
        "identity": report.identity,
        "mode": report.mode,
        "params": report.params,
        "lhs": lhs,
        # An exact check whose sides' integers agree has one Scalar for both.
        "rhs": lhs if report.rhs is report.lhs else format_scalar(report.rhs),
        # Every passing exact report holds the one zero residual.
        "residual": "0" if report.verdict == EXACT_PASS else format_scalar(report.residual),
        "verdict": report.verdict,
        "spec_version": SPEC_VERSION,
    }


CSV_COLUMNS = (
    "identity",
    "mode",
    "params",
    "lhs",
    "rhs",
    "residual",
    "verdict",
    "spec_version",
)


def _rows_to_csv(rows: Sequence[dict[str, object]]) -> str:
    """One CSV line per row, in `CSV_COLUMNS` order, `params` as one-line JSON."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        [_json_text(row[c], None) if c == "params" else row[c] for c in CSV_COLUMNS]
        for row in rows
    )
    return buffer.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _finish(args: argparse.Namespace, payload: dict[str, object], csv_text: Callable[[], str],
            head: str, passed: str, failed: str) -> int:
    """The tail of `verify` and `sample`: write the report as JSON or as
    `csv_text()`, print `head` and the outcome on stderr, and exit 0 when
    `payload["all_pass"]`, else 1."""
    _emit(csv_text() if args.format == "csv" else canonical_json(payload), args.out)
    print(head + (passed if payload["all_pass"] else failed), file=sys.stderr)
    return 0 if payload["all_pass"] else 1


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args: argparse.Namespace) -> int:
    mode = args.mode
    x = parse_scalar(args.x, mode)
    if args.hermite:
        if args.n is None:
            raise ValueError("--hermite needs --n")
        for name in ("m", "p"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} applies to eval without --hermite")
        result = hermite_eval(args.n, x)
    else:
        if args.n is not None:
            raise ValueError("--n applies to eval --hermite only")
        if args.m is None or args.p is None:
            raise ValueError("eval needs --m and --p (or --hermite with --n)")
        p = parse_scalar(args.p, mode)
        # The recurrence row every sum rule reads: in float mode it never
        # turns a coefficient m!/(k!(m-2k)!) into a double, which overflows.
        result = gh_eval_recurrence(args.m, x, p)
    if mode == FLOAT and not (math.isfinite(result.re) and math.isfinite(result.im)):
        raise ValueError("the value overflows a double; use --mode exact")
    print(format_scalar(result))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    mode, tolerance = args.mode, args.tolerance
    if mode == EXACT and tolerance is not None:
        raise ValueError("exact mode has no tolerance")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise ValueError("float mode needs a finite positive tolerance")
    if mode == FLOAT and tolerance is None:
        tolerance = DEFAULT_FLOAT_TOLERANCE

    if args.xv is not None or args.yv is not None:
        if args.identity != "graczyk":
            raise ValueError("--xv/--yv overrides apply to the graczyk identity only")
        if args.xv is None or args.yv is None:
            raise ValueError("need both --xv and --yv")
        xv = _parse_vector(args.xv, mode)
        yv = _parse_vector(args.yv, mode)
        p_values = in_mode(P_GRID, mode) if args.p is None else (parse_scalar(args.p, mode),)
        reports = graczyk_reports(DEGREES, xv, yv, p_values, tolerance)
        grid: dict[str, object] = {
            "explicit_point": {"xv": args.xv, "yv": args.yv, "p": args.p or "default grid"}
        }
    elif args.p is not None:
        raise ValueError("--p needs --xv and --yv")
    else:
        reports = SWEEPS[args.identity](mode=mode, tolerance=tolerance)
        grid = grid_description(args.identity)

    all_pass = all(r.passed for r in reports)
    rows = [_report_row(r) for r in reports]
    envelope = {
        "all_pass": all_pass,
        "command": "verify",
        "grid": grid,
        "identity": args.identity,
        "mode": mode,
        "report_count": len(rows),
        "reports": rows,
        "spec_version": SPEC_VERSION,
        "tolerance": tolerance,
    }
    return _finish(args, envelope, lambda: _rows_to_csv(rows),
                   f"verify {args.identity}: {len(rows)} checks, ", "all pass", "FAILURES present")


# ---------------------------------------------------------------------------
# sample


def _stats_row(stats: SampleStats) -> dict[str, object]:
    return {
        "count": stats.count,
        "moments": list(stats.moments),
        "std_errors": list(stats.std_errors),
    }


def _verdict_rows(verdicts) -> list[dict[str, object]]:
    return [
        {
            "order": v.order,
            "lhs": v.lhs,
            "rhs": v.rhs,
            "difference": v.difference,
            "tolerance": v.tolerance,
            "z_score": v.z_score,
            "verdict": "pass" if v.passed else "fail",
        }
        for v in verdicts
    ]


def _target_options(args: argparse.Namespace) -> dict[str, object]:
    """The target's options, defaults filled in; other targets' must be unset."""
    for target, options in SAMPLE_OPTIONS.items():
        if target == args.target:
            continue
        for name in options:
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} applies to sample {target}, not {args.target}")
    return {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in SAMPLE_OPTIONS[args.target].items()
    }


def _both_sides(
    draw_lhs: Callable[[], np.ndarray], draw_rhs: Callable[[], np.ndarray], order: int
) -> tuple[tuple[np.ndarray, SampleStats], tuple[np.ndarray, SampleStats]]:
    """Each side's samples and moments, the two sides at the same time.

    A side is one job, draw then `collect_stats`; the rhs job runs on a
    worker thread while the lhs job runs on this one, and numpy releases
    the GIL in the array work that dominates both.  The sides share no
    generator and no array, so the results are those of running the jobs
    in turn.  An exception of either job is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .sampling import collect_stats

    def side(draw: Callable[[], np.ndarray]) -> tuple[np.ndarray, SampleStats]:
        samples = draw()
        return samples, collect_stats(samples, order)

    with ThreadPoolExecutor(max_workers=1) as pool:
        rhs = pool.submit(side, draw_rhs)
        return side(draw_lhs), rhs.result()


def _sample_payload(args: argparse.Namespace) -> dict[str, object]:
    seed, count, order, z = args.seed, args.count, args.order, args.z
    if not 0 < z < math.inf:
        raise ValueError("the z threshold must be finite and positive")
    if count < 2:
        raise ValueError("--count must be at least 2")
    if order < 1:
        raise ValueError("--order must be at least 1")
    if seed < 0:
        raise ValueError("--seed must be a natural number")
    options = _target_options(args)
    params: dict[str, object] = {
        "seed": seed,
        "count": count,
        "order": order,
        "z": z,
        "stream_layout": {"lhs": 0, "rhs": 1},
        **options,  # as given; inner-product replaces p by its parsed value
    }
    if args.target == "chi-merge":
        a, b = options["a"], options["b"]
        if a < 1 or b < 1:
            raise ValueError("chi-merge needs --a >= 1 and --b >= 1")
    elif args.target == "inner-product":
        xv = _parse_vector(options["xv"], FLOAT)
        yv = _parse_vector(options["yv"], FLOAT)
        p = _parse_real(options["p"])
        if not p > 0:
            raise ValueError("sampling needs p > 0")
        pair = polarization_pair(xv, yv)
        params.update(p=p, p_convention="sqrt(p)")
    else:
        # The matrix claim is the inner-product claim on vec xm, vec ym at p = 1.
        xm = _parse_matrix(options["xm"], FLOAT)
        ym = _parse_matrix(options["ym"], FLOAT)
        pair = matrix_polarization(xm, ym)
        xv, yv, p = mat_flatten(xm), mat_flatten(ym), 1.0
        params.update(shape=f"{len(xm)}x{len(xm[0])}", p_convention="unit-variance noise")

    # Imported after every input check: only a valid sample loads numpy.
    from .sampling import (
        RngStream,
        chi_even_moment,
        chi_merge_samples,
        inner_product_lhs_samples,
        inner_product_rhs_samples,
        ks_two_sample,
        moment_match,
        moment_match_exact,
        sample_chi,
    )

    lhs_stream, rhs_stream = RngStream(seed, 0), RngStream(seed, 1)
    exact_targets: dict[int, float] = {}
    if args.target == "chi-merge":
        draw_lhs = partial(chi_merge_samples, lhs_stream, a, b, count)
        draw_rhs = partial(sample_chi, rhs_stream, a + b, count)
        exact_targets = {k: float(chi_even_moment(a + b, k // 2)) for k in (2, 4)}
    else:
        draw_lhs = partial(
            inner_product_lhs_samples,
            [float(s.re) for s in xv], [float(s.re) for s in yv], p, lhs_stream, count,
        )
        draw_rhs = partial(inner_product_rhs_samples, pair, len(xv), p, rhs_stream, count)
        params.update(pair_x=float(pair.x.re), pair_y=float(pair.y.re))

    (lhs, lhs_stats), (rhs, rhs_stats) = _both_sides(draw_lhs, draw_rhs, order)
    # One verdict list: the `order` two-sample verdicts, then the exact ones.
    exact_orders = {k: v for k, v in exact_targets.items() if k <= order}
    verdicts = moment_match(lhs_stats, rhs_stats, order, z)
    verdicts += moment_match_exact(lhs_stats, exact_orders, z)
    payload: dict[str, object] = {
        "all_pass": all(v.passed for v in verdicts),
        "command": "sample",
        "lhs_stats": _stats_row(lhs_stats),
        "moments": _verdict_rows(verdicts[:order]),
        "params": params,
        "rhs_stats": _stats_row(rhs_stats),
        "spec_version": SPEC_VERSION,
        "target": args.target,
    }
    if exact_targets:
        payload["exact_moments"] = {str(k): v for k, v in exact_targets.items()}
        payload["exact_verdicts"] = _verdict_rows(verdicts[order:])
    if args.ks:
        # Last use of the samples: this sorts them in place.
        statistic, pvalue = ks_two_sample(lhs, rhs)
        payload["ks"] = {"statistic": statistic, "pvalue": pvalue}
    return payload


def _sample_csv(payload: dict[str, object]) -> str:
    """One row per verdict, in report order, its params the command's with
    the row's own order and the report key the verdict is listed under."""
    rows = []
    common = payload["params"]
    for key in ("moments", "exact_verdicts"):
        for entry in payload.get(key, ()):  # type: ignore[attr-defined]
            params = {**common, "order": entry["order"], "verdicts": key}  # type: ignore[dict-item]
            rows.append(
                {
                    "identity": payload["target"],
                    "mode": FLOAT,
                    "params": params,
                    "lhs": repr(entry["lhs"]),
                    "rhs": repr(entry["rhs"]),
                    "residual": repr(entry["difference"]),
                    "verdict": entry["verdict"],
                    "spec_version": SPEC_VERSION,
                }
            )
    return _rows_to_csv(rows)


def _cmd_sample(args: argparse.Namespace) -> int:
    payload = _sample_payload(args)
    return _finish(args, payload, lambda: _sample_csv(payload),
                   f"sample {args.target}: ", "all moments match", "MOMENT MISMATCH")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghkernel",
        description="Evaluate Gould-Hopper polynomials and verify their sum rules.",
    )
    parser.add_argument("--version", action="version", version=f"ghkernel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial at a point")
    p_eval.add_argument("--m", type=int, help="polynomial degree")
    p_eval.add_argument("--x", required=True, help="evaluation point (a/b or a/b+c/di)")
    p_eval.add_argument("--p", help="polynomial parameter")
    p_eval.add_argument("--hermite", action="store_true", help="evaluate H_n instead")
    p_eval.add_argument("--n", type=int, help="Hermite degree (with --hermite)")
    p_eval.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run an identity sweep")
    p_verify.add_argument("identity", choices=tuple(SWEEPS))
    p_verify.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    p_verify.add_argument(
        "--tolerance", type=float, help="relative tolerance (float mode only)"
    )
    p_verify.add_argument("--xv", help="explicit first vector (graczyk only)")
    p_verify.add_argument("--yv", help="explicit second vector (graczyk only)")
    p_verify.add_argument("--p", help="explicit parameter (with --xv/--yv)")
    p_verify.add_argument("--out", help="report path (default: stdout)")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_sample = sub.add_parser("sample", help="run a seeded Monte Carlo check")
    p_sample.add_argument("target", choices=tuple(SAMPLE_OPTIONS))
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--count", type=int, default=DEFAULT_COUNT)
    p_sample.add_argument("--order", type=int, default=DEFAULT_ORDER,
                          help="highest moment order to match")
    p_sample.add_argument("--z", type=float, default=DEFAULT_Z,
                          help="pass threshold in combined standard errors")
    for target, options in SAMPLE_OPTIONS.items():
        for name, default in options.items():
            p_sample.add_argument(f"--{name}", type=type(default),
                                  help=f"{target} only (default {default})")
    p_sample.add_argument("--ks", action="store_true",
                          help="include the Kolmogorov-Smirnov diagnostic")
    p_sample.add_argument("--out", help="report path (default: stdout)")
    p_sample.add_argument("--format", choices=("json", "csv"), default="json")
    p_sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # malformed input must never crash the tool
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
