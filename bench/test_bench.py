"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import resource
import sys

import reports
import run
from tracing import Tracer

sys.path.insert(0, str(run.SRC))


def _matrix_exact(out):
    digests = reports.load_digests()
    argv = ("verify", "matrix", "--mode", "exact", "--format", "json", "--out", str(out))
    return run.Command("verify matrix", argv, out,
                       lambda path: reports.check_verify_json(path, "matrix", digests))


def test_report_with_one_changed_lhs_is_a_failed_op(tmp_path):
    command = _matrix_exact(tmp_path / "matrix.json")
    outcome = run.execute(command, run.child_env(), timeout_s=120)
    assert outcome.ok, outcome.error
    assert outcome.checks == reports.EXPECTED_REPORTS["matrix"]

    payload = json.loads(command.out.read_text())
    payload["reports"][7]["lhs"] = "1/3"  # verdict and counts left as they were
    command.out.write_text(json.dumps(payload))
    corrupted = run.judge(command, 0, outcome.wall_s, outcome.peak_rss_mb)
    assert not corrupted.ok
    assert "digest" in corrupted.error


def test_spec_bump_and_new_columns_are_not_wrong_answers(tmp_path):
    command = _matrix_exact(tmp_path / "matrix.json")
    assert run.execute(command, run.child_env(), timeout_s=120).ok
    payload = json.loads(command.out.read_text())
    payload["spec_version"] = "9.9.9"
    for row in payload["reports"]:
        row["spec_version"] = "9.9.9"
        row["error_bound"] = "0"
    command.out.write_text(json.dumps(payload))
    assert run.judge(command, 0, 1.0, 1.0).ok


def test_nonzero_exit_is_a_failed_op(tmp_path):
    command = _matrix_exact(tmp_path / "matrix.json")
    assert not run.judge(command, 1, 1.0, 1.0).ok


def test_probes_run_and_check_their_output():
    for probe in (run.VERSION_PROBE, run.REFERENCE_PROBE):
        outcome = run.execute(probe, run.child_env(), timeout_s=60)
        assert outcome.ok, outcome.error
        probe.out.write_text("garbage\n")
        assert not run.judge(probe, 0, 1.0, 1.0).ok


def test_wait4_gives_each_child_its_own_peak_rss():
    big = [sys.executable, "-c", "data = b'x' * (200 << 20)"]
    small = [sys.executable, "-c", "pass"]
    log = run.WORK / "rss-test.log"
    _, big_rss, big_code = run.spawn(big, run.child_env(), log, timeout_s=60)
    _, small_rss, small_code = run.spawn(small, run.child_env(), log, timeout_s=60)
    assert big_code == small_code == 0
    assert big_rss > 200
    assert small_rss < 60
    # The high-water mark over all children would have hidden the small one.
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 >= big_rss


def test_parse_importtime_skips_nested_matches():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |     scipy.stats",
        "import time:        50 |        750 |   ghkernel.sampling",
        "import time:        10 |        760 | ghkernel.cli",
    ])
    assert run.parse_importtime(text, "scipy") == 700e-6
    assert run.parse_importtime(text, "ghkernel.sampling") == 750e-6
    assert run.parse_importtime(text, "ghkernel.cli") == 760e-6
    assert run.parse_importtime(text, "numpy") == 0.0


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "sample", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_self_time_is_busy_minus_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    tracer = Tracer()
    tracer.clock = lambda: next(ticks)
    inner = tracer.span("ghpoly", "inner", lambda: None)
    outer = tracer.span("identities", "outer", lambda: inner())
    outer()
    spans = {span[2]: span for span in tracer.spans}
    assert spans["inner"][5] == 2.0
    assert spans["outer"][5:7] == (10.0, 2.0)
    assert spans["inner"][7] == spans["outer"][0]
    assert tracer.self_times() == {"identities": 8.0, "ghpoly": 2.0}


def test_traced_counts_repeat_and_uninstall_restores(tmp_path):
    import ghkernel
    import ghkernel.cli as cli
    from ghkernel import ghpoly, identities

    command = _matrix_exact(tmp_path / "matrix.json")
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main(list(command.argv)) == 0
        finally:
            tracer.uninstall()
        assert run.judge(command, 0, 1.0, 1.0).ok
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if run.unit_of(k) not in ("s", "us", "ns")})
    assert counts[0] == counts[1]
    assert counts[0]["sweeps.reports"] == 42
    assert counts[0]["ghpoly.eval_calls"] > counts[0]["ghpoly.eval_distinct"] > 0
    assert identities._gh is ghpoly.gh_eval_recurrence
    assert "wrapper" not in ghkernel.scalars.Scalar.__mul__.__qualname__
