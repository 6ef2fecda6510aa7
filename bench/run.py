#!/usr/bin/env python3
"""Benchmark for the ghkernel CLI, run the way a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from
``src/`` (``PYTHONPATH=src``), not from an installation.

``--trace 0`` runs ``python -m ghkernel.cli`` commands as child processes,
one at a time (a closed loop with one client), and reports end-to-end
metrics.  ``--trace 1`` runs the same commands in this process, untraced,
under :class:`tracing.Tracer`, and untraced again, and reports per-layer
metrics.  Every command's output is checked in both modes; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it, starting with ``#``, record
the environment and a readable summary.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reports
from reports import IDENTITIES, WrongOutput

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"

SAMPLE_COUNT = 4_000_000
SAMPLE_TARGETS = ("inner-product", "matrix", "chi-merge")
PROBE_REPEATS = 4
IMPORT_REPEATS = 3
# Each run must end well within the three minutes a run is allowed.
RUN_BUDGET_S = 170.0


CLI = ("-m", "ghkernel.cli")


@dataclass(frozen=True)
class Command:
    """One child process and the check its output must pass.

    The child runs ``python *program *argv``; for CLI commands ``argv`` is
    what ``ghkernel.cli.main`` receives.
    """

    name: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[Path], int]  # returns the number of verdicts checked
    samples: int = 0  # Monte Carlo draws it reports (lhs + rhs)
    program: tuple[str, ...] = CLI


@dataclass
class Outcome:
    command: Command
    wall_s: float
    peak_rss_mb: float
    checks: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------------
# workloads


def sweep_commands(mode: str, digests: dict[str, str]) -> list[Command]:
    fmt = "json" if mode == "exact" else "csv"
    commands = []
    for identity in IDENTITIES:
        out = WORK / f"verify-{identity}-{mode}.{fmt}"
        if mode == "exact":
            check = lambda path, i=identity: reports.check_verify_json(path, i, digests)
        else:
            check = lambda path, i=identity: reports.check_verify_csv(path, i)
        argv = ("verify", identity, "--mode", mode, "--format", fmt, "--out", str(out))
        commands.append(Command(f"verify {identity}", argv, out, check))
    return commands


def sample_commands(seed: int, count: int = SAMPLE_COUNT) -> list[Command]:
    commands = []
    for target in SAMPLE_TARGETS:
        ks = target == "inner-product"
        out = WORK / f"sample-{target}.json"
        argv = ("sample", target, *(("--ks",) if ks else ()), "--count", str(count),
                "--seed", str(seed), "--out", str(out))
        check = lambda path, t=target, k=ks: reports.check_sample_json(path, t, seed, count, k)
        commands.append(Command(f"sample {target}", argv, out, check, samples=2 * count))
    return commands


@dataclass(frozen=True)
class Workload:
    """A named command list; only seeded workloads pass --seed on."""

    name: str
    seeded: bool
    commands: Callable[[int], list[Command]]


def workloads() -> dict[str, Workload]:
    digests = reports.load_digests()
    return {
        w.name: w
        for w in (
            Workload("sweep-exact", False, lambda seed: sweep_commands("exact", digests)),
            Workload("sweep-float", False, lambda seed: sweep_commands("float", digests)),
            Workload("sample", True, sample_commands),
        )
    }


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict[str, str]:
    """Environment every child gets: pinned hash seed, no thread knob."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "GH_KERNEL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline()


def spawn(argv: list[str], env: dict[str, str], log: Path,
          timeout_s: float = RUN_BUDGET_S) -> tuple[float, float, int]:
    """Run one child to completion; (wall seconds, peak RSS MiB, exit code).

    The child is reaped with ``os.wait4`` so its own ``ru_maxrss`` is read;
    ``RUSAGE_CHILDREN`` would give the high-water mark of every child so
    far and hide a smaller later one.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with contextlib.suppress(OSError):  # already reaped if the alarm came late
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def judge(command: Command, exit_code: int, wall_s: float, rss_mb: float) -> Outcome:
    outcome = Outcome(command, wall_s, rss_mb)
    if exit_code != 0:
        outcome.error = f"exit code {exit_code}"
        return outcome
    try:
        outcome.checks = command.check(command.out)
    except WrongOutput as exc:
        outcome.error = str(exc)
    return outcome


def execute(command: Command, env: dict[str, str], timeout_s: float) -> Outcome:
    with contextlib.suppress(FileNotFoundError):
        command.out.unlink()
    log = command.out.with_suffix(".log")
    argv = [sys.executable, *command.program, *command.argv]
    wall, rss, code = spawn(argv, env, log, timeout_s)
    return judge(command, code, wall, rss)


def _output_starting(prefix: str) -> Callable[[Path], int]:
    def check(path: Path) -> int:
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if not text.startswith(prefix):
            raise WrongOutput(f"printed {text[:40]!r}, expected {prefix!r}...")
        return 0

    return check


# Probes print to stdout, which goes to their log, which is also their `out`.
VERSION_PROBE = Command("--version", ("--version",), WORK / "version.log",
                        _output_starting("ghkernel "))

# The unit of throughput: a fixed job sharing no code with ghkernel, with
# the same kinds of work as the workloads: interpreter start-up, importing
# numpy and scipy, Fraction arithmetic, and streaming over a 32 MB array.
# Host-wide slow phases (up to 1.5x and minutes long on the shared host this
# was written on) slow it much as they slow the workloads, so they cancel
# in checks per reference time.
REFERENCE_PROBE = Command(
    "reference", (), WORK / "reference.log", _output_starting("56002199970000\n"),
    program=("-c", "import numpy, scipy.stats\n"
                   "from fractions import Fraction\n"
                   "print(sum((Fraction(i, i + 1) * Fraction(i + 2, i + 3)).numerator\n"
                   "          for i in range(1, 60000)))\n"
                   "a = numpy.linspace(0.0, 1.0, 4_000_000)\n"
                   "for _ in range(8):\n"
                   "    a = numpy.sqrt(a * a + 1.0)\n"),
)


def run_commands(commands: list[Command], env: dict[str, str], seconds: float,
                 deadline: float) -> tuple[list[Outcome], list[Outcome], list[list[Outcome]]]:
    """Cycle through the commands, one child at a time, for about `seconds`.

    An untimed ``--version`` start-up comes first and compiles the ``.pyc``
    files.  The first PROBE_REPEATS commands are each followed by a timed
    ``--version`` probe and a reference probe, so probe samples are spread
    over the run.  The first pass always completes.  After it, the next
    command starts only if its median time so far fits in what is left of
    `seconds`, so a run may end part-way through a later pass.  Returns the
    ``--version`` probes (warm-up first), the reference probes, and the
    outcomes per command.
    """
    probes = [execute(VERSION_PROBE, env, deadline - time.monotonic())]
    references: list[Outcome] = []
    by_command: list[list[Outcome]] = [[] for _ in commands]
    start = time.monotonic()
    for i in itertools.count():
        k = i % len(commands)
        if i >= len(commands):
            expected = statistics.median(o.wall_s for o in by_command[k])
            if time.monotonic() - start + expected > seconds:
                break
        by_command[k].append(execute(commands[k], env, deadline - time.monotonic()))
        if len(references) < PROBE_REPEATS:
            probes.append(execute(VERSION_PROBE, env, deadline - time.monotonic()))
            references.append(execute(REFERENCE_PROBE, env, deadline - time.monotonic()))
    return probes, references, by_command


def run_untraced(workload: Workload, seed: int, seconds: float, deadline: float) -> dict:
    env = child_env()
    commands = workload.commands(seed)
    probes, references, by_command = run_commands(commands, env, seconds, deadline)
    outcomes = probes + references + [o for runs in by_command for o in runs]
    report_failures(outcomes)
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    setup_walls = [o.wall_s for o in probes[1:]]
    # One pass of the workload, estimated command by command from medians.
    pass_wall = sum(statistics.median(o.wall_s for o in runs) for runs in by_command)
    checks = sum(statistics.median(o.checks for o in runs) for runs in by_command)
    samples = sum(c.samples for c in commands)
    reference_s = statistics.median(o.wall_s for o in references)
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "checks_per_ref": (checks / pass_wall * reference_s, "checks/ref"),
        "peak_rss_mb": (max(statistics.median(o.peak_rss_mb for o in runs)
                            for runs in by_command), "MB"),
    }
    summary = {
        "pass_wall_s": round(pass_wall, 4),
        "checks_per_pass": checks,
        "commands_run": sum(len(runs) for runs in by_command),
        "setup_walls_s": [round(w, 4) for w in setup_walls],
        "reference_walls_s": [round(o.wall_s, 4) for o in references],
        "checks_per_s": checks / pass_wall,
        "samples_per_s": samples / pass_wall if samples else None,
        "failed_ops_ratio": failed / attempted,
        "per_command": {
            c.name: {"wall_s": [round(o.wall_s, 4) for o in runs],
                                   "peak_rss_mb": [round(o.peak_rss_mb, 1) for o in runs]}
            for c, runs in zip(commands, by_command)
        },
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "summary": summary}


def report_failures(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if not o.ok:
            print(f"FAILED: {' '.join(o.command.argv) or o.command.name}: {o.error}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# traced run


def parse_importtime(text: str, prefix: str) -> float:
    """Seconds spent importing ``prefix`` and its submodules.

    ``-X importtime`` lists a module after the modules it imported, indented
    one level deeper.  Cumulative times of matching entries are summed,
    skipping entries nested inside another matching entry.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(match for _, match in stack)
        match = name == prefix or name.startswith(prefix + ".")
        if match and not inside:
            total += cumulative
        stack.append((depth, match or inside))
    return total / 1e6


IMPORT_METRICS = {
    "import.ghkernel_cli_s": "ghkernel.cli",
    "import.sampling_s": "ghkernel.sampling",
    "import.scipy_s": "scipy",
    "import.numpy_s": "numpy",
}


def measure_imports(env: dict[str, str], deadline: float) -> tuple[dict[str, float], int]:
    values: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS}
    failed = 0
    log = WORK / "importtime.log"
    argv = [sys.executable, "-X", "importtime", "-c", "import ghkernel.cli"]
    spawn(argv, env, log, deadline - time.monotonic())  # warm-up, compiles .pyc
    for _ in range(IMPORT_REPEATS):
        _wall, _rss, code = spawn(argv, env, log, deadline - time.monotonic())
        text = log.read_text(encoding="utf-8")
        if code != 0:
            failed += 1
            continue
        for name, prefix in IMPORT_METRICS.items():
            values[name].append(parse_importtime(text, prefix))
    # An import that failed is a failed op; its metric reads 0.
    return {name: statistics.median(v) if v else 0.0 for name, v in values.items()}, failed


def in_process_pass(cli, commands: list[Command], tracer=None) -> tuple[float, list[Outcome]]:
    outcomes, wall = [], 0.0
    for number, command in enumerate(commands, 1):
        with contextlib.suppress(FileNotFoundError):
            command.out.unlink()
        if tracer is not None:
            tracer.command = number
        start = time.perf_counter()
        code = cli.main(list(command.argv))
        elapsed = time.perf_counter() - start
        wall += elapsed
        outcomes.append(judge(command, code, elapsed, 0.0))
    return wall, outcomes


PER_LAYER_UNITS = {
    "_s": "s", "_calls": "count", "_bytes": "bytes", "_ratio": "ratio",
    "_us_per_call": "us", "_ns_per_normal": "ns", "_mb": "MB-computed",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def run_traced(workload: Workload, seed: int, deadline: float) -> dict:
    """Untraced, traced and untraced in-process passes, whatever --seconds says."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("GH_KERNEL_THREADS", None)
    import ghkernel.cli as cli
    from tracing import Tracer

    env = child_env()
    imports, import_failed = measure_imports(env, deadline)
    warm = sample_commands(seed, count=1000)
    _, warm_outcomes = in_process_pass(cli, warm)  # first calls into numpy/scipy
    commands = workload.commands(seed)

    before_wall, before_outcomes = in_process_pass(cli, commands)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced_outcomes = in_process_pass(cli, commands, tracer)
    finally:
        tracer.uninstall()
    # A second untraced pass brackets the traced one against drift.
    after_wall, after_outcomes = in_process_pass(cli, commands)
    untraced_wall = (before_wall + after_wall) / 2
    spans_path = WORK / f"spans-{workload.name}.csv"
    span_count = tracer.write_spans(spans_path)

    outcomes = warm_outcomes + before_outcomes + traced_outcomes + after_outcomes
    report_failures(outcomes)
    values = dict(imports)
    values.update(tracer.metrics())
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    attempted = len(outcomes) + IMPORT_REPEATS
    failed = sum(not o.ok for o in outcomes) + import_failed
    summary = {
        "untraced_wall_s": [round(before_wall, 4), round(after_wall, 4)],
        "traced_wall_s": round(traced_wall, 4),
        "spans": span_count,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_ops_ratio": failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "summary": summary}


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ghkernel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment_record(env: dict[str, str]) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "child_env": {"PYTHONPATH": "src", "PYTHONHASHSEED": env["PYTHONHASHSEED"],
                      "removed": "GH_KERNEL_THREADS and every other PYTHON* variable"},
        "not_controlled": {
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
            "cpu_count": os.cpu_count(),
            "memory_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
            "rlimit_as": resource.getrlimit(resource.RLIMIT_AS)[0],
            "rlimit_nproc": resource.getrlimit(resource.RLIMIT_NPROC)[0],
            "note": "shared host: co-tenant load, CPU frequency, CPU placement "
                    "and the page cache are not pinned",
        },
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ghkernel" / "cli.py").is_file():
        print(f"error: no ghkernel sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    all_workloads = workloads()
    if args.workload not in all_workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(all_workloads)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = all_workloads[args.workload]
    deadline = started + RUN_BUDGET_S
    WORK.mkdir(parents=True, exist_ok=True)

    print("# env " + json.dumps(environment_record(child_env()), sort_keys=True))
    seed_note = args.seed if workload.seeded else "unused (built-in grids, seedless)"
    print(f"# workload {workload.name}, seed {seed_note}")
    try:
        if args.trace:
            result = run_traced(workload, args.seed, deadline)
        else:
            result = run_untraced(workload, args.seed, args.seconds, deadline)
    except _Deadline:
        print(f"error: run exceeded {RUN_BUDGET_S:.0f} s", file=sys.stderr)
        return 3
    print("# summary " + json.dumps(result["summary"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    summary = result["summary"]
    print(f"# failed_ops_ratio = {summary['failed_ops_ratio']:.6g} ratio")
    if "checks_per_s" in summary:
        print(f"# checks_per_s = {summary['checks_per_s']:.6g} checks/s")
    if summary.get("samples_per_s"):
        print(f"# samples_per_s = {summary['samples_per_s']:.6g} samples/s")

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def _on_term(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_term)
    sys.exit(main())
