"""Benchmark of the polydegen command line, end to end and layer by layer.

    python3 perfbench/run.py --workload fibers --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it uses the package under
``src/`` as it is, with no build step.  Workloads are described in
``workloads.py``; ``BENCHMARK.json`` lists the ones a comparison runs.

``--trace 0`` is the end-to-end run.  A closed loop with one client runs
the workload's commands one after the other, each as ``python3 -m
polydegen ...`` in a fresh process, the next only after the previous one
has exited.  It repeats whole passes over the list, stopping at the pass
boundary nearest to ``--seconds`` of measured time (at least one pass; the
checks between passes do not count), and reports the median pass:

* ``wall_s``: wall time of one pass;
* ``cpu_s``: user+sys CPU of the pass's child processes (``wait4``, the
  per-child form of ``getrusage(RUSAGE_CHILDREN)``);
* ``slowest_cmd_s``: wall time of the slowest command of the pass;
* ``peak_rss_mb``: the largest child max-RSS of the pass;
* ``setup_s``: the median of several start-ups of the program from this
  checkout (each one records the kernel backend), plus preparing the
  inputs.  For ``verify`` that includes emitting its documents, which at
  about 10 s is done once per run.

``--trace 1`` is the per-layer run, in this process: passes through
``polydegen.cli.main`` alternate between traced by ``tracer.py`` and
untraced, starting and ending traced, until ``--seconds`` have passed
(at least two traced passes).  ``trace.overhead_s`` is the median traced
total minus the median untraced one.

Every output is checked outside the timed region.  Each command must exit
with its expected code (0, 1 for a tampered document, 2 for a malformed
one) without a traceback or a timeout, and must print the same bytes on
every pass.  Every emitted document must pass ``polydegen verify``; its
SHA-256 is recorded.  The traced run also checks that each wrapped layer
the workload should enter was entered (and that ``verify`` constructs
nothing), and that every count repeats exactly between traced passes.  A
failed command counts in ``failed`` over ``attempted``; the failure ratio
is printed with the report but is not a metric, because it is 0 whenever
the result counts at all.

The last line of stdout is the result as JSON; a fuller record with the
context (kernel backend, Python version, CPU count, commit, seed), per-pass
samples and digests goes to ``.perfbench/results/``.  Exit status 0 means
every check passed, 1 that some did not, 2 that the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
PROBES = 9
MIN_TRACED_PASSES = 2
COMMAND_TIMEOUT_S = 120.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("slowest_cmd_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_PROBE = (
    "import json, sys, polydegen; print(json.dumps({'kernel_backend': "
    "polydegen.kernel_backend(), 'python': sys.version.split()[0], "
    "'package': polydegen.__file__}))"
)


class SetupError(Exception):
    """The run cannot start: wrong directory, or the program does not run."""


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    returncode: int | None  # None: killed after COMMAND_TIMEOUT_S
    stdout: bytes
    stderr: str


@dataclass
class Checks:
    """What the output checks found over one run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_attempts: int = 0
    digests: dict[str, str] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict[str, str], out_path: Path) -> Outcome:
    """Run one child to completion; stdout goes to ``out_path``.

    The child is waited for without being reaped (``WNOWAIT``) so that the
    timeout can never signal a recycled pid, then reaped with ``wait4`` for
    its own resource usage.
    """
    err_path = out_path.with_suffix(out_path.suffix + ".err")
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_kb=usage.ru_maxrss,
        returncode=None if state["timed_out"] else proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def polydegen_args(argv) -> list[str]:
    return [sys.executable, "-m", "polydegen", *argv]


# ------------------------------------------------------------------ set-up


def probe(env: dict[str, str], workdir: Path) -> tuple[float, dict]:
    out = run_child([sys.executable, "-c", _PROBE], env, workdir / "probe.out")
    if out.returncode != 0:
        raise SetupError(f"the program does not start from {SRC}: {out.stderr.strip()}")
    info = json.loads(out.stdout)
    if not Path(info["package"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"polydegen imported from {info['package']}, not from {SRC}")
    return out.wall_s, info


def setup(workload: str, seed: int, env: dict[str, str], workdir: Path):
    """Return (setup_s, context from the probe, command list)."""
    walls, info = [], {}
    for _ in range(PROBES):
        wall, info = probe(env, workdir)
        walls.append(wall)
    rng = random.Random(f"{workload}/{seed}")
    start = time.perf_counter()
    if workload == "verify":

        def emit(argv, path: Path) -> None:
            out = run_child(polydegen_args(argv), env, path)
            if out.returncode != 0:
                raise SetupError(f"emitting {' '.join(argv)} failed: {out.stderr.strip()}")

        commands = wl.verify_commands(rng, workdir, emit)
    else:
        commands = wl.COMMANDS[workload](rng)
    return statistics.median(walls) + time.perf_counter() - start, info, commands


# ------------------------------------------------------------------ checks


def check_outcome(i: int, cmd: wl.Command, code, stdout: bytes, stderr: str,
                  checks: Checks, reference: list[str]) -> bool:
    """Check one command's result; the first pass fills ``reference``."""
    label = f"[{i}] {' '.join(cmd.argv)}"
    problems = []
    if code != cmd.expect:
        problems.append(f"exit {code}, expected {cmd.expect}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    elif (cmd.expect == wl.BAD_INPUT) != stderr.startswith("error:"):
        problems.append(f"unexpected stderr {stderr[:200]!r}")
    digest = hashlib.sha256(stdout).hexdigest()
    if len(reference) <= i:
        reference.append(digest)
    elif reference[i] != digest:
        problems.append("output differs from the first pass")
    for p in problems:
        checks.failures.append(f"{label}: {p}")
    return not problems


def verify_emitted(i: int, cmd: wl.Command, doc: bytes, env, workdir: Path,
                   checks: Checks) -> bool:
    """An emitted document must pass ``polydegen verify``; record its digest."""
    path = workdir / f"emitted-{i}.json"
    path.write_bytes(doc)
    out = run_child(polydegen_args(("verify", "--in", str(path))), env,
                    workdir / f"emitted-{i}.verify")
    checks.digests[" ".join(cmd.argv)] = hashlib.sha256(doc).hexdigest()
    if out.returncode != 0:
        checks.failures.append(f"[{i}] {' '.join(cmd.argv)}: emitted document does not "
                               f"verify (exit {out.returncode}): {out.stdout[-300:]!r}")
        return False
    return True


# ---------------------------------------------------------- end-to-end run


def closed_loop(commands, seconds: float, env, workdir: Path, checks: Checks) -> dict:
    reference: list[str] = []
    passes = []
    measured = 0.0
    # Stop at the pass boundary nearest to ``seconds``.
    while not passes or measured + passes[-1]["wall_s"] / 2 < seconds:
        pass_start = time.perf_counter()
        outcomes = [run_child(polydegen_args(cmd.argv), env, workdir / f"out-{i}")
                    for i, cmd in enumerate(commands)]
        wall = time.perf_counter() - pass_start
        measured += wall
        passes.append({
            "wall_s": wall,
            "cpu_s": sum(o.cpu_s for o in outcomes),
            "slowest_cmd_s": max(o.wall_s for o in outcomes),
            "peak_rss_mb": max(o.max_rss_kb for o in outcomes) / 1024,
            "commands_s": [o.wall_s for o in outcomes],
        })
        first = len(passes) == 1
        for i, (cmd, o) in enumerate(zip(commands, outcomes)):
            checks.attempted += 1
            ok = check_outcome(i, cmd, o.returncode, o.stdout, o.stderr, checks, reference)
            if ok and first and cmd.emits:
                ok = verify_emitted(i, cmd, o.stdout, env, workdir, checks)
            checks.failed_attempts += not ok
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "cpu_s", "slowest_cmd_s", "peak_rss_mb")}
    return {"metrics": metrics, "passes": passes}


# ----------------------------------------------------------- per-layer run


def in_process_pass(commands, checks: Checks, reference: list[str]):
    """One pass through ``cli.main`` in this process.

    Returns the total time in ``cli.main`` and, per command, its stdout and
    whether it passed its checks.
    """
    from polydegen import cli

    total, outputs = 0.0, []
    for i, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            total += time.perf_counter() - start
        stdout = out.getvalue().encode("utf-8")
        ok = check_outcome(i, cmd, code, stdout, err.getvalue(), checks, reference)
        checks.attempted += 1
        checks.failed_attempts += not ok
        outputs.append((stdout, ok))
    return total, outputs


def traced_run(workload: wl.Workload, commands, seconds: float, env, workdir: Path,
               checks: Checks) -> dict:
    sys.path.insert(0, str(SRC))
    import polydegen.cli  # noqa: F401  (imports every layer the tracer wraps)

    # Traced and untraced passes alternate, traced first and last (at least
    # two traced passes, for the exact-count check), so that warm-up and
    # drift in the machine's speed fall on both sides of trace.overhead_s.
    reference: list[str] = []
    untraced: list[float] = []
    passes = []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        if passes:
            untraced.append(in_process_pass(commands, checks, reference)[0])
        tracer.reset()
        tracer.install()
        try:
            total, outputs = in_process_pass(commands, checks, reference)
        finally:
            tracer.remove()
        passes.append({"total_s": total, "hit": tracer.hit(),
                       "metrics": tracer.snapshot()})
        if len(passes) == 1:
            for i, (cmd, (doc, ok)) in enumerate(zip(commands, outputs)):
                if ok and cmd.emits and not verify_emitted(i, cmd, doc, env, workdir, checks):
                    checks.failed_attempts += 1

    hit = passes[0]["hit"]
    for name in sorted(workload.must_hit - hit):
        checks.failures.append(f"layer {name} was never entered; its wrapper reads zero")
    for name in sorted(workload.must_miss & hit):
        checks.failures.append(f"layer {name} was entered; {workload.name} should not reach it")
    first = passes[0]["metrics"]
    exact = [name for name in first if tracing.unit(name) != "s"]
    for p in passes[1:]:
        for name in exact:
            if p["metrics"][name] != first[name]:
                checks.failures.append(f"count {name} is not exact: {first[name]} "
                                       f"then {p['metrics'][name]}")

    metrics = {name: first[name] if name in exact
               else statistics.median(p["metrics"][name] for p in passes)
               for name in first}
    metrics["trace.overhead_s"] = (statistics.median(p["total_s"] for p in passes)
                                   - statistics.median(untraced))
    for p in passes:
        p["hit"] = sorted(p["hit"])
    return {"metrics": metrics, "passes": passes, "untraced_s": untraced}


# ------------------------------------------------------------------- main


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec(trace: bool) -> tuple[dict[str, str], dict[str, str]]:
    """Workload reasons and metric units from BENCHMARK.json.

    Its metrics must be the ones this benchmark produces.  It may list a
    subset of the workloads; the others can still be run by name.
    """
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if not set(why) <= set(wl.WORKLOADS):
        raise SetupError(f"BENCHMARK.json names unknown workloads {sorted(why)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = ({name: tracing.unit(name) for name in tracing.PER_LAYER} if trace
                else dict(END_TO_END))
    if declared != produced:
        raise SetupError(f"BENCHMARK.json metrics {declared} differ from {produced}")
    return why, produced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (SRC / "polydegen" / "__init__.py").is_file():
        print(f"error: no polydegen source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    workdir = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    checks = Checks()
    try:
        why, units = load_spec(trace)
        setup_s, info, commands = setup(workload.name, args.seed, env, workdir)
        if trace:
            run = traced_run(workload, commands, args.seconds, env, workdir, checks)
        else:
            run = closed_loop(commands, args.seconds, env, workdir, checks)
            run["metrics"]["setup_s"] = setup_s
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": info["kernel_backend"],
        "python": info["python"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "commands": [" ".join(c.argv) for c in commands],
        "setup_s": setup_s,
    }
    correct = not checks.failures
    record = {
        "context": context,
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed_attempts,
        "failures": checks.failures,
        "emitted_sha256": checks.digests,
        **run,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {workload.name}: {why.get(workload.name, 'not in BENCHMARK.json')}")
    print(f"# context {json.dumps(context)}")
    n = len(run["passes"])
    print(f"# {n} {'traced ' if trace else ''}passes; medians over them; record in {path}")
    for name, unit in units.items():
        print(f"#   {name:44s} {run['metrics'][name]:>16.6g} {unit}")
    print(f"# fail_ratio {checks.failed_attempts}/{checks.attempted}")
    for text in checks.failures:
        print(f"# FAIL {text}")
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed_attempts,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
