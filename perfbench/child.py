"""One measured process: import the CLI, read the inputs, call ``cli.main``.

Usage (started by ``run.py``, one at a time):

    python3 perfbench/child.py JOB_JSON LAUNCH_MONOTONIC

``JOB_JSON`` names the source tree, the instances (input path, CLI
arguments, output path) and whether to trace.  ``LAUNCH_MONOTONIC`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, the import of ``stabenum.cli`` and
reading the inputs.  Each instance's stdout is captured in memory and
written to its output file after its timed call.  One JSON line on stdout
reports the measurements.

On a shared virtual machine (measured on a 2-vCPU KVM guest) the CPU speed
can drift by up to 2x within seconds.  To cancel that drift every timing
comes with ``calibration_s``, the mean time of a fixed loop measured before,
during and after it; ``run.py`` scales each time by
``CALIBRATION_REFERENCE_S / calibration_s``.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

CALIBRATION_LOOPS = 50_000
# the loop's time on the machine that calibrated seconds refer to
CALIBRATION_REFERENCE_S = 0.004
SAMPLE_INTERVAL_S = 0.2


def spin() -> float:
    """Time one run of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Runs ``spin()`` every ``SAMPLE_INTERVAL_S`` from a SIGALRM handler.

    The handler runs in the main thread between bytecodes of the measured
    call; ``spent`` is the time it took, which the caller subtracts.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.samples.append(spin())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class _Stdout(io.StringIO):
    """In-memory stdout that notes when the first byte was written."""

    def __init__(self, probe: SpeedProbe) -> None:
        super().__init__()
        self.probe = probe
        self.first_write: float | None = None

    def write(self, text: str) -> int:
        if text and self.first_write is None:
            self.first_write = time.perf_counter() - self.probe.spent
        return super().write(text)


def _call_main(main, argv: list[str], before: float) -> tuple[dict, float]:
    """Call ``main(argv)`` with stdout and stderr captured.

    ``before`` is the calibration sample taken just before; the one taken
    just after is returned with the row, for the next call.
    """
    probe = SpeedProbe()
    out, err = _Stdout(probe), io.StringIO()
    saved = sys.stdout, sys.stderr
    error = None
    code = None
    sys.stdout, sys.stderr = out, err
    try:
        with probe:
            start = time.perf_counter()
            try:
                code = main(argv)
            finally:
                end = time.perf_counter()
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a crash of the program is a failed instance
        error = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = saved
    end -= probe.spent
    first = out.first_write if out.first_write is not None else end
    after = spin()
    samples = [before, *probe.samples, after]
    return {
        "code": code,
        "error": error,
        "run_s": end - start,
        "first_s": first - start,
        "calibration_s": sum(samples) / len(samples),
        "stderr": err.getvalue()[-2000:],
        "stdout": out.getvalue(),
    }, after


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    On Linux ``ru_maxrss`` keeps the high-water mark of the parent's memory
    across fork and exec, so the peak of this process's own address space
    is read from ``VmHWM`` where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    job_path, launch = argv[1], float(argv[2])
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    from stabenum import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"stabenum imported from {cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    for instance in job["instances"]:
        Path(instance["input"]).read_bytes()
    setup_s = time.monotonic() - launch
    speed = spin()
    report: dict = {"setup_s": setup_s, "setup_calibration_s": speed, "rows": []}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import LayerTracer

        tracer = LayerTracer()
    with tracer if tracer is not None else nullcontext():
        for instance in job["instances"]:
            gc.collect()
            if tracer is not None:
                tracer.reset()
            row, speed = _call_main(cli.main, instance["argv"], speed)
            if tracer is not None:
                row["layers"] = tracer.metrics()
            Path(instance["output"]).write_text(row.pop("stdout"), encoding="utf-8")
            report["rows"].append(row)
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
