"""One benchmark operation: an ``mpdsa`` CLI invocation in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names the source tree, the config file, the CLI arguments (null
for a set-up probe that stops after loading the config), whether to trace,
and ``spawn_ns``, the parent's CLOCK_MONOTONIC reading just before it
started this process.  Set-up time runs from that reading to the config
being loaded and schema-validated.  The last stdout line is a JSON object.
"""

import time

_START_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.

    On Linux ``ru_maxrss`` keeps the parent's peak across fork and exec, so
    a worker started by a larger benchmark process would report the
    parent.  The high-water mark in /proc belongs to this program alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import mpdsa.cli as cli
    from mpdsa.runconfig import load_config

    imported_ns = time.monotonic_ns()
    if not cli.__file__.startswith(spec["src"]):
        print(f"mpdsa was imported from {cli.__file__}", file=sys.stderr)
        return 2
    load_config(spec["config"])
    ready_ns = time.monotonic_ns()
    result = {
        "setup_s": (ready_ns - spec["spawn_ns"]) / 1e9,
        "import_s": (imported_ns - _START_NS) / 1e9,
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["exit_code"] = cli.main(spec["argv"])
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            result["trace"] = tracer.report()
    result["maxrss_kb"] = peak_rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
