"""The headlab CLI as one `cli` op runs it.

    python3 bench/cli_child.py [--layers] <headlab CLI arguments>

Behaves as `python -m headlab`, then writes one line to standard error:
REPORT_MARKER and a JSON object holding the process's peak RSS
(`peak_rss_mb`) and, with `--layers`, the per-layer totals of the traced
run, including the time to import the CLI (cli.import_s) and to run it
(cli.main_s).

The child reads its peak RSS itself, from VmHWM in /proc/self/status:
Linux charges a child started by `subprocess` the parent's peak RSS at
the moment it started, in both the child's own getrusage and the
parent's RUSAGE_CHILDREN, so neither tells the child's memory.
"""

import json
import sys
from time import perf_counter

# Prefix of the line on standard error that carries the child's report.
REPORT_MARKER = "headlab-bench-child "


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    traced = argv[:1] == ["--layers"]
    argv = argv[traced:]
    t0 = perf_counter()
    import headlab.cli

    import_s = perf_counter() - t0
    report = {}
    if traced:
        import headlab
        from layers import Layers

        layers = Layers()
        layers.install(headlab)
        report = layers.totals
    t0 = perf_counter()
    code = headlab.cli.main(argv)
    if traced:
        report["cli.main_s"] += perf_counter() - t0
        report["cli.import_s"] += import_s
    sys.stdout.flush()
    report["peak_rss_mb"] = peak_rss_mb()
    print(REPORT_MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
