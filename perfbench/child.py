"""Run the scanmux CLI (``scanmux.cli.main``) in this process, optionally traced.

Usage: python3 child.py [--spans FILE] <scanmux arguments>

With ``--spans``, the timing shims of ``tracing.py`` are installed before the
command runs and every recorded span is written to FILE when it ends. scanmux
itself is imported from ``PYTHONPATH``.

The last line on stderr is ``perfbench: peak rss <n> KiB``: the high-water
RSS of this program alone. The ``ru_maxrss`` that ``wait4`` returns cannot
serve, because a process started by fork and exec keeps the larger of its
own peak and its parent's peak at the fork.
"""

from __future__ import annotations

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from scanmux import cli

    if spans_path is None:
        return cli.main(argv)
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main(argv: list[str]) -> int:
    try:
        return run(argv)
    finally:
        print(f"perfbench: peak rss {peak_rss_kib()} KiB", file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
