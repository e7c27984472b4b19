"""Launcher for ``repro serve`` as the benchmark's daemon process.

    python3 perfbench/daemon.py [--totals PATH] -- serve --port 0 ...

Runs the ``repro`` CLI in this process.  With ``--totals`` it first
installs the layer wrappers of :mod:`tracer`, and when the daemon drains
on SIGTERM it writes the merged layer totals to ``PATH`` as JSON, so the
traced and the untraced runs share one process layout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_sources  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--totals", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    use_checkout_sources()
    tracer = None
    if args.totals:
        from tracer import Tracer

        tracer = Tracer().install()
    from repro.cli import main as repro_main

    code = repro_main(cli)
    if tracer is not None:
        tracer.uninstall()
        Path(args.totals).write_text(json.dumps(tracer.totals()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
