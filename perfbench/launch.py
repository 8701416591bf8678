"""Start a ``gpf`` subcommand under the benchmark's probes.

    python3 perfbench/launch.py [--spans PATH] [--ready] -- <gpf arguments>

With ``--spans`` the layer probes of :mod:`layers` are installed before
the command runs and the recorded spans are written to PATH when it
returns, so ``gpf worker`` and ``gpf serve`` are traced exactly like the
in-process workloads.  SIGTERM ends the command through the same path as
Ctrl-C, so the spans are still written.  ``--ready`` instead builds one
serial engine context, prints ``READY`` and exits: the start-up probe
behind the ``setup_s`` metric of ``wgs_serial``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="install the probes; write spans here on exit")
    parser.add_argument("--ready", action="store_true", help="start-up probe only")
    parser.add_argument("gpf_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.ready:
        from repro.engine.context import EngineConfig, GPFContext

        GPFContext(EngineConfig(executor_backend="serial")).stop()
        print("READY", flush=True)
        return 0

    recorder = None
    if args.spans:
        from layers import PROBES
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder, PROBES)

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    gpf_args = args.gpf_args[1:] if args.gpf_args[:1] == ["--"] else args.gpf_args
    if gpf_args[:1] == ["worker"]:
        # gpf worker stops cleanly on KeyboardInterrupt; gpf serve installs
        # its own SIGTERM handler (drain) when it starts.
        signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli.main import main as gpf_main

    try:
        return gpf_main(gpf_args)
    finally:
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
