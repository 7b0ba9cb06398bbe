"""``repro serve`` with the benchmark's span recorder installed.

Usage: ``python perfbench/serve.py SPANS_PATH [repro serve flags...]``

The recorder starts switched off.  SIGUSR1 switches it on and SIGUSR2
off again, so the client traces exactly the ops it chooses to.  On
shutdown (SIGTERM or SIGINT, handled by ``repro serve`` itself) the
spans are written to SPANS_PATH as JSON.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402


def main(argv) -> int:
    spans_path, serve_args = argv[0], list(argv[1:])
    recorder = spans.Recorder()
    spans.install(recorder)

    def switch(on: bool):
        def handler(signum, frame):
            recorder.enabled = on
        return handler

    signal.signal(signal.SIGUSR1, switch(True))
    signal.signal(signal.SIGUSR2, switch(False))
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve"] + serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
