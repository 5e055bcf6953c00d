"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve ...``.
Runs the CLI in this process and, when the server stops (SIGTERM or
SIGINT), writes the recorded spans and counts to ``SPANS.json``.
"""

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def _interrupt(*_args) -> None:
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    # The CLI shuts the server down cleanly on KeyboardInterrupt.
    signal.signal(signal.SIGTERM, _interrupt)
    recorder = layers.Recorder()
    layers.install(recorder)
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
