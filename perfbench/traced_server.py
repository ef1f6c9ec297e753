"""``repro serve`` with span wrappers on its campaign packaging layer.

Usage: ``python3 perfbench/traced_server.py SPANS_JSON RESET_MARKER
serve ARGS...`` (with ``src`` on ``PYTHONPATH``).  SIGUSR1 zeroes the
spans and writes RESET_MARKER; when the server has drained, the spans
since the last reset go to SPANS_JSON.  Campaign runs execute in spawned
pool workers, which start from a fresh import and are not wrapped.
"""

from __future__ import annotations

import json
import signal
import sys


def main(argv) -> int:
    spans_path, marker, *serve_argv = argv
    # Imported here, not at the top: spawned pool workers re-import this
    # file as their main module and must not pay for (or patch) anything.
    from repro.cli import main as repro_main

    from layers import Patches, Spans, install_campaign_spans

    spans = Spans()
    install_campaign_spans(spans, Patches())

    def reset(signum, frame) -> None:
        spans.reset()
        with open(marker, "w") as handle:
            handle.write("reset\n")

    signal.signal(signal.SIGUSR1, reset)
    try:
        return repro_main(serve_argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(spans.to_dict(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
