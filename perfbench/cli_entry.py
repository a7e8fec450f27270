"""Run the netgreeks CLI with layer tracing and write its spans to a file.

    python3 perfbench/cli_entry.py --spans FILE -- <netgreeks CLI arguments>

Used by the cli_small workload's traced passes; the untraced passes run
`python3 -m netgreeks.cli` directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layertrace import Tracer  # noqa: E402


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: cli_entry.py --spans FILE -- <cli arguments>", file=sys.stderr)
        return 2
    from netgreeks import cli

    tracer = Tracer().install()
    try:
        code = cli.main(argv[3:])
    finally:
        tracer.uninstall()
        Path(argv[1]).write_text(json.dumps(tracer.take()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
