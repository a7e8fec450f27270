#!/usr/bin/env python3
"""Size of the package: lines in src/netgreeks/*.py and names netgreeks exports.

The exported names are the public, non-module attributes of the imported
package, the names ``from netgreeks import ...`` offers.

    python3 scripts/src_size.py
"""

import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import netgreeks  # noqa: E402


def main() -> None:
    lines = sum(len(path.read_text().splitlines()) for path in (SRC / "netgreeks").glob("*.py"))
    names = [name for name, value in vars(netgreeks).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    print(f"src/netgreeks/*.py: {lines} lines")
    print(f"netgreeks exports: {len(names)} names")


if __name__ == "__main__":
    main()
