#!/usr/bin/env python3
"""Entry point: ``python3 benchmarks/ledger/run.py`` (see README.md beside this file)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
