"""Rewrite tests/golden.json from the outputs of the current source.

Run: python tests/rewrite_golden.py

Run it only for a change that means to change the benchmark outputs, and
list the rows that changed with it; test_golden.py itself never loosens.
"""

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN, digests

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
