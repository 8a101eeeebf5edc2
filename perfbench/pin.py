"""Regenerate pinned.json, the expected outputs of enumerate-shipped.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known to be right: the
benchmark counts every later difference from these values as a failure.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.chdir(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from workloads import OUT, PINNED, EnumerateShipped  # noqa: E402

OUT.mkdir(exist_ok=True)
shipped = EnumerateShipped(seed=0)
pinned = {path.name: shipped.outcome(path)[0] for path in sorted(shipped.files)}
PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
print(f"pinned {len(pinned)} files in {PINNED}")
