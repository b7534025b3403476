"""Self-tests of the benchmark: ``python3 -m pytest bench/tests -q``.

They sit outside the repository's ``testpaths`` on purpose; the tier-1
suite does not run them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
