"""Put the benchmark's own modules and this checkout's ``src`` on the path."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(E2E), str(E2E.parent.parent / "src")]
