"""One set-up sample, taken in a fresh interpreter.

Usage: python3 -I bench/probe_setup.py SRC_DIR

Times ``import fanolink.cli`` and then the load of every family's golden
tables and the Hodge table, and prints both times as one JSON object.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fanolink.cli  # noqa: E402
imported = time.perf_counter()

from fanolink import catalog, golden, search  # noqa: E402

for family in search.FAMILY_IDS:
    golden.golden_for_family(family)
catalog.load_hodge_table()
loaded = time.perf_counter()

print(
    json.dumps(
        {
            "import_s": imported - start,
            "setup_s": loaded - start,
            "module": fanolink.cli.__file__,
        }
    )
)
