"""One set-up, in a fresh interpreter: import ddebound, load the workload's configs.

Prints one JSON line with the clock reading when the program is ready for its
first computing call, and the import and config-loading times.  The parent
takes set-up time as that reading minus its own reading just before the start.

    python3 perfbench/setup_probe.py <checkout root> <config path> ...
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import ddebound                     # noqa: E402  (the import is what is timed)
import ddebound.cli                 # noqa: E402,F401

imported = time.perf_counter()
for path in sys.argv[2:]:
    ddebound.load_config(path)
ready = time.perf_counter()
print(json.dumps({"ready": ready, "import_s": imported - start, "load_s": ready - imported}))
