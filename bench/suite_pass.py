"""One suite-default pass in a fresh interpreter, as ``verify run`` makes it.

    python3 bench/suite_pass.py SRC_DIR CONFIG_JSON

Imports the package from SRC_DIR, runs ``run_suite`` with the SuiteConfig
keywords in CONFIG_JSON, then ``emit_report``, and prints one JSON line
with the wall time, the report text, every check's figures and the peak
RSS of this process.
"""

import json
import os
import resource
import sys

sys.path.insert(0, sys.argv[1])
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import liccheck5.verify  # noqa: E402
from workloads import suite_once  # noqa: E402

out = suite_once(liccheck5.verify, json.loads(sys.argv[2]))
out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(out))
