"""Set-up probe: import eqhom, parse one presentation and certify it.

This is the fixed cost every ``eqhom`` command pays before chain work;
the import is the CLI's, which loads every module.

Run as ``python3 bench/probe.py FILE`` with ``src`` on PYTHONPATH; prints
one JSON line with the package location and the time of each step.
"""

import json
import sys
import time

t0 = time.perf_counter()
import eqhom.cli  # noqa: E402
from eqhom.monoid import certify_srs  # noqa: E402
from eqhom.parser import parse_presentation, parse_srs  # noqa: E402
from eqhom.rewrite import certify  # noqa: E402

t1 = time.perf_counter()
path = sys.argv[1]
with open(path, encoding="utf-8") as f:
    text = f.read()
if path.endswith(".srs"):
    system, certify_system = parse_srs(text), certify_srs
else:
    system, certify_system = parse_presentation(text), certify
t2 = time.perf_counter()
certify_system(system)
t3 = time.perf_counter()
print(json.dumps({"eqhom": eqhom.__file__, "import_s": t1 - t0,
                  "parse_s": t2 - t1, "certify_s": t3 - t2}))
