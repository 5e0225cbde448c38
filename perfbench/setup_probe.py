"""Time one fresh start of eqmorph in this process: import the package,
start an endpoint and get the first reset acknowledged (for an external
target this includes spawning the engine process).

    python3 perfbench/setup_probe.py <src dir> <target spec> < reset-script

Prints the seconds taken.  The reset script is read before the clock starts.
"""

import sys
import time

src, target = sys.argv[1], sys.argv[2]
script = sys.stdin.read()
t0 = time.perf_counter()
sys.path.insert(0, src)
import eqmorph  # noqa: E402

endpoint = eqmorph.make_endpoint(target)
endpoint.start()
try:
    endpoint.reset(script)
    elapsed = time.perf_counter() - t0
finally:
    endpoint.stop()
print(repr(elapsed))
