"""Child interpreter for set-up timing: import sig3 and make one call.

    python3 first_op.py SRC_DIR PAYLOAD_JSON

PAYLOAD_JSON is a workload's ``first_op``.  The parent times this process
from start to exit; it prints nothing and exits 0 on success.  The call is
spelled out here rather than taken from workloads.py, which would also
import mpmath and add its import time to every measurement.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])
payload = json.loads(sys.argv[2])

import sig3  # noqa: E402

workload = payload["workload"]
if workload == "verify_grid":
    from sig3 import cli

    if cli.main(payload["argv"]) not in (0, 1):
        sys.exit(1)
elif workload == "delta_profile":
    sig3.delta(payload["u"], sig3.DeltaContext(sig3.modulus_from_kappa(payload["kappa"])))
elif workload == "lattice_scan":
    mod = sig3.modulus_from_kappa(payload["kappa"])
    z = complex(*payload["z"])
    sig3.wp(z, sig3.invariants(mod))
    sig3.dn3(z, mod)
else:
    sys.exit(f"unknown workload {workload!r}")
