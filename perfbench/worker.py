"""One benchmark phase in a fresh interpreter; ``run.py`` starts it.

    worker.py setup|gate|measure|trace WORKLOAD SEED SECONDS
    worker.py cli-traced SPANS_PATH CLI_ARGS...

The last line of standard output is one JSON object.  ``setup`` prints the
monotonic clock (ns) once the workload's estimators or config exist, so the
caller can time interpreter start, import and construction together.
``cli-traced`` runs ``decaystream.cli.main`` with every entry point traced and
writes the spans to SPANS_PATH.
"""

import json
import sys
import time


def main(argv):
    phase = argv[0]
    if phase == "cli-traced":
        from decaystream import cli
        from tracing import Tracer

        with Tracer().install() as tracer:
            code = cli.main(argv[2:])
        hist = tracer.objects.get("histogram")
        tracer.counters["extensions.keys_live"] = len(hist.keys()) if hist is not None else 0
        sys.stdout.flush()
        tracer.spans().save(argv[1])
        return code

    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[argv[1]]()
    seed = int(argv[2])
    if phase == "setup":
        workload.setup(seed)
        print(json.dumps({"ready_ns": time.monotonic_ns()}))
        return 0
    checks = Checks()
    if phase == "gate":
        workload.gate(seed, checks)
        result = {}
    else:
        seconds = float(argv[3])
        result = getattr(workload, phase)(seed, seconds, checks)
    result.update(attempted=checks.attempted, failed=checks.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
