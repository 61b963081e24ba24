"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py setup  CONFIG SEED
    python3 bench/worker.py verify CONFIG SEED REPORT [--trace]

``setup`` imports heisvoa and loads the config to a Scenario, then
prints the monotonic clock reading at which it was ready, so the parent
can add the interpreter start it paid before.  ``verify`` does the same
and then runs ``heisvoa verify`` through ``heisvoa.cli.main``, timing
the call until the report is written.  With ``--trace`` the per-layer
spans of ``spans.py`` are installed first.  The last line of standard
output is one JSON object.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    mode, config, seed = argv[0], argv[1], int(argv[2])
    import heisvoa.cli as cli

    scn = cli.load_scenario(config)
    ready = time.monotonic()
    out = {"ready": ready}
    if mode == "verify":
        report = argv[3]
        tracer = None
        if "--trace" in argv[4:]:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        status = cli.main(["verify", config, "--seed", str(seed),
                           "--report", report])
        out["verify_s"] = time.perf_counter() - t0
        out["status"] = status
        out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            from heisvoa.lattice import integral_lattice
            rank = integral_lattice(scn.gram, scn.embedding).heis_rank
            out["layers"] = tracer.metrics(rank)
            out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
