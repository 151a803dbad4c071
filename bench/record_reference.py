"""Regenerate bench/reference.json: the exit code and stdout digest of
every operation the workloads can issue.

    python3 bench/record_reference.py

Record it from the commit whose outputs are the reference, and only when
the expected outputs are meant to change.  Each operation runs with the
memo caches empty and no disk cache, so cache hits in the timed runs are
checked against freshly computed output.
"""

import json
import os
import sys

import run


def main():
    setup = run.Setup("verify_ladder", 0)
    setup.close()
    os.environ.pop("SINGJACK_CACHE_DIR", None)
    ops = {}
    for argv in run.all_reference_argvs():
        setup.jack.clear_caches()
        code, stdout, _ = run.call(setup.cli.main, argv)
        ops[" ".join(argv)] = [code, run.digest(stdout)]
    with open(run.REFERENCE, "w") as fh:
        json.dump({"environment": run.environment(), "ops": ops}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print("%d operations recorded in %s" % (len(ops), run.REFERENCE))


if __name__ == "__main__":
    sys.exit(main())
