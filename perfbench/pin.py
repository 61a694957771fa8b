"""Pin the current code's verdicts on every input variant of a workload.

    python3 perfbench/pin.py --workload markov-sparse

Writes ``perfbench/pins/<workload>.json``: each operation's verdict, and
which operations failed a check.  The benchmark compares each verdict that
no theorem fixes with these pins, and counts any failure they do not list as
wrong, so run this only on code whose results are trusted, and again
whenever a generator in ``workloads.py`` changes.
"""

import argparse
import json
import os
import shutil
import sys

from run import WORK, bootstrap, fix_hash_seed, make_call, run_pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2
    from perfbench import checks, workloads

    call = make_call(args.workload)
    check = checks.CHECKS[args.workload]
    workdir = WORK / f"pin-{args.workload}-{os.getpid()}"
    verdicts, failing = {}, {}
    try:
        for variant in range(workloads.VARIANTS):
            ops = workloads.build(args.workload, variant, workdir, known_defects=True)
            outcomes = run_pass(ops, call, check).outcomes
            verdicts[str(variant)] = [o.verdict for o in outcomes]
            failing[str(variant)] = [op.index for op, o in zip(ops, outcomes) if o.failed]
            bad = [f"{op.index} {op.label} {op.spec}: {'; '.join(o.problems)}"
                   for op, o in zip(ops, outcomes) if o.failed]
            print(f"variant {variant}: {len(bad)} failed", *bad, sep="\n  ", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = checks.PINS / f"{args.workload}.json"
    path.write_text(json.dumps({"variants": workloads.VARIANTS, "verdicts": verdicts,
                                "failing": failing}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    fix_hash_seed()
    sys.exit(main())
