"""Record the reference values for outputs that have no oracle.

    python3 perfbench/record.py

Runs every case of every workload once, applies the checks of checks.py
with every oracle-less comparison switched to recording, and writes the
observed values to perfbench/expected.json. Run it only on a commit
whose outputs are trusted; the benchmark compares later commits with
these values.
"""

import json
import sys

from run import EXPECTED, SRC, _pin_blas, _run_pass
from workloads import WORKLOADS, case_key


def main():
    _pin_blas()
    sys.path.insert(0, str(SRC))
    import softiga.cli

    import checks

    ref = checks.Reference(record=True)
    for cases in WORKLOADS.values():
        _, _, results = _run_pass(softiga.cli, cases)
        for argv, (code, out, err) in zip(cases, results):
            outcome = checks.check_case(argv, code, out, err, ref)
            print(f"{outcome:>12}  {case_key(argv)}")
    EXPECTED.write_text(json.dumps(ref.values, indent=1, sort_keys=True)
                        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
