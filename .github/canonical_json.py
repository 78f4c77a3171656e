"""Pass stdin through to stdout when it is exactly one canonical JSON report.

Canonical means `json.dumps(report, sort_keys=True, indent=2)` and one
newline, the bytes every hlbench report must have.  Anything else exits 3
with a message on stderr, so a failed check is told apart from hlbench's own
exit statuses 0, 1 and 2.

    hlbench zdensity --nmax 4 | python3 .github/canonical_json.py > /dev/null
"""

import json
import sys

out = sys.stdin.read()
if out != json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n":
    print("stdout is not json.dumps(report, sort_keys=True, indent=2) plus a newline", file=sys.stderr)
    sys.exit(3)
sys.stdout.write(out)
