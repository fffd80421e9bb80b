'''Run every verification suite and print a one-line summary per suite.

Equivalent to ``catalan-hankel verify --suite all`` minus the NDJSON
stream; exits nonzero if any check fails.
'''
import sys

from catalan_hankel.verify import SUITE_ORDER, run_suite

grand_total = grand_failed = 0
for name in SUITE_ORDER:
    reports = run_suite(name)
    total, failed = len(reports), sum(not r.ok for r in reports)
    grand_total += total
    grand_failed += failed
    print(f"{name:12s} {total:4d} checks, {failed} failed")

print(f"{'all':12s} {grand_total:4d} checks, {grand_failed} failed")
sys.exit(1 if grand_failed else 0)
