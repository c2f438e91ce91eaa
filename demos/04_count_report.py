"""The full count-reproduction matrix as a report table.

Runs every generator over the desk-scale parameter grid, compares certified
zero counts against the runtime count formulas, and prints the report.  The
continuous-case (full-turn switching angle) second-order row at even degree
is reported as infeasible: its radial polynomial is even in r and divisible
by r^2, so the nominal count cannot be attained — the row carries that
diagnostic instead of a number.  The script exits 1 when any row fails.
"""

import sys

from avgcycles import RunConfig, build_report

config = RunConfig(suite="all", max_n=2, m_values=(0, 1), seed=0)
report = build_report(config)
print(report.text_table())
report.write_csv("report.csv")
print("\nwrote report.csv")
print(f"all certifications passed: {report.all_passed}")
sys.exit(0 if report.all_passed else 1)
