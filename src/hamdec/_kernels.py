"""Holds only `NUMBA_ENABLED`, which `pipebench/run.py` records in its
environment report.  The matching kernel lives in `realize`; this module
goes together with that read."""

# There is no compiled path.
NUMBA_ENABLED = False
