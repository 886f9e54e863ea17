"""Validate a Prometheus text exposition file (CI's format checker)::

    python -m repro.telemetry metrics.prom

Exits 0 when the file is valid and 1 otherwise; see
:func:`repro.telemetry.metrics.main`.
"""

import sys

from .metrics import main

if __name__ == "__main__":
    sys.exit(main())
