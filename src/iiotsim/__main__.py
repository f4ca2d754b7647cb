"""`python -m iiotsim`: the same command line as the `iiotsim` script."""

import sys

from .cli import main

sys.exit(main())
