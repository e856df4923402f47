"""`python -m fluxon`: the fluxon command line."""

import sys

from .cli import main

sys.exit(main())
