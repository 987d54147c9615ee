"""`python -m leeisd ...` runs the leeisd command line and exits with its status."""

import sys

from .cli import main

sys.exit(main())
