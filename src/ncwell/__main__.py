"""`python -m ncwell <command>`: the ncwell command line, as the `ncwell` script runs it."""

import sys

from . import cli

sys.exit(cli.main())
