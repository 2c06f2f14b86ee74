"""``python -m yolite <command> ...``: the command line, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
