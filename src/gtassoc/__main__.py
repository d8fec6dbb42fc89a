"""python -m gtassoc: the command line of gtassoc.cli, with its exit code."""

import sys

from .cli import main

sys.exit(main())
