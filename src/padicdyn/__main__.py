"""``python -m padicdyn``: the same command line as ``padicdyn``."""

import sys

from .cli import main

sys.exit(main())
