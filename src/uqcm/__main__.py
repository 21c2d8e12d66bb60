"""Entry point for ``python -m uqcm``; same interface as the ``uqcm`` script."""

import sys

from .cli import main

sys.exit(main())
