"""`python -m weylinv.cli ...`: the `weylinv` command."""

import sys

from . import main

sys.exit(main())
