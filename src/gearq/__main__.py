"""``python -m gearq``: the sweep CLI (see gearq.cli)."""
from .cli import main

raise SystemExit(main())
