"""``python -m regmaps``: the command line front end."""
from .cli import main

raise SystemExit(main())
