"""`python -m driftcast ...` runs the driftcast command line (see cli)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
