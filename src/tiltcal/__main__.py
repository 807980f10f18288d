"""``python -m tiltcal``: the ``tiltcal`` command, also from an uninstalled checkout."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
