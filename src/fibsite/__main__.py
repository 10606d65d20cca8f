"""``python -m fibsite``: the command line of fibsite.cli."""

from .cli import main

if __name__ == "__main__":
    main()
