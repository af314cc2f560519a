"""Entry point for ``python -m ncairy``; same subcommands as the ``ncairy`` script."""

from .cli import main

if __name__ == "__main__":
    main()
