"""`python -m barl1 ...` runs the barl1 command line."""

from .cli import main

if __name__ == "__main__":
    main()
