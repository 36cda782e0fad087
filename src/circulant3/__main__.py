"""python -m circulant3: the command line, as the circulant3 script runs it."""

from .cli import entry

entry()
