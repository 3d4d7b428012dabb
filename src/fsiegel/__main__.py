"""The process entry: `python -m fsiegel` and the `fsiegel` console script both exit here.

Once `main` has returned, `gc.freeze()` moves every tracked object, nearly
all of them left by the imports of numpy and fsiegel, into the permanent
generation, which the interpreter's shutdown collections skip.  The run
itself collects exactly as without the freeze.  `cli.main` never freezes:
callers that run it in-process would keep their cyclic garbage for good.
"""

import gc
import sys

from .cli import main


def run() -> int:
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
