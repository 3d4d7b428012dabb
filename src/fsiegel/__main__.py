"""The process entry: `python -m fsiegel` and the `fsiegel` console script both exit here.

An exception that escapes `cli.main`, such as a ConsistencyError (an
internal arithmetic bug), prints its traceback on stderr and exits 4, so
a script can tell a broken program from a failed check (1).
KeyboardInterrupt keeps Python's own exit.

Once `main` has returned, `gc.freeze()` moves every tracked object, nearly
all of them left by the imports of numpy and fsiegel, into the permanent
generation, which the interpreter's shutdown collections skip.  The run
itself collects exactly as without the freeze.  `cli.main` never freezes:
callers that run it in-process would keep their cyclic garbage for good.
"""

import gc
import sys
import traceback

from .cli import main


def run() -> int:
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        return 4
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
