"""Run one distill-ssl CLI command under the benchmark's hooks.

    python3 perfbench/child.py --record OUT.json --main MOD:FN [--step MOD:FN]
        [--trace 0|1] -- <distill-ssl command and flags>

The hooks are installed from here, then ``distill_ssl.cli.run`` runs the
command exactly as the ``distill-ssl`` entry point would.  The record
(hook timestamps, import time and, when traced, every span) is written
when the command returns.  Exit code: the command's, or 3 when a hooked
function no longer exists.
"""

import argparse
import sys
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--record", required=True)
    parser.add_argument("--main", required=True)
    parser.add_argument("--step")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(SRC))
    t0 = spans.now_ns()
    import distill_ssl.cli as cli  # imports every package module

    import_ns = spans.now_ns() - t0
    recorder = spans.Recorder(traced=bool(args.trace))
    try:
        if recorder.traced:
            recorder.install_tracer()
        if args.step in (None, args.main):
            recorder.install_hook(args.main, main=True, step=args.step is not None)
        else:
            recorder.install_hook(args.main, main=True, step=False)
            recorder.install_hook(args.step, main=False, step=True)
    except spans.MissingHook as exc:
        print(f"perfbench: missing hook: {exc}", file=sys.stderr)
        return 3
    code = cli.run(command)
    recorder.dump(args.record, import_ns=import_ns)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
