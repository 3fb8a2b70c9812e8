"""Set-up probe: everything an entpaths CLI run does before its work starts.

Run as ``python3 perfbench/setup_probe.py <entpaths CLI argv>``: imports
numpy, scipy and entpaths from the checkout's src/, parses the argv with the
CLI's parser, resolves the config, then prints ``ready``.  run.py times
process start to that line.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
from entpaths import cli  # noqa: E402
from entpaths.harness import ExperimentConfig  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[1:])
config = Path(args.config)
doc = json.loads(config.read_text(encoding="utf-8"))
if args.subcommand == "conjecture":
    ExperimentConfig.from_dict(doc, base_dir=config.resolve().parent)
print("ready", flush=True)
