"""The `derivring` command: seeded verification campaigns with
deterministic JSON or text reports.

Exit codes: 0 when every checked property held, 1 when a property was
violated (the report lists where), 2 on configuration or contract
errors and when the report cannot be written (an unwritable `--out`, or
a standard output that its reader closed early). Wall time goes to
stderr; the report itself is byte-stable for a fixed configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .campaign import SUITES, CampaignConfig, run_campaign
from .errors import DerivringError, DomainError
from .rings import PolyRing, Zmod
from .twolocal import NoiseSpec


def parse_ring(text):
    """zmod:M or poly:zmod:M."""
    parts = text.split(":")
    try:
        if len(parts) == 2 and parts[0] == "zmod":
            return Zmod(int(parts[1]))
        if len(parts) == 3 and parts[0] == "poly" and parts[1] == "zmod":
            return PolyRing(Zmod(int(parts[2])))
    except ValueError:
        pass
    raise DomainError(f"unrecognized ring {text!r}; use zmod:M or poly:zmod:M")


# integer flags: (flag, help); the default is the CampaignConfig field's
_INT_FLAGS = (
    ("--n", "matrix dimension"),
    ("--trials", "instances to run"),
    ("--seed", "campaign seed"),
    ("--max-degree", "degree cap for sampled polynomials (Z_m[t] rings only)"),
    ("--max-len", "word length for the two-generator suite"),
    ("--samples", "per-instance samples (theorem suites)"),
)


def build_parser():
    # every default is CampaignConfig's, which _reject_unused compares to
    parser = argparse.ArgumentParser(
        prog="derivring",
        description="Exact verification campaigns for derivations on matrix rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--ring", default="zmod:5", help="zmod:M or poly:zmod:M")
    defaults = CampaignConfig._field_defaults
    for flag, text in _INT_FLAGS:
        default = defaults[flag[2:].replace("-", "_")]
        verify.add_argument(flag, type=int, default=default, help=text)
    verify.add_argument(
        "--noise",
        choices=[spec.value for spec in NoiseSpec],
        default=defaults["noise"].value,
        help="witness ambiguity for the generated instances",
    )
    verify.add_argument(
        "--delta",
        default=defaults["delta"],
        help="base derivation for the extend suite: zero, d/dt, or t*d/dt",
    )
    verify.add_argument("--format", choices=["json", "text"], default="json")
    verify.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # one argument per CampaignConfig field, under the field's name
        values = {name: getattr(args, name) for name in CampaignConfig._fields}
        values["ring"] = parse_ring(args.ring)
        values["noise"] = NoiseSpec(args.noise)
        config = CampaignConfig(**values)
        report = run_campaign(config)
    except DerivringError as exc:
        print(f"derivring: error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_json() if args.format == "json" else report.to_text()
    try:
        if args.out:
            Path(args.out).write_text(payload + "\n")
        else:
            print(payload, flush=True)
    except OSError as exc:
        if not args.out:
            # stdout is gone (say, a reader that closed its pipe early):
            # point it at devnull so that the flush at exit cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"derivring: error: {exc}", file=sys.stderr)
        return 2
    print(f"# wall time: {report.wall_ms:.1f} ms", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
