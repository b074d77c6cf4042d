"""Command-line front end: argument parsing and dispatch.

Each subcommand is one call into the module that owns its data and
returns the finished report: ``elements`` (field, theory), ``kernel`` (kernel
enumerate, verify), ``protocols`` (teleport, sdc), ``nogo`` (noclone and
nodelete scan) and ``geocode`` (geocode roundtrip, encode, decode).

Exit codes: 0 success, 1 domain error (machine-readable error object),
2 usage error (an unwritable ``--out`` path included).  Every report
embeds the field parameters; with ``--deterministic`` the output contains
no timestamps and identical argv + seed yields byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .errors import GQTError
from .field import build_field


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--k", type=int, default=2, help="extension degree (default 2)")
    p.add_argument("--modulus", type=str, default=None,
                   help="comma-separated modulus coefficients, low degree first")


def _add_common(p: argparse.ArgumentParser, handler) -> None:
    """The output flags, and the handler ``run`` calls with the parsed arguments."""
    p.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps for byte-reproducible output")
    p.set_defaults(handler=handler)


def _count(text: str) -> int:
    """A non-negative integer argument; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _positive(text: str) -> int:
    """A positive integer argument; anything else is a usage error."""
    n = _count(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _field_from_args(args) -> "FieldSpec":
    modulus = args.modulus
    if modulus is not None:  # the coefficient grammar is in the object layer
        from .elements import parse_coefficients
        modulus = parse_coefficients(modulus)
    return build_field(args.p, args.k, modulus)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: ``fill(parser)`` adds its arguments on its first parse,
    so a job builds the arguments of the one subcommand it runs."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)


def _group(dest: str, *commands):
    """The ``fill`` of a command with subcommands, each given as (name, help, fill)."""
    def fill(p: argparse.ArgumentParser) -> None:
        sub = p.add_subparsers(dest=dest, required=True)
        for name, help_text, fill_command in commands:
            sub.add_parser(name, help=help_text, fill=fill_command)
    return fill


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand with its help text; each adds its arguments when it parses."""
    parser = argparse.ArgumentParser(
        prog="gqt",
        description="Exact finite-field quantum states, kernel geometry and protocols",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def field(p):
        _add_field_args(p)
        p.add_argument("--element", type=str, default=None,
                       help="element to analyze, as 't+1' or '1,1'")
        _add_common(p, _cmd_field)
    sub.add_parser("field", help="inspect GF(p^k): conjugation, norms, splitting", fill=field)

    def theory(p):
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--pp", type=int, required=True, help="prime characteristic")
        _add_common(p, _cmd_theory)
    sub.add_parser("theory", help="instantiate a theory lattice point (i, m, p)", fill=theory)

    def kernel_enumerate(ke):
        _add_field_args(ke)
        ke.add_argument("--dim", type=_positive, default=4)
        ke.add_argument("--csv", action="store_true", help="CSV catalog instead of JSON")
        _add_common(ke, _cmd_kernel_enumerate)
    sub.add_parser("kernel", help="self-orthogonal geometry", fill=_group(
        "kernel_command", ("enumerate", "enumerate points and lines", kernel_enumerate)))

    def verify(p):
        _add_field_args(p)
        p.add_argument("--dim", type=_positive, default=4)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--samples", type=_count, default=20, help="unitaries to sample")
        _add_common(p, _cmd_verify)
    sub.add_parser("verify", help="axioms: one-or-all, degrees, unitary action", fill=verify)

    def teleport(p):
        _add_field_args(p)
        p.add_argument("--alpha", type=str, required=True)
        p.add_argument("--beta", type=str, required=True)
        p.add_argument("--char2", action="store_true", help="use the characteristic-2 variant")
        p.add_argument("--seed", type=int, required=True)
        _add_common(p, _cmd_teleport)
    sub.add_parser("teleport", help="teleport a state (alpha, beta)", fill=teleport)

    def sdc(p):
        _add_field_args(p)
        p.add_argument("--message", type=str, required=True, help="two bits, e.g. 01")
        p.add_argument("--seed", type=int, default=0)
        _add_common(p, _cmd_sdc)
    sub.add_parser("sdc", help="super-dense coding round trip", fill=sdc)

    def nogo_scan(ns):
        _add_field_args(ns)
        ns.add_argument("--dim", type=_positive, default=2)
        _add_common(ns, _cmd_nogo_scan)
    for name, kind, help_text in [("noclone", "clone", "cloneability scan"),
                                  ("nodelete", "delete", "deletability scan")]:
        p = sub.add_parser(name, help=help_text, fill=_group(
            f"{name}_command", ("scan", "classify every state pair exhaustively", nogo_scan)))
        p.set_defaults(kind=kind)

    def geocode_roundtrip(gr):
        _add_field_args(gr)
        gr.add_argument("--seed", type=int, required=True)
        gr.add_argument("--trials", type=_count, default=100)
        _add_common(gr, _cmd_geocode_roundtrip)

    def geocode_encode(ge):
        _add_field_args(ge)
        ge.add_argument("--state", type=str, required=True,
                        help="semicolon-separated coordinates, e.g. '1;0;t;t+1'")
        ge.add_argument("--seed", type=int, required=True)
        _add_common(ge, _cmd_geocode_encode)

    def geocode_decode(gd):
        _add_field_args(gd)
        gd.add_argument("--bitstream", type=str, required=True)
        gd.add_argument("--seed", type=int, required=True)
        _add_common(gd, _cmd_geocode_decode)
    sub.add_parser("geocode", help="kernel-geometry coding scheme", fill=_group(
        "geocode_command", ("roundtrip", "batch encode/transmit/decode sweep", geocode_roundtrip),
        ("encode", "encode a single state", geocode_encode),
        ("decode", "decode a hex/bit ciphertext", geocode_decode)))

    return parser


# --- command handlers ---------------------------------------------------------
# Each handler imports the module it calls, so a job loads only that module
# and its imports; ``field`` and ``errors`` are loaded above for every job.

def _cmd_field(args) -> dict:
    from .elements import field_report

    return field_report(_field_from_args(args), args.element)


def _cmd_theory(args) -> dict:
    from .elements import theory_coordinates

    return theory_coordinates(args.i, args.m, args.pp).to_json()


def _cmd_kernel_enumerate(args):
    """The JSON report, or the CSV catalog text with ``--csv``."""
    from .kernel import standard_kernel

    geom = standard_kernel(_field_from_args(args), args.dim)
    return geom.to_csv() if args.csv else geom.to_json()


def _cmd_verify(args) -> dict:
    from .kernel import verify_report

    return verify_report(_field_from_args(args), args.dim, args.seed, args.samples)


def _cmd_teleport(args) -> dict:
    from .protocols import teleport, teleport_char2

    fn = teleport_char2 if args.char2 else teleport
    return fn(args.alpha, args.beta, _field_from_args(args), args.seed).to_json()


def _cmd_sdc(args) -> dict:
    from .protocols import sdc_transcript

    return sdc_transcript(args.message, _field_from_args(args), args.seed).to_json()


def _cmd_nogo_scan(args) -> dict:
    from .nogo import scan

    return scan(_field_from_args(args), args.dim, args.kind)


def _cmd_geocode_roundtrip(args) -> dict:
    from .geocode import roundtrip_report

    return roundtrip_report(_field_from_args(args), args.seed, args.trials)


def _cmd_geocode_encode(args) -> dict:
    from .geocode import encode_report

    return encode_report(_field_from_args(args), args.seed, args.state)


def _cmd_geocode_decode(args) -> dict:
    from .geocode import decode_report

    return decode_report(_field_from_args(args), args.seed, args.bitstream)


# --- output -------------------------------------------------------------------

_encode = json.JSONEncoder().encode  # one scalar or key, in C


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: str, or int, float, bool and None quoted."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _dumps(obj, newline: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)``, written with one join per list
    or dict; ``newline`` is a line break and the indent of ``obj``'s line."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(type(x) is int for x in obj):  # not bool, which json writes as true/false
            items = map(int.__repr__, obj)
        else:
            items = (_dumps(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join(_key(k) + ": " + _dumps(v, inner)
                                                 for k, v in obj.items()) + newline + "}")
    return _encode(obj)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except GQTError as exc:
        return _emit(_dumps({"error": exc.to_json()}), args.out, 1)

    if isinstance(report, str):  # kernel catalog as CSV
        return _emit(report, args.out, 0)

    if not args.deterministic:
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return _emit(_dumps(report), args.out, 0)


def _emit(payload: str, out: Optional[str], code: int) -> int:
    """Write the payload; return ``code``, or 2 if the ``--out`` path cannot be written."""
    if not out:
        sys.stdout.write(payload + "\n")
        return code
    try:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        sys.stderr.write(f"gqt: error: cannot write --out {out}: {exc.strerror}\n")
        return 2
    return code


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
