"""Command-line front end: JSON reports for every module.

Exit codes: 0 success, 1 domain error (machine-readable error object),
2 usage error.  Every report embeds the field parameters; with
``--deterministic`` the output contains no timestamps and identical
argv + seed yields byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .errors import GQTError, InvariantError
from .field import build_field, theory_coordinates
from .geocode import (
    GeoCiphertext,
    agree_parameters,
    deserialize_points,
    geo_decode,
    geo_encode,
    geo_transmit,
    parse_bitstream,
    roundtrip_sweep,
)
from .kernel import enumerate_kernel, unitary_escapes, verify_one_or_all
from .linalg import FieldVector, standard_form
from .nogo import clone_obstruction, delete_obstruction, f2_orthogonal_special_case
from .protocols import sdc_transcript, teleport, teleport_char2


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--k", type=int, default=2, help="extension degree (default 2)")
    p.add_argument("--modulus", type=str, default=None,
                   help="comma-separated modulus coefficients, low degree first")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps for byte-reproducible output")


def _count(text: str) -> int:
    """A non-negative integer argument; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _field_from_args(args) -> "FieldSpec":
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    return build_field(args.p, args.k, modulus)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqt",
        description="Exact finite-field quantum states, kernel geometry and protocols",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="inspect GF(p^k): conjugation, norms, splitting")
    _add_field_args(p)
    p.add_argument("--element", type=str, default=None,
                   help="element to analyze, as 't+1' or '1,1'")
    _add_common(p)

    p = sub.add_parser("theory", help="instantiate a theory lattice point (i, m, p)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pp", type=int, required=True, help="prime characteristic")
    _add_common(p)

    p = sub.add_parser("kernel", help="self-orthogonal geometry")
    ksub = p.add_subparsers(dest="kernel_command", required=True)
    ke = ksub.add_parser("enumerate", help="enumerate points and lines")
    _add_field_args(ke)
    ke.add_argument("--dim", type=int, default=4)
    ke.add_argument("--unsafe-size", action="store_true",
                    help="override the desk-scale enumeration guard")
    ke.add_argument("--csv", action="store_true", help="CSV catalog instead of JSON")
    _add_common(ke)

    p = sub.add_parser("verify", help="axioms: one-or-all, degrees, unitary action")
    _add_field_args(p)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=_count, default=20, help="unitaries to sample")
    p.add_argument("--unsafe-size", action="store_true")
    _add_common(p)

    p = sub.add_parser("teleport", help="teleport a state (alpha, beta)")
    _add_field_args(p)
    p.add_argument("--alpha", type=str, required=True)
    p.add_argument("--beta", type=str, required=True)
    p.add_argument("--char2", action="store_true", help="use the characteristic-2 variant")
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("sdc", help="super-dense coding round trip")
    _add_field_args(p)
    p.add_argument("--message", type=str, required=True, help="two bits, e.g. 01")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    for name, help_text in [("noclone", "cloneability scan"), ("nodelete", "deletability scan")]:
        p = sub.add_parser(name, help=help_text)
        nsub = p.add_subparsers(dest=f"{name}_command", required=True)
        ns = nsub.add_parser("scan", help="classify every state pair exhaustively")
        _add_field_args(ns)
        ns.add_argument("--dim", type=int, default=2)
        _add_common(ns)

    p = sub.add_parser("geocode", help="kernel-geometry coding scheme")
    gsub = p.add_subparsers(dest="geocode_command", required=True)
    gr = gsub.add_parser("roundtrip", help="batch encode/transmit/decode sweep")
    _add_field_args(gr)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--trials", type=_count, default=100)
    _add_common(gr)
    ge = gsub.add_parser("encode", help="encode a single state")
    _add_field_args(ge)
    ge.add_argument("--state", type=str, required=True,
                    help="semicolon-separated coordinates, e.g. '1;0;t;t+1'")
    ge.add_argument("--seed", type=int, required=True)
    _add_common(ge)
    gd = gsub.add_parser("decode", help="decode a hex/bit ciphertext")
    _add_field_args(gd)
    gd.add_argument("--bitstream", type=str, required=True)
    gd.add_argument("--seed", type=int, required=True)
    _add_common(gd)

    return parser


# --- command handlers ---------------------------------------------------------

def _cmd_field(args) -> dict:
    spec = _field_from_args(args)
    report = {
        "field": spec.to_json(),
        "order": spec.order,
        "q": spec.q,
        "kappa": spec.kappa.to_json() if spec.q else None,
    }
    if args.element is not None:
        x = spec.parse(args.element if "," not in args.element
                       else [int(c) for c in args.element.split(",")])
        entry = {"element": x.to_json(), "text": str(x)}
        if spec.q:
            a, b = x.decompose()
            entry.update({
                "conjugate": x.conj().to_json(),
                "norm": x.norm().to_json(),
                "split": {"a": a.to_json(), "b": b.to_json()},
                "component_square_sum": x.component_square_sum().to_json(),
            })
        report["analysis"] = entry
    return report


def _cmd_theory(args) -> dict:
    return theory_coordinates(args.i, args.m, args.pp).to_json()


def _cmd_kernel_enumerate(args):
    """The JSON report, or the CSV catalog text with ``--csv``."""
    spec = _field_from_args(args)
    geom = enumerate_kernel(standard_form(spec, args.dim), override=args.unsafe_size)
    return geom.to_csv() if args.csv else geom.to_json()


def _cmd_verify(args) -> dict:
    spec = _field_from_args(args)
    form = standard_form(spec, args.dim)
    geom = enumerate_kernel(form, override=args.unsafe_size)
    ooa = verify_one_or_all(geom)
    escapes = unitary_escapes(geom, args.seed, args.samples)
    degrees = sorted({len(geom.incidence[i]) for i in range(len(geom.points))})
    sizes = sorted({len(line) for line in geom.lines})
    return {
        "field": spec.to_json(),
        "dim": args.dim,
        "num_points": len(geom.points),
        "num_lines": len(geom.lines),
        "point_degrees": degrees,
        "line_sizes": sizes,
        "double_counting_ok": (
            len(geom.points) * degrees[0] == len(geom.lines) * sizes[0]
            if len(degrees) == 1 and len(sizes) == 1 else False
        ),
        "one_or_all": ooa.to_json(),
        "unitary_samples": args.samples,
        "unitary_escapes": escapes,
    }


def _cmd_teleport(args) -> dict:
    spec = _field_from_args(args)
    fn = teleport_char2 if args.char2 else teleport
    tr = fn(args.alpha, args.beta, spec, args.seed)
    return tr.to_json()


def _cmd_sdc(args) -> dict:
    spec = _field_from_args(args)
    return sdc_transcript(args.message, spec, args.seed).to_json()


def _cmd_nogo_scan(args, kind: str) -> dict:
    spec = _field_from_args(args)
    classify = clone_obstruction if kind == "clone" else delete_obstruction
    dim = args.dim
    counts: dict = {}
    sample_witnesses: dict = {}
    elements = list(spec.elements())
    import itertools as it

    def vectors():
        for combo in it.product(elements, repeat=dim):
            yield FieldVector(spec, combo)

    pairs = 0
    for phi in vectors():
        for psi in vectors():
            c = classify(phi, psi)
            pairs += 1
            key = c.verdict.value
            counts[key] = counts.get(key, 0) + 1
            if key not in sample_witnesses:
                sample_witnesses[key] = {
                    "phi": phi.to_json(),
                    "psi": psi.to_json(),
                    "obstruction_vanishes": c.obstruction_vanishes,
                }
            if not c.entrywise_agrees:
                raise InvariantError(
                    f"entrywise check disagrees with the {kind} obstruction "
                    f"for phi={phi.to_json()}, psi={psi.to_json()}"
                )
    report = {
        "kind": kind,
        "field": spec.to_json(),
        "dim": dim,
        "pairs": pairs,
        "counts": counts,
        "sample_witnesses": sample_witnesses,
    }
    if kind == "clone":
        report["f2_special_case"] = f2_orthogonal_special_case()
    return report


def _geo_params(args):
    spec = _field_from_args(args)
    geom = enumerate_kernel(standard_form(spec, 4))
    return spec, agree_parameters(geom, args.seed)


def _cmd_geocode_roundtrip(args) -> dict:
    spec, params = _geo_params(args)
    report = roundtrip_sweep(params, args.trials, args.seed)
    out = report.to_json()
    out["field"] = spec.to_json()
    out["params"] = {"line_indices": list(params.line_indices), "seed": params.seed}
    return out


def _cmd_geocode_encode(args) -> dict:
    spec, params = _geo_params(args)
    coords = [spec.parse(c.strip()) for c in args.state.split(";")]
    ct = geo_encode(FieldVector(spec, coords), params)
    _, received = geo_transmit(ct, spec)
    return {
        "field": spec.to_json(),
        "ciphertext": ct.to_json(),
        "bitstream_hex": f"{int(ct.bitstream, 2):0{(len(ct.bitstream) + 3) // 4}x}",
        "transmitted_ok": list(received) == list(ct.points),
    }


def _cmd_geocode_decode(args) -> dict:
    spec, params = _geo_params(args)
    bits = parse_bitstream(args.bitstream, spec, 4)
    points = deserialize_points(bits, spec, 4)
    ct = GeoCiphertext(points=tuple(points), bitstream=bits)
    recovered = geo_decode(ct, params)
    return {
        "field": spec.to_json(),
        "recovered_point": recovered.to_json(),
    }


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "field":
            report = _cmd_field(args)
        elif args.command == "theory":
            report = _cmd_theory(args)
        elif args.command == "kernel":
            report = _cmd_kernel_enumerate(args)
        elif args.command == "verify":
            report = _cmd_verify(args)
        elif args.command == "teleport":
            report = _cmd_teleport(args)
        elif args.command == "sdc":
            report = _cmd_sdc(args)
        elif args.command == "noclone":
            report = _cmd_nogo_scan(args, "clone")
        elif args.command == "nodelete":
            report = _cmd_nogo_scan(args, "delete")
        elif args.command == "geocode":
            handler = {
                "roundtrip": _cmd_geocode_roundtrip,
                "encode": _cmd_geocode_encode,
                "decode": _cmd_geocode_decode,
            }[args.geocode_command]
            report = handler(args)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
    except GQTError as exc:
        payload = json.dumps({"error": exc.to_json()}, indent=2)
        _emit(payload, getattr(args, "out", None))
        return 1

    if isinstance(report, str):  # kernel catalog as CSV
        _emit(report, args.out)
        return 0

    if not getattr(args, "deterministic", False):
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    payload = json.dumps(report, indent=2)
    _emit(payload, getattr(args, "out", None))
    return 0


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
