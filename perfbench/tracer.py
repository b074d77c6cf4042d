"""Run one gqt CLI job with per-layer tracing: ``tracer.py OUT.json -- ARGV...``.

Installs wrappers on gqt's public functions, then calls
``gqt.cli.run(ARGV)`` exactly as ``python -m gqt.cli ARGV`` would.  The
job's stdout is untouched; the trace is written to OUT.json at exit.

Two kinds of wrapper:

* span wrappers, one span per call, at the kernel, linalg, protocols,
  geocode, nogo and cli boundaries: (name, start, end, parent, self time,
  field time, exception).  Self time is the span's duration minus its
  child spans and minus the field operations called directly under it.
* aggregate wrappers for field operations and object constructions, which
  are too many for a span each: a count per name, and for field operations
  the summed time of the outermost call, charged to the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

perf = time.perf_counter_ns

spans: list = []   # [name id, start, end, parent, self_ns, field_ns, error, child_ns]
stack: list = []
names: list = []
counts: defaultdict = defaultdict(int)
state = {"in_field": False, "top_field_ns": 0}
kernel_shape = {"points": 0, "lines": 0, "collinear_pairs": 0}

NAME, START, END, PARENT, SELF, FIELD, ERROR, CHILD = range(8)


def span_wrapper(fn, name, post=None):
    nid = len(names)
    names.append(name)

    def traced(*args, **kwargs):
        rec = [nid, 0, 0, stack[-1] if stack else -1, 0, 0, None, 0]
        spans.append(rec)
        stack.append(len(spans) - 1)
        rec[START] = perf()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            end = perf()
            stack.pop()
            rec[END] = end
            dur = end - rec[START]
            rec[SELF] = dur - rec[CHILD] - rec[FIELD]
            if stack:
                spans[stack[-1]][CHILD] += dur
        if post is not None:
            post(out)
        return out

    return traced


def field_wrapper(fn, name):
    def traced(*args, **kwargs):
        counts[name] += 1
        if state["in_field"]:
            return fn(*args, **kwargs)
        state["in_field"] = True
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            state["in_field"] = False
            if stack:
                spans[stack[-1]][FIELD] += dt
            else:
                state["top_field_ns"] += dt

    return traced


def count_wrapper(fn, name):
    def traced(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return traced


def counting_generator(fn, name):
    def traced(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[name] += 1
            yield item

    return traced


def _record_kernel_shape(geom) -> None:
    kernel_shape["points"] += len(geom.points)
    kernel_shape["lines"] += len(geom.lines)
    kernel_shape["collinear_pairs"] += sum(len(a) for a in getattr(geom, "_adjacency", ())) // 2


SPANNED_FUNCTIONS = [
    ("linalg", "tensor", "linalg.tensor"),
    ("linalg", "_rref", "linalg.rref"),
    ("linalg", "random_unitary", "linalg.random_unitary"),
    ("kernel", "verify_one_or_all", "kernel.verify_one_or_all"),
    ("kernel", "hermitian_curve", "kernel.hermitian_curve"),
    ("kernel", "polar_point", "kernel.polar_point"),
    ("kernel", "unique_meet", "kernel.unique_meet"),
    ("protocols", "sdc_encode", "protocols.sdc_encode"),
    ("protocols", "sdc_decode", "protocols.sdc_decode"),
    ("protocols", "bell_basis", "protocols.bell_basis"),
    ("protocols", "teleport", "protocols.teleport"),
    ("protocols", "teleport_char2", "protocols.teleport"),
    ("protocols", "sdc_transcript", "protocols.sdc_transcript"),
    ("geocode", "agree_parameters", "geocode.agree_parameters"),
    ("geocode", "geo_encode", "geocode.geo_encode"),
    ("geocode", "geo_transmit", "geocode.geo_transmit"),
    ("geocode", "geo_decode", "geocode.geo_decode"),
    ("geocode", "roundtrip_sweep", "geocode.roundtrip_sweep"),
    ("nogo", "clone_obstruction", "nogo.classify"),
    ("nogo", "delete_obstruction", "nogo.classify"),
    ("nogo", "f2_orthogonal_special_case", "nogo.f2_special_case"),
    ("cli", "_emit", "cli.emit"),
]
SPANNED_METHODS = [
    ("linalg", "HermitianForm", "evaluate", "linalg.evaluate"),
    ("linalg", "FieldMatrix", "__matmul__", "linalg.matmul"),
    ("kernel", "KernelGeometry", "to_json", "cli.emit"),
    ("kernel", "KernelGeometry", "to_csv", "cli.emit"),
    ("kernel", "OneOrAllReport", "to_json", "cli.emit"),
    ("protocols", "ProtocolTranscript", "to_json", "cli.emit"),
    ("geocode", "RoundTripReport", "to_json", "cli.emit"),
    ("field", "TheoryDescriptor", "to_json", "cli.emit"),
]
FIELD_SPEC_OPS = ["add_i", "sub_i", "neg_i", "mul_i", "inv_i", "pow_i", "frob_i",
                  "parse", "element", "from_index", "from_int", "from_string"]
FIELD_ELEMENT_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                     "__truediv__", "__pow__", "inverse", "conj", "norm", "decompose",
                     "component_square_sum", "__eq__"]
CONSTRUCTIONS = [
    ("field", "FieldElement", "field.element_new"),
    ("linalg", "FieldVector", "linalg.vector_new"),
    ("linalg", "FieldMatrix", "linalg.matrix_new"),
    ("kernel", "ProjectivePoint", "kernel.projective_point"),
]


def install(modules: dict) -> None:
    """Wrap every traced name wherever a gqt module has bound it.

    ``modules`` maps short names (``field``, ``cli``...) to gqt modules.
    Names the code no longer has are skipped, so their metrics read 0.
    """

    def patch_function(mod, attr, factory, name, *extra):
        original = getattr(modules.get(mod), attr, None)
        if original is None:
            return
        wrapper = factory(original, name, *extra)
        for m in modules.values():
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapper)

    def patch_method(mod, cls_name, attr, factory, name):
        cls = getattr(modules.get(mod), cls_name, None)
        if cls is not None and attr in vars(cls):
            setattr(cls, attr, factory(vars(cls)[attr], name))

    for attr in FIELD_SPEC_OPS:
        patch_method("field", "FieldSpec", attr, field_wrapper, f"field.{attr}")
    patch_method("field", "FieldSpec", "__eq__", field_wrapper, "field.spec_eq")
    for attr in FIELD_ELEMENT_OPS:
        patch_method("field", "FieldElement", attr, field_wrapper, f"field.element.{attr.strip('_')}")
    for attr in ("build_field", "theory_coordinates"):
        patch_function("field", attr, field_wrapper, f"field.{attr}")
    for mod, cls_name, name in CONSTRUCTIONS:
        patch_method(mod, cls_name, "__init__", count_wrapper, name)
    patch_function("kernel", "enumerate_projective_points", counting_generator, "kernel.ray")

    for mod, cls_name, attr, name in SPANNED_METHODS:
        patch_method(mod, cls_name, attr, span_wrapper, name)
    for mod, attr, name in SPANNED_FUNCTIONS:
        patch_function(mod, attr, span_wrapper, name)
    patch_function("kernel", "enumerate_kernel", span_wrapper, "kernel.enumerate_kernel",
                   _record_kernel_shape)

    cli = modules["cli"]
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(json.__dict__)
    json_proxy.dumps = span_wrapper(json.dumps, "cli.emit")
    cli.json = json_proxy

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = span_wrapper(parser.parse_args, "cli.parse")
        return parser

    cli.build_parser = span_wrapper(traced_build_parser, "cli.parse")
    cli.run = span_wrapper(cli.run, "cli.run")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[3:]
    t0 = perf()
    import gqt
    import gqt.cli
    import_ns = perf() - t0
    install({name.partition(".")[2] or "gqt": mod for name, mod in list(sys.modules.items())
             if name == "gqt" or name.startswith("gqt.")})
    code = 1
    try:
        code = gqt.cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        trace = {
            "import_ns": import_ns,
            "names": names,
            "spans": [rec[:ERROR + 1] for rec in spans],
            "counts": dict(counts),
            "top_field_ns": state["top_field_ns"],
            "kernel_shape": kernel_shape,
        }
        with open(out_path, "w") as fh:
            json.dump(trace, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
