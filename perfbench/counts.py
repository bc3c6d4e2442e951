"""Exact operation counts from the public ``GatePlan`` and from conv shapes.

Counting follows the XNOR-Net convention (arXiv 1603.05279): binary MACs
(AND/XNOR + popcount on packed bits) and integer MACs (integer activation
times a +-1 weight) are counted separately.  Every count is a pure function
of the plan or of the conv shapes, so it repeats exactly across runs and
seeds of one program version.
"""

from __future__ import annotations

from math import prod

from billnet.tensors import conv_output_shape, pool_output_shape

# Gate-op kinds of the compiled plan, as the benchmark reports them.  A kind
# that a later plan no longer emits reads 0; one the table does not know is
# listed by ``plan_counts`` under "uncounted".
PLAN_KINDS = (
    "stem-conv", "threshold", "pw-conv-bin", "conv-int", "or", "tgap", "mux",
    "maxpool-or", "gap-count", "qlstm", "tern-dense", "argmax",
)
_ELEMENTWISE = ("threshold", "or", "mux")
WORD_BYTES = 8  # float64 / int64 column entries


def plan_counts(plan) -> dict:
    """Per-clip (N=1) op counts per kind, integer MACs and binary MACs."""
    meta = plan.meta
    shapes = {0: (meta["t"], meta["h"], meta["w"], meta["in_channels"])}
    ops = dict.fromkeys(PLAN_KINDS, 0)
    int_macs = bin_macs = 0
    uncounted = set()
    for op in plan.ops:
        ops[op.kind] = ops.get(op.kind, 0) + 1
        src = shapes[op.inputs[0]]
        p = op.params
        if op.kind in ("stem-conv", "conv-int"):
            dims = conv_output_shape(src[:3], p["kernel"], p["strides"])
            out = (*dims, p["out_channels"])
            int_macs += prod(out) * prod(p["kernel"]) * (src[3] // p["groups"])
        elif op.kind == "pw-conv-bin":
            out = (*src[:3], p["out_channels"])
            bin_macs += prod(src) * p["out_channels"]
        elif op.kind == "tgap":
            out = (src[0], 1, 1, src[3])
        elif op.kind == "maxpool-or":
            out = (*pool_output_shape(src[:3], p["window"], p["strides"]), src[3])
        elif op.kind == "gap-count":
            out = (src[0], src[3])
        elif op.kind == "qlstm":
            gates = p["gates"]
            # four gates: counts x weight signs (integer), carry x signs (binary)
            int_macs += src[0] * 4 * gates.n_i * gates.n_o
            bin_macs += src[0] * 4 * gates.n_o * gates.n_o
            out = (src[0], gates.n_o)
        elif op.kind == "tern-dense":
            bin_macs += src[0] * src[1] * p["num_classes"]
            out = (src[0], p["num_classes"])
        elif op.kind == "argmax":
            out = ()
        else:
            if op.kind not in _ELEMENTWISE:
                uncounted.add(op.kind)
            out = src
        shapes[op.output] = out
    return {
        "ops": len(plan.ops),
        "ops_by_kind": ops,
        "int_macs": int_macs,
        "bin_macs": bin_macs,
        "uncounted": sorted(uncounted),
    }


def im2col_bytes(x_shape, spec) -> int:
    """Bytes of the column matrix a grouped conv builds: one row per output
    position, ``kernel volume x in_channels / groups`` entries per group."""
    dims = conv_output_shape(x_shape[1:4], spec.kernel, spec.strides)
    return x_shape[0] * prod(dims) * prod(spec.kernel) * spec.in_channels * WORD_BYTES
