"""Per-layer attribution of a cProfile run, by qpalg source module.

The layers are qpalg's modules.  Self time is summed per source file;
call counts and cumulative times are read for the functions each layer
metric names.  Fraction arithmetic is the stdlib `fractions` module and
is reported under the `exactnum` layer, which owns the coefficient field.
"""

from __future__ import annotations

import importlib
import os
import pstats

MODULES = ("rewrite", "qperm", "ncalg", "linalg", "exactnum", "gradings", "groups")
FRACTION_OPS = ("_add", "_sub", "_mul", "_div")

# metric -> (module, qualified name, field); field "calls" or "cumulative_s"
NAMED_FUNCTIONS = {
    "rewrite.reduce_calls": ("rewrite", "_reduce_terms", "calls"),
    "rewrite.complete_s": ("rewrite", "complete", "cumulative_s"),
    "rewrite.interreduce_s": ("rewrite", "interreduce", "cumulative_s"),
    "qperm.tensor_system_s": ("qperm", "build_tensor_system", "cumulative_s"),
    "ncalg.substitute_calls": ("ncalg", "substitute", "calls"),
    "linalg.echelon_calls": ("linalg", "_echelon", "calls"),
    "exactnum.cyclotomic_mul_calls": ("exactnum", "Cyclotomic.__mul__", "calls"),
    "exactnum.cyclotomic_inverse_calls": ("exactnum", "Cyclotomic.inverse", "calls"),
    "gradings.verify_grading_calls": ("gradings", "verify_grading", "calls"),
    "groups.perm_new_calls": ("groups", "Perm.__init__", "calls"),
    "groups.perm_mul_calls": ("groups", "Perm.__mul__", "calls"),
}


def _code_key(module: str, qualname: str):
    """pstats key of a qpalg function, or None when it no longer exists."""
    obj = importlib.import_module(f"qpalg.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _module_of(filename: str):
    parent, base = os.path.split(filename)
    if os.path.basename(parent) == "qpalg" and base.endswith(".py"):
        return base[:-3]
    if base == "fractions.py":
        return "fractions"
    return None


def layer_metrics(profile) -> dict:
    """Self time per module, named call counts and cumulative times."""
    stats = pstats.Stats(profile).stats
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    out["exactnum.fraction_self_s"] = 0.0
    out["exactnum.fraction_ops"] = 0
    out["python.calls"] = 0
    for (filename, _, name), (_, ncalls, selftime, _, _) in stats.items():
        out["python.calls"] += ncalls
        module = _module_of(filename)
        if module == "fractions":
            out["exactnum.fraction_self_s"] += selftime
            if name in FRACTION_OPS:
                out["exactnum.fraction_ops"] += ncalls
        elif module in MODULES:
            out[f"{module}.self_s"] += selftime
    for metric, (module, qualname, field) in NAMED_FUNCTIONS.items():
        key = _code_key(module, qualname)
        row = stats.get(key) if key else None
        if field == "calls":
            out[metric] = row[1] if row else 0
        else:
            out[metric] = row[3] if row else 0.0
    return out
