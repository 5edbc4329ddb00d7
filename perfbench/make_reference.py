"""Write perfbench/reference.json: the exact curves the curve workloads check
their output against (to 1e-9), computed through the library API.

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
from math import pi

from run import BENCH_DIR, CURVE_N_ENV, CURVE_THETAS  # also puts src/ on sys.path

from qdarwin import build_graph_state, diamond_spec, mi_curve
from qdarwin.cli import parse_angle

reference = {
    name: mi_curve(build_graph_state(diamond_spec(CURVE_N_ENV, pi, parse_angle(theta))), 1).to_json_dict()
    for name, theta in CURVE_THETAS.items()
}
(BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
