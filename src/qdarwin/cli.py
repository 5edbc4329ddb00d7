"""Command-line entry point: reproducible state dumps, mutual-information
curves, finite-statistics estimation runs, measurement plans, and the
built-in local-equivalence verification.

Every output file is accompanied by a <file>.manifest.json recording the
command, parameters, seed, tool version and timestamp needed to reproduce
it byte for byte (pin --timestamp for fully identical manifests).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from datetime import datetime, timezone
from math import pi
from pathlib import Path

import numpy as np

from . import __version__
from .darwinism import mi_curve
from .estimator import plan_measurements
from .graphstate import (
    NAMED_FIXED_STATES,
    GraphSpec,
    build_graph_state,
    diamond_canonical_check,
    diamond_spec,
    named_state,
    star_ghz_check,
    star_spec,
)
from .measurement import (
    RunConfig,
    _check_estimate,
    counts_from_json,
    counts_to_json,
    mi_curve_from_counts,
    sample_setting,
)

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?\s*\*?\s*pi(?:\s*/\s*(\d+(?:\.\d*)?))?$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_angle(text: str) -> float:
    """Radians, either as a float literal or a pi expression like 'pi',
    '-pi/2', '2*pi', '0.5pi'."""
    raw = text.strip().lower()
    match = _ANGLE_RE.match(raw)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        factor = float(match.group(2)) if match.group(2) else 1.0
        divisor = float(match.group(3)) if match.group(3) else 1.0
        if divisor == 0:
            raise _UsageError(f"invalid angle {text!r}: division by zero")
        return sign * factor * pi / divisor
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(f"invalid angle {text!r}: use radians or a pi expression") from None


def _write_with_manifest(path: Path, content: str, manifest: dict) -> None:
    path = Path(path)
    path.write_text(content)
    manifest_path = Path(str(path) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest(args, names: str, seed: int | None = None) -> dict:
    """The command, its named arguments that are set (a flag that is off is
    not), seed, tool and numpy versions, and timestamp."""
    values = {name: getattr(args, name) for name in names.split()}
    return {
        "command": args.command,
        "parameters": {k: v for k, v in values.items() if v is not None and v is not False},
        "seed": seed,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "timestamp": args.timestamp or datetime.now(timezone.utc).isoformat(),
    }


def _resolve_graph(args) -> GraphSpec:
    if args.graph_file:
        if args.family or args.n_env is not None:
            raise _UsageError("--graph-file cannot be combined with --family/--n-env")
        data = json.loads(Path(args.graph_file).read_text())
        return GraphSpec.from_dict(data)
    if not args.family:
        raise _UsageError("either --family or --graph-file is required")
    if args.n_env is None:
        raise _UsageError("--n-env is required with --family")
    if args.phi is None:
        raise _UsageError("--phi is required with --family")
    if args.family == "star":
        if args.theta is not None:
            raise _UsageError("--theta is only valid with --family diamond")
        return star_spec(args.n_env, args.phi)
    if args.theta is None:
        raise _UsageError("--theta is required with --family diamond")
    return diamond_spec(args.n_env, args.phi, args.theta)


def _cmd_state(args) -> int:
    spec = _resolve_graph(args)
    state = build_graph_state(spec)
    dump = {
        "n_qubits": state.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    manifest = _manifest(args, "family n_env phi theta graph_file")
    _write_with_manifest(Path(args.out), json.dumps(dump, indent=2) + "\n", manifest)
    return 0


def _curve_source(args):
    """The named state, or the graph spec itself: mi_curve may not need the state."""
    if args.named:
        if args.family or args.n_env is not None:
            raise _UsageError("--named cannot be combined with --family/--n-env")
        return named_state(args.named)
    return _resolve_graph(args)


def _write_curve(curve, out: Path, manifest: dict) -> None:
    content = curve.to_json() if out.suffix == ".json" else curve.to_csv()
    _write_with_manifest(out, content, {**manifest, "diagnostics": curve._diagnostics})


def _cmd_curve(args) -> int:
    source = _curve_source(args)
    curve = mi_curve(source, args.system)
    manifest = _manifest(args, "family named n_env phi theta graph_file system")
    _write_curve(curve, Path(args.out), manifest)
    return 0


def _cmd_estimate(args) -> int:
    if args.counts_file:
        if args.named:
            raise _UsageError("--counts-file cannot be combined with --named")
        if args.shots is not None:
            raise _UsageError("--shots has no effect when estimating from --counts-file")
        raw = Path(args.counts_file).read_bytes()
        data = counts_from_json(raw.decode())
    else:
        if not args.named:
            raise _UsageError("either --named or --counts-file is required")
        state = named_state(args.named)
        cfg = RunConfig(
            shots_per_setting=args.shots if args.shots is not None else 4500,
            seed=args.seed,
            bootstrap_resamples=args.bootstrap,
            poisson_shots=args.poisson,
        )
        _check_estimate(args.system, args.pipeline)
        target = "star" if args.pipeline == "closed_form" else "full_tomography"
        data = [sample_setting(state, s, cfg) for s in plan_measurements(target).settings]
    curve = mi_curve_from_counts(data, args.system, args.pipeline, bootstrap_resamples=args.bootstrap, seed=args.seed)
    manifest = _manifest(args, "named counts_file pipeline shots bootstrap system poisson", args.seed)
    if args.counts_file:
        manifest["counts_sha256"] = hashlib.sha256(raw).hexdigest()
    if args.save_counts:
        _write_with_manifest(Path(args.save_counts), counts_to_json(data), manifest)
    _write_curve(curve, Path(args.out), manifest)
    return 0


def _cmd_plan(args) -> int:
    plan = plan_measurements(args.target)
    manifest = _manifest(args, "target")
    _write_with_manifest(Path(args.out), plan.to_json(), manifest)
    return 0


def _cmd_verify(args) -> int:
    checks = [
        ("star graph vs GHZ4 under environment Hadamards", star_ghz_check()),
        ("diamond graph vs canonical ket under Swap(2,3) + locals", diamond_canonical_check()),
    ]
    all_passed = True
    for label, report in checks:
        status = "PASS" if report.passed else "FAIL"
        print(f"{label}: fidelity {report.fidelity:.6f} {status}")
        all_passed &= report.passed
    return 0 if all_passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="qdarwin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qdarwin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--timestamp", default=None, help="pin the manifest timestamp")

    def add_graph_flags(p):
        p.add_argument("--family", choices=["star", "diamond"])
        p.add_argument("--n-env", type=int, default=None)
        p.add_argument("--phi", type=parse_angle, default=None)
        p.add_argument("--theta", type=parse_angle, default=None)
        p.add_argument("--graph-file", default=None, help="GraphSpec JSON file")

    p_state = sub.add_parser("state", help="dump a graph state as JSON")
    add_graph_flags(p_state)
    add_common(p_state)
    p_state.set_defaults(func=_cmd_state)

    p_curve = sub.add_parser("curve", help="exact mutual-information curve (CSV or JSON)")
    add_graph_flags(p_curve)
    p_curve.add_argument("--named", choices=list(NAMED_FIXED_STATES))
    p_curve.add_argument("--system", type=int, default=1)
    add_common(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_est = sub.add_parser("estimate", help="finite-statistics estimated curve")
    p_est.add_argument("--named", choices=list(NAMED_FIXED_STATES))
    p_est.add_argument("--counts-file", default=None, help="stored OutcomeCounts JSON to re-analyze")
    p_est.add_argument("--pipeline", required=True, choices=["closed_form", "reconstruction"])
    p_est.add_argument("--shots", type=int, default=None, help="shots per setting (default 4500)")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--bootstrap", type=int, default=500)
    p_est.add_argument("--system", type=int, default=1)
    p_est.add_argument("--poisson", action="store_true", help="Poisson-distributed shots per setting")
    p_est.add_argument("--save-counts", default=None, help="also write the sampled counts JSON here")
    add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_plan = sub.add_parser("plan", help="measurement plan as JSON")
    p_plan.add_argument("--target", required=True, choices=["star", "full_tomography"])
    add_common(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_verify = sub.add_parser("verify", help="run the local-equivalence checks")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse and execute; 0 on success, 1 on validation errors, 2 on bugs."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
