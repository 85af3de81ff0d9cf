"""Command line interface: gen, noise, train, fuse, clean, sweep, report.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error. All output
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .annotators import majority_vote, staple
from .data import CsvFormatError, load_csv, save_csv
from .harness import (ConfigError, PipelineError, atomic_write_text,
                      run_experiment, report_json, strip_wall_time, sweep,
                      sweep_summary_csv, write_report, _apply_noise,
                      _check_section, _make_dataset)
from .numerics import _check_args


def _kv_params(pairs):
    out = {}
    for p in pairs:
        if "=" not in p:
            raise ConfigError(f"expected key=value, got '{p}'")
        k, v = p.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
    return out


def _pop_seed(params, default):
    """The seed parameter (default when absent) as an integer >= 0."""
    seed = params.pop("seed", default or 0)
    try:
        _check_args(None, {"seed": (seed, ">= 0")})
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return seed


GEN_KEYS = {"blobs": ("k", "n", "d", "sep", "seed"),
            "rings": ("k", "n", "noise_std", "seed")}


def _load_config(args):
    with open(args.config, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be an object, got {cfg!r}")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def cmd_gen(args):
    params = _kv_params(args.params)
    kind = "blobs" if args.blobs else "rings"
    unknown = [k for k in params if k not in GEN_KEYS[kind]]
    if unknown:
        raise ConfigError(f"gen --{kind}: unknown parameter(s) "
                          f"{', '.join(unknown)}; expected "
                          f"{', '.join(GEN_KEYS[kind])}")
    seed = _pop_seed(params, args.seed)
    spec = {"kind": kind, "k": params.get("k", 2),
            "n_per_class": params.get("n", 100)}
    if args.blobs:
        spec.update(d=params.get("d", 2), separation=params.get("sep", 8.0))
    elif "noise_std" in params:  # else _make_dataset's default
        spec["noise_std"] = params["noise_std"]
    try:  # the generators check the values as given
        ds = _make_dataset(spec, seed)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    save_csv(ds, args.out)
    return 0


def cmd_noise(args):
    ds = load_csv(args.infile)
    params = _kv_params(args.params)
    seed = _pop_seed(params, args.seed)
    if "rhos" in params:
        try:
            params["rhos"] = [float(r) for r in str(params["rhos"]).split(":")]
        except ValueError as e:
            raise ConfigError("noise.rhos must be numbers joined by ':', got "
                              f"{params['rhos']!r} ({e})") from e
    spec = {"kind": args.kind, **params}
    _check_section(spec, "noise", "noise")
    save_csv(_apply_noise(ds, spec, seed)[0], args.out)
    return 0


def cmd_train(args):
    cfg = _load_config(args)
    report = run_experiment(cfg)
    out = cfg.get("output", args.out or "report.json")
    write_report(report, out)
    print(f"wrote {out}: accuracy "
          f"{report['final_metrics']['accuracy']:.4f}")
    return 0


def cmd_fuse(args):
    ds = load_csv(args.infile)
    if ds.annotator_labels is None:
        raise ConfigError("fuse: input CSV has no annotator columns")
    if args.method == "staple":
        if ds.annotator_labels.shape[1] < 2:
            raise ConfigError("fuse --method staple: need at least 2 "
                              "annotator columns")
        _, model, fused, _ = staple(ds.annotator_labels, ds.num_classes)
        atomic_write_text(args.out,
                          json.dumps(model.to_json(), indent=2) + "\n")
    else:  # majority
        fused = majority_vote(ds.annotator_labels)
        atomic_write_text(args.out, json.dumps(
            {"method": "majority"}, indent=2) + "\n")
    fused_ds = replace(ds, labels=fused)
    labels_path = args.labels_out or (args.out.rsplit(".", 1)[0]
                                      + "_fused.csv")
    save_csv(fused_ds, labels_path)
    return 0


def cmd_clean(args):
    cfg = _load_config(args)
    cfg.setdefault("method", {"procedure": {"name": "iterative_clean"}})
    report = run_experiment(cfg)
    out = cfg.get("output", args.out or "clean_report.json")
    write_report(report, out)
    diag = report["noise_diagnostics"]
    print(f"wrote {out}: flag precision {diag.get('flag_precision', 0):.3f} "
          f"recall {diag.get('flag_recall', 0):.3f}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    rhos = cfg.pop("rhos", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    methods = cfg.pop("methods", None)
    reports, summary, r2 = sweep(cfg, rhos, methods)
    out = args.out or "sweep_summary.csv"
    atomic_write_text(out, sweep_summary_csv(summary))
    print(f"wrote {out}; quadratic fit R^2 = "
          f"{'n/a' if r2 is None else format(r2, '.4f')}")
    return 0


def cmd_report(args):
    with open(args.infile, encoding="utf-8") as f:
        report = json.load(f)
    fm = report["final_metrics"]
    print(f"schema v{report['schema_version']} | noisylab "
          f"{report['version']}")
    print(f"accuracy: {fm['accuracy']:.4f}  macro_f1: {fm['macro_f1']:.4f}"
          + (f"  ece: {fm['ece']:.4f}" if "ece" in fm else ""))
    for key, val in sorted(report.get("noise_diagnostics", {}).items()):
        if isinstance(val, float):
            print(f"{key}: {val:.4f}")
    if args.strip_wall_time:
        print(report_json(strip_wall_time(report)))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="noisylab",
                                description="label-noise experiment lab")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--blobs", action="store_true")
    kind.add_argument("--rings", action="store_true")
    g.add_argument("params", nargs="*", help="k=2 n=100 d=2 sep=8 seed=1")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    n = sub.add_parser("noise", help="corrupt labels of a dataset CSV")
    n.add_argument("--in", dest="infile", required=True)
    n.add_argument("--kind", required=True,
                   choices=["symmetric", "feature", "annotators"])
    n.add_argument("params", nargs="*", help="rho=0.3 seed=1")
    n.add_argument("--out", required=True)
    n.set_defaults(func=cmd_noise)

    t = sub.add_parser("train", help="run a training experiment")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_train)

    f = sub.add_parser("fuse", help="fuse multi-annotator labels")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--method", default="staple",
                   choices=["staple", "majority"])
    f.add_argument("--out", required=True)
    f.add_argument("--labels-out", default=None)
    f.set_defaults(func=cmd_fuse)

    c = sub.add_parser("clean", help="iterative label cleaning experiment")
    c.add_argument("--config", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_clean)

    s = sub.add_parser("sweep", help="noise-rate sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="print a report summary")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--strip-wall-time", action="store_true")
    r.set_defaults(func=cmd_report)
    return p


def cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, CsvFormatError, FileNotFoundError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (PipelineError, Exception) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
