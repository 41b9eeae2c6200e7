"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data/format error,
4 evaluation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from enum import Enum

import numpy as np

from . import augment as aug
from . import tensorio
from .errors import ConfigError, DataError, ReidkitError
from .evaluation import check_topk, evaluate_distances, save_cmc_csv, save_report
from .geometry import DISTANCES, l2_normalize
from .losses import (
    CircleParams,
    CombinedParams,
    TripletParams,
    circle_loss,
    combined_loss,
    loss_gradient,
    triplet_loss_batch_hard,
)
from .mining import (
    MiningThresholds,
    check_quantiles,
    partition_samples,
    per_sample_losses,
    save_mining_report,
    thresholds_from_quantiles,
)
from .pipeline import PipelineConfig, config_from_mapping, field_default, load_config, run_pipeline
from .rerank import AqeParams, RerankParams, aqe_expand, ensemble_distances, k_reciprocal_rerank
from .synthetic import SynthParams, generate_synthetic, make_rng, split_query_gallery

# Fields whose flag is not named after the field.
_FLAG_NAMES = {"cluster_spread": "--spread", "lam": "--lambda"}


def _add_params(p, cls):
    """Add one ``--field-name`` flag per field of the params dataclass ``cls``.

    The flag's type comes from the field's default: a bool is a switch, a
    list is repeatable and an Enum takes its member values.  Every flag
    defaults to None, so an absent flag leaves the value to the dataclass
    (or, for ``pipeline``, to the config file).  Fields holding a nested
    params dataclass get no flag; their own fields do.
    """
    for f in dataclasses.fields(cls):
        default = field_default(f)
        if dataclasses.is_dataclass(default):
            continue
        kind = type(default)
        if kind is bool:
            kwargs = {"action": "store_const", "const": True}
        elif kind is list:
            kwargs = {"action": "append"}
        elif issubclass(kind, Enum):
            metavar = "{" + ",".join(m.value for m in kind) + "}"
            kwargs = {"type": kind, "choices": list(kind), "metavar": metavar}
        else:
            kwargs = {"type": kind, "choices": f.metadata.get("choices")}
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, default=None, help=f.metadata.get("help"), **kwargs)


def _given(cls, args) -> dict:
    """The fields of ``cls`` whose flags were given on the command line."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _add_synth(p):
    _add_params(p, SynthParams)
    p.add_argument("--out-prefix", required=True, help="writes PREFIX.fvec and PREFIX.csv")
    p.add_argument(
        "--query-per-id", type=int, default=None,
        help="also write PREFIX_query/_gallery splits with this many queries per identity",
    )


def _cmd_synth(args):
    features, meta = generate_synthetic(SynthParams(**_given(SynthParams, args)))
    tensorio.save_features(features, f"{args.out_prefix}.fvec")
    tensorio.save_meta(meta, f"{args.out_prefix}.csv")
    print(f"wrote {args.out_prefix}.fvec ({features.shape[0]}x{features.shape[1]}) and {args.out_prefix}.csv")
    if args.query_per_id is not None:
        qf, qm, gf, gm = split_query_gallery(features, meta, args.query_per_id)
        for tag, f, m in (("query", qf, qm), ("gallery", gf, gm)):
            tensorio.save_features(f, f"{args.out_prefix}_{tag}.fvec")
            tensorio.save_meta(m, f"{args.out_prefix}_{tag}.csv")
            print(f"wrote {args.out_prefix}_{tag}.fvec ({f.shape[0]} rows)")
    return 0


def _add_distances(p):
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--metric", choices=list(DISTANCES), default="euclidean")
    p.add_argument("--l2-normalize", action="store_true", help="normalize rows first")
    p.add_argument("--out", required=True)


def _cmd_distances(args):
    q = tensorio.load_features(args.query)
    g = tensorio.load_features(args.gallery)
    if args.l2_normalize:
        q, g = l2_normalize(q), l2_normalize(g)
    dist = DISTANCES[args.metric](q, g)
    tensorio.save_distances(dist, args.out)
    print(f"wrote {args.out} ({dist.shape[0]}x{dist.shape[1]})")
    return 0


def _add_rerank(p):
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    _add_params(p, RerankParams)
    p.add_argument("--l2-normalize", action="store_true", help="normalize rows first")
    p.add_argument("--out", required=True)


def _cmd_rerank(args):
    params = RerankParams(**_given(RerankParams, args))
    q = tensorio.load_features(args.query)
    g = tensorio.load_features(args.gallery)
    if args.l2_normalize:
        q, g = l2_normalize(q), l2_normalize(g)
    dist = k_reciprocal_rerank(q, g, params)
    tensorio.save_distances(dist, args.out)
    print(f"wrote {args.out} ({dist.shape[0]}x{dist.shape[1]})")
    return 0


def _add_aqe(p):
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    _add_params(p, AqeParams)
    p.add_argument("--out", required=True, help="expanded query features (.fvec)")


def _cmd_aqe(args):
    params = AqeParams(**_given(AqeParams, args))
    q = tensorio.load_features(args.query)
    g = tensorio.load_features(args.gallery)
    expanded = aqe_expand(q, g, params)
    tensorio.save_features(expanded, args.out)
    print(f"wrote {args.out} ({expanded.shape[0]}x{expanded.shape[1]})")
    return 0


def _add_ensemble(p):
    p.add_argument("inputs", nargs="+", help=".dmat files to fuse")
    p.add_argument("--normalize", action="store_true", help="min-max scale each input first")
    p.add_argument("--out", required=True)


def _cmd_ensemble(args):
    inputs = [tensorio.open_distances(p) for p in args.inputs]
    fused = ensemble_distances(inputs, normalize=args.normalize)
    tensorio.save_distances(fused, args.out)
    print(f"wrote {args.out} (sum of {len(inputs)} matrices)")
    return 0


def _add_eval(p):
    p.add_argument("--distances", required=True)
    p.add_argument("--query-meta", required=True)
    p.add_argument("--gallery-meta", required=True)
    p.add_argument("--exclude-same-camera", action="store_true")
    p.add_argument("--topk", type=int, default=50)
    p.add_argument("--out-report", default=None)
    p.add_argument("--out-cmc", default=None)


def _cmd_eval(args):
    check_topk(args.topk)
    dist = tensorio.load_distances(args.distances)
    qmeta = tensorio.load_meta(args.query_meta)
    gmeta = tensorio.load_meta(args.gallery_meta)
    report = evaluate_distances(
        dist, qmeta, gmeta,
        exclude_same_camera=args.exclude_same_camera, topk=args.topk,
    )
    print(f"mAP {report.map:.6f}  top1 {report.cmc[0]:.6f}  "
          f"valid {report.n_valid_queries}  skipped {report.n_skipped}")
    if args.out_report:
        save_report(report, args.out_report)
    if args.out_cmc:
        save_cmc_csv(report, args.out_cmc)
    return 0


def _add_mine(p):
    p.add_argument("--features", default=None, help="features to compute the losses from (unless --losses)")
    p.add_argument("--meta", required=True)
    _add_params(p, TripletParams)
    p.add_argument("--q-hard", type=float, default=None, help="quantile of the hard threshold")
    p.add_argument("--q-noise", type=float, default=None, help="quantile of the noise threshold")
    p.add_argument("--t-hard", type=float, default=None, help="explicit threshold (overrides quantiles)")
    p.add_argument("--t-noise", type=float, default=None)
    p.add_argument("--losses", default=None, help="externally computed loss vector (.fvec, one row)")
    p.add_argument("--out", required=True, help="report CSV: image_id,loss,class")


def _cmd_mine(args):
    if args.features is None and args.losses is None:
        raise ConfigError("provide --features or --losses")
    if (args.t_hard is None) != (args.t_noise is None):
        raise ConfigError("provide both --t-hard and --t-noise, or neither")
    if args.t_hard is not None:
        thresholds = MiningThresholds(t_hard=args.t_hard, t_noise=args.t_noise)
    else:
        quantiles = {name: q for name, q in (("q_hard", args.q_hard), ("q_noise", args.q_noise))
                     if q is not None}
        check_quantiles(**quantiles)
    triplet = TripletParams(**_given(TripletParams, args)) if args.losses is None else None
    meta = tensorio.load_meta(args.meta)
    if args.losses is not None:
        losses = tensorio.load_features(args.losses)
        if losses.shape[0] != 1:
            raise DataError(f"{args.losses}: loss vector must be one row, got shape {losses.shape}")
        losses = losses[0]
        if losses.shape[0] != len(meta):
            raise ConfigError(
                f"loss vector length {losses.shape[0]} does not match metadata length {len(meta)}"
            )
    else:
        features = tensorio.load_features(args.features)
        losses = per_sample_losses(features, meta, triplet)
    if args.t_hard is None:
        thresholds = thresholds_from_quantiles(losses, **quantiles)
    report = partition_samples(losses, thresholds)
    save_mining_report(report, meta, args.out)
    counts = report.counts()
    print(
        f"wrote {args.out}: "
        + "  ".join(f"{cls.value} {n}" for cls, n in counts.items())
        + f"  (t_hard {thresholds.t_hard:.6g}, t_noise {thresholds.t_noise:.6g})"
    )
    return 0


def _add_augment(p):
    p.add_argument("--op", choices=["flip", "erase", "lgt"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_params(p, aug.EraseParams)  # LgtParams' fields are a subset


def _cmd_augment(args):
    rng = make_rng(args.seed)
    if args.op == "erase":
        params = aug.EraseParams(**_given(aug.EraseParams, args))
    elif args.op == "lgt":
        params = aug.LgtParams(**_given(aug.LgtParams, args))
    img = aug.load_ppm(args.input)
    if args.op == "flip":
        aug.save_ppm(aug.horizontal_flip(img), args.out)
        print(f"wrote {args.out}")
        return 0
    op = aug.random_erase if args.op == "erase" else aug.local_grayscale
    out, rect = op(img, params, rng)
    aug.save_ppm(out, args.out)
    where = f"rect(top={rect.top}, left={rect.left}, h={rect.height}, w={rect.width})" if rect else "no-op"
    print(f"wrote {args.out} ({where})")
    return 0


def _add_loss_check(p):
    p.add_argument("--features", required=True)
    p.add_argument("--meta", required=True)
    for cls in (TripletParams, CircleParams, CombinedParams):
        _add_params(p, cls)
    p.add_argument("--grad-check", action="store_true",
                   help="compare the analytic gradient against central finite differences")


def _cmd_loss_check(args):
    params = CombinedParams(
        **_given(CombinedParams, args),
        triplet=TripletParams(**_given(TripletParams, args)),
        circle=CircleParams(**_given(CircleParams, args)),
    )
    features = tensorio.load_features(args.features)
    labels = tensorio.load_meta(args.meta).person_ids
    loss_t, _ = triplet_loss_batch_hard(features, labels, params.triplet)
    loss_c = circle_loss(features, labels, params.circle)
    total = combined_loss(features, labels, params)
    print(f"triplet {loss_t:.6f}  circle {loss_c:.6f}  combined {total:.6f}")
    if args.grad_check:
        x = features.astype(np.float64)
        grad = loss_gradient(x, labels, params)
        h = 1e-3
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd[i, j] = (combined_loss(xp, labels, params) - combined_loss(xm, labels, params)) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-12)
        err = np.abs(grad - fd).max() / scale
        print(f"gradient check: max relative error {err:.3e} (h={h})")
    return 0


def _add_pipeline(p):
    p.add_argument("--config", default=None, help="flat key=value config file")
    _add_params(p, PipelineConfig)


def _cmd_pipeline(args):
    values = load_config(args.config) if args.config else {}
    values.update(_given(PipelineConfig, args))  # flags win over the file
    cfg = config_from_mapping(values)
    report, rows = run_pipeline(cfg)
    for name, r in rows:
        print(f"{name:<12} mAP {r.map:.6f}  top1 {r.cmc[0]:.6f}")
    print(f"artifacts in {cfg.out_dir}")
    return 0


# The one list of subcommands, in `reidkit --help` order: name -> (help, add flags, run).
_COMMANDS = {
    "synth": ("generate a seeded synthetic embedding dataset", _add_synth, _cmd_synth),
    "distances": ("pairwise query x gallery distance matrix", _add_distances, _cmd_distances),
    "rerank": ("k-reciprocal re-ranking of query x gallery distances", _add_rerank, _cmd_rerank),
    "aqe": ("alpha-weighted query expansion", _add_aqe, _cmd_aqe),
    "ensemble": ("elementwise sum of distance matrices", _add_ensemble, _cmd_ensemble),
    "eval": ("mAP/CMC evaluation of a distance matrix", _add_eval, _cmd_eval),
    "mine": ("loss-based clean/hard/noise partition", _add_mine, _cmd_mine),
    "augment": ("pixel augmentations on PPM (P6) images", _add_augment, _cmd_augment),
    "loss-check": ("loss values (and gradient check) for a feature set", _add_loss_check, _cmd_loss_check),
    "pipeline": ("full retrieval pipeline with ablation report", _add_pipeline, _cmd_pipeline),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidkit",
        description="Numerical core of a person re-identification retrieval pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add, _) in _COMMANDS.items():
        add(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, _, run = _COMMANDS[args.command]
    try:
        return run(args)
    except ReidkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
