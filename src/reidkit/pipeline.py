"""End-to-end retrieval pipeline and its flat key=value configuration.

Stage order: load -> optional flip-feature fusion -> L2 normalization ->
optional query expansion -> distances -> optional re-ranking -> optional
ensembling with externally supplied .dmat files -> evaluation.  Query
expansion runs either before the distance stage (``aqe_stage = pre``) or
as a second re-scoring pass on expanded queries after re-ranking
(``aqe_stage = post``, the default).  Each enabled stage is evaluated, so
a run also yields a cumulative ablation table.

Configuration lives in a flat ``key = value`` text file; CLI flags override
file values.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from . import tensorio
from .errors import ConfigError, ReidkitError
from .evaluation import (
    EvalReport,
    ablation_table,
    check_topk,
    evaluate_distances,
    save_cmc_csv,
    save_report,
)
from .geometry import DISTANCES, fuse_flip_features, l2_normalize
from .rerank import AqeParams, RerankParams, aqe_expand, ensemble_distances, k_reciprocal_rerank

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


@dataclass(frozen=True)
class PipelineConfig:
    query_features: str = ""
    gallery_features: str = ""
    query_meta: str = ""
    gallery_meta: str = ""
    query_flipped: str = ""
    gallery_flipped: str = ""
    tta: bool = False
    aqe: bool = False
    rerank: bool = False
    ensemble: list = field(default_factory=list, metadata={"help": ".dmat file to add (repeatable)"})
    normalize_ensemble: bool = False
    metric: str = field(default="euclidean", metadata={"choices": tuple(DISTANCES)})
    k1: int = RerankParams.k1
    k2: int = RerankParams.k2
    lam: float = RerankParams.lam
    aqe_k: int = AqeParams.k
    aqe_alpha: float = AqeParams.alpha
    aqe_stage: str = field(default="post", metadata={"choices": ("pre", "post")})
    exclude_same_camera: bool = False
    topk: int = 50
    out_dir: str = "."

    def __post_init__(self):
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {getattr(self, f.name)!r}")
        check_topk(self.topk)


def field_default(f):
    """The default value of the dataclass field ``f`` (a fresh one for a factory)."""
    return f.default_factory() if f.default is MISSING else f.default


_FIELD_TYPES = {f.name: type(field_default(f)) for f in fields(PipelineConfig)}


def load_config(path) -> dict:
    """Parse a flat key=value UTF-8 config file into a string mapping."""
    values = {}
    try:
        text = tensorio.read_text(path)
    except ReidkitError as exc:
        raise ConfigError(f"config {exc}") from exc
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def config_from_mapping(values: dict) -> PipelineConfig:
    """Build a PipelineConfig from string values, with type coercion."""
    updates = {}
    for key, value in values.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _FIELD_TYPES[key]
        if kind is bool:
            if isinstance(value, bool):
                updates[key] = value
                continue
            word = str(value).lower()
            if word not in _BOOL_WORDS:
                raise ConfigError(f"config key {key!r}: not a boolean: {value!r}")
            updates[key] = _BOOL_WORDS[word]
        elif kind is list:
            if isinstance(value, list):
                updates[key] = [str(v) for v in value]
            else:
                updates[key] = [p.strip() for p in str(value).split(",") if p.strip()]
        else:
            try:
                updates[key] = kind(value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: expected {kind.__name__}, got {value!r}") from None
    return PipelineConfig(**updates)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ReidkitError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


def run_pipeline(cfg: PipelineConfig):
    """Execute the configured pipeline.

    Writes distances.dmat, report.txt, cmc.csv and ablation.txt under
    cfg.out_dir and returns (final EvalReport, ablation rows).
    """
    for key in ("query_features", "gallery_features", "query_meta", "gallery_meta"):
        if not getattr(cfg, key):
            raise ConfigError(f"missing required config key {key!r}")
    if cfg.tta and (not cfg.query_flipped or not cfg.gallery_flipped):
        raise ConfigError("tta requires query_flipped and gallery_flipped feature paths")
    rerank_params = _stage("rerank", RerankParams, k1=cfg.k1, k2=cfg.k2, lam=cfg.lam)
    aqe_params = _stage("aqe", AqeParams, k=cfg.aqe_k, alpha=cfg.aqe_alpha)

    q = _stage("load", tensorio.load_features, cfg.query_features)
    g = _stage("load", tensorio.load_features, cfg.gallery_features)
    qmeta = _stage("load", tensorio.load_meta, cfg.query_meta)
    gmeta = _stage("load", tensorio.load_meta, cfg.gallery_meta)

    def score(name, dist):
        return _stage(
            name, evaluate_distances, dist, qmeta, gmeta,
            exclude_same_camera=cfg.exclude_same_camera, topk=cfg.topk,
        )

    # each array is dropped after its last use, and a stage's matrix, once
    # scored, before the next stage computes its own
    rows = []
    qn = _stage("normalize", l2_normalize, q)
    gn = _stage("normalize", l2_normalize, g)
    dist = _stage("distances", DISTANCES[cfg.metric], qn, gn)
    rows.append(("baseline", score("evaluate", dist)))

    if cfg.tta:
        del dist
        qf = _stage("load", tensorio.load_features, cfg.query_flipped)
        gf = _stage("load", tensorio.load_features, cfg.gallery_flipped)
        qn = _stage("normalize", l2_normalize, _stage("tta", fuse_flip_features, q, qf))
        gn = _stage("normalize", l2_normalize, _stage("tta", fuse_flip_features, g, gf))
        del q, g, qf, gf
        dist = _stage("distances", DISTANCES[cfg.metric], qn, gn)
        rows.append(("+tta", score("evaluate", dist)))
    else:
        del q, g

    if cfg.aqe and cfg.aqe_stage == "pre":
        del dist
        qn = _stage("aqe", aqe_expand, qn, gn, aqe_params)
        dist = _stage("distances", DISTANCES[cfg.metric], qn, gn)
        rows.append(("+aqe", score("evaluate", dist)))

    if cfg.rerank:
        del dist
        dist = _stage("rerank", k_reciprocal_rerank, qn, gn, rerank_params)
        rows.append(("+rerank", score("evaluate", dist)))

    if cfg.aqe and cfg.aqe_stage == "post":
        del dist
        qn = _stage("aqe", aqe_expand, qn, gn, aqe_params)
        if cfg.rerank:
            dist = _stage("rerank", k_reciprocal_rerank, qn, gn, rerank_params)
        else:
            dist = _stage("distances", DISTANCES[cfg.metric], qn, gn)
        rows.append(("+aqe", score("evaluate", dist)))

    del qn, gn
    if cfg.ensemble:
        # each file is checked when opened, then read a few rows at a time as
        # the sum into the pipeline's own matrix needs them, never whole
        extern = [_stage("ensemble", tensorio.open_distances, p) for p in cfg.ensemble]
        dist = _stage("ensemble", ensemble_distances, [dist, *extern], cfg.normalize_ensemble, out=dist)
        rows.append(("+ensemble", score("evaluate", dist)))

    report = rows[-1][1]
    out = Path(cfg.out_dir)
    _stage("write", tensorio.make_dirs, out)
    _stage("write", tensorio.save_distances, dist, out / "distances.dmat")
    _stage("write", save_report, report, out / "report.txt")
    _stage("write", save_cmc_csv, report, out / "cmc.csv")
    table = (ablation_table(rows) + "\n").encode("utf-8")
    _stage("write", tensorio.write_bytes, out / "ablation.txt", table)
    return report, rows
