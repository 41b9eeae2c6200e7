"""The benchmark's workloads: seeded inputs, one op, the correctness gate,
and the traced form of the op.

A workload object is set up once per run from ``--seed``; reidkit sees only
the files or arrays the setup made.  ``op(inp, tracer, traced)`` runs one
op.  Untraced, retrieval ops call the real entry point (``run_pipeline`` or
``reidkit.cli.main``) with spans only at the cli/pipeline boundary, so a
``NullTracer`` gives the end-to-end timing; traced, they replay
``run_pipeline``'s stages through the public functions with one span per
call.  ``check`` compares an op's output with the frozen reference of
``seedref`` and returns a list of problems (empty when the op is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from reidkit import (
    AqeParams,
    EraseParams,
    LgtParams,
    PipelineConfig,
    RerankParams,
    SampleClass,
    SynthParams,
    WarmupSchedule,
    ablation_table,
    aqe_expand,
    balanced_resample_plan,
    cli,
    combined_loss,
    ensemble_distances,
    euclidean_distances,
    evaluate,
    fuse_flip_features,
    gem_pool,
    generate_synthetic,
    horizontal_flip,
    k_reciprocal_rerank,
    l2_normalize,
    load_distances,
    load_features,
    load_meta,
    local_grayscale,
    loss_gradient,
    lr_at,
    partition_samples,
    per_sample_losses,
    random_erase,
    rank_gallery,
    run_pipeline,
    save_cmc_csv,
    save_distances,
    save_features,
    save_meta,
    save_report,
    split_query_gallery,
    thresholds_from_quantiles,
)

import seedref
from spans import NullTracer

# Gate tolerances, none looser than the tier-1 tests': re-rank and distance
# oracles 1e-5, GeM 1e-6, loss values 1e-9 relative, mining losses 1e-9.
# mAP and top-1 are compared at 1e-6 because the CLI prints six decimals.
DIST_TOL = 1e-5
SCORE_TOL = 1e-6
POOL_TOL = 1e-6
LOSS_RTOL = 1e-9
MINING_TOL = 1e-9

_GATE_ROWS = 128

_ROW = re.compile(r"^(\S+)\s+mAP (\S+)\s+top1 (\S+)$")


def _reference(kind, workdir) -> dict:
    """Run ``seedref`` in a child process and load what it wrote."""
    script = Path(seedref.__file__)
    subprocess.run([sys.executable, str(script), kind, str(workdir)], check=True, timeout=170)
    with np.load(workdir / "reference.npz") as ref:
        return {k: ref[k] for k in ref.files}


def _peak_mb(fn, *args) -> float:
    """tracemalloc peak of one call, in MB; numpy buffers are included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def _patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def replay(cfg: PipelineConfig, tracer):
    """``run_pipeline``'s stage order through the public functions, one span per call.

    Mirrors ``reidkit.pipeline.run_pipeline`` for the euclidean metric and
    writes the same four artifacts to ``cfg.out_dir``.
    """

    def load(fn, path):
        with tracer.span("tensorio.load", bytes=os.path.getsize(path)):
            return fn(path)

    def normalize(m):
        with tracer.span("geometry.l2_normalize"):
            return l2_normalize(m)

    def distances(q, g):
        with tracer.span("geometry.euclidean_distances", flop=2 * q.shape[0] * g.shape[0] * q.shape[1]):
            return euclidean_distances(q, g)

    def fuse(orig, flipped):
        with tracer.span("geometry.fuse_flip_features"):
            return fuse_flip_features(orig, flipped)

    def expand(q, g):
        with tracer.span("rerank.aqe_expand"):
            return aqe_expand(q, g, AqeParams(k=cfg.aqe_k, alpha=cfg.aqe_alpha))

    def rerank(q, g):
        with tracer.span("rerank.k_reciprocal_rerank"):
            return k_reciprocal_rerank(q, g, RerankParams(k1=cfg.k1, k2=cfg.k2, lam=cfg.lam))

    rows = []

    def score(name, dist):
        with tracer.span("evaluation.rank_gallery"):
            ranking = rank_gallery(dist)
        with tracer.span("evaluation.evaluate", queries=dist.shape[0]):
            rows.append((name, evaluate(
                ranking, qmeta, gmeta, exclude_same_camera=cfg.exclude_same_camera, topk=cfg.topk)))

    q = load(load_features, cfg.query_features)
    g = load(load_features, cfg.gallery_features)
    qmeta = load(load_meta, cfg.query_meta)
    gmeta = load(load_meta, cfg.gallery_meta)

    qn, gn = normalize(q), normalize(g)
    dist = distances(qn, gn)
    score("baseline", dist)
    if cfg.tta:
        qf = load(load_features, cfg.query_flipped)
        gf = load(load_features, cfg.gallery_flipped)
        qn = normalize(fuse(q, qf))
        gn = normalize(fuse(g, gf))
        dist = distances(qn, gn)
        score("+tta", dist)
    if cfg.aqe and cfg.aqe_stage == "pre":
        qn = expand(qn, gn)
        dist = distances(qn, gn)
        score("+aqe", dist)
    if cfg.rerank:
        dist = rerank(qn, gn)
        score("+rerank", dist)
    if cfg.aqe and cfg.aqe_stage == "post":
        qn = expand(qn, gn)
        dist = rerank(qn, gn) if cfg.rerank else distances(qn, gn)
        score("+aqe", dist)
    if cfg.ensemble:
        extern = [load(load_distances, p) for p in cfg.ensemble]
        with tracer.span("rerank.ensemble_distances"):
            dist = ensemble_distances([dist] + extern, cfg.normalize_ensemble)
        score("+ensemble", dist)

    report = rows[-1][1]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tracer.span("tensorio.save"):
        save_distances(dist, out / "distances.dmat")
    with tracer.span("evaluation.save"):
        save_report(report, out / "report.txt")
        save_cmc_csv(report, out / "cmc.csv")
    (out / "ablation.txt").write_text(ablation_table(rows) + "\n", encoding="utf-8")
    return report, rows


class Retrieval:
    """One ``run_pipeline`` run (or one ``reidkit pipeline`` CLI call) per op."""

    ARTIFACTS = ("distances.dmat", "report.txt", "cmc.csv", "ablation.txt")

    def __init__(self, synth: dict, options: dict, via_cli: bool, external_model: bool = False):
        self.synth = synth
        self.options = options
        self.via_cli = via_cli
        self.external_model = external_model
        self.min_ops = 3

    def setup(self, seed, workdir: Path, tracer) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        with tracer.span("synthetic.generate_synthetic"):
            features, meta = generate_synthetic(SynthParams(seed=seed, **self.synth))
        qf, qm, gf, gm = split_query_gallery(features, meta, 2)
        cfg = dict(self.options)
        for key, data, tag in (("query", qf, qm), ("gallery", gf, gm)):
            cfg[f"{key}_features"] = str(workdir / f"{key}.fvec")
            cfg[f"{key}_meta"] = str(workdir / f"{key}.csv")
            save_features(data, cfg[f"{key}_features"])
            save_meta(tag, cfg[f"{key}_meta"])
        if cfg.get("tta"):
            # a flipped view: the same embedding with a little fresh noise
            rng = np.random.default_rng([seed, 1])
            spread = self.synth["cluster_spread"]
            for key, data in (("query", qf), ("gallery", gf)):
                cfg[f"{key}_flipped"] = str(workdir / f"{key}_flipped.fvec")
                noisy = data + rng.normal(0.0, 0.25 * spread, data.shape).astype(np.float32)
                save_features(noisy, cfg[f"{key}_flipped"])
        if self.external_model:
            # written by the reference child, which runs before the first op
            cfg["ensemble"] = [str(workdir / "external.dmat")]
        cfg["out_dir"] = str(workdir / "out")
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.items_per_op = len(qm)

    def reference(self) -> dict:
        external = {"seed": self.seed, "spread": self.synth["cluster_spread"]} if self.external_model else None
        spec = {"pipeline": self.cfg, "external": external}
        (self.workdir / "config.json").write_text(json.dumps(spec), encoding="utf-8")
        ref = _reference("retrieval", self.workdir)
        ref["dist_path"] = self.workdir / "reference.dmat"
        return ref

    def inputs(self, k):
        return None

    def _cli_args(self, out_dir):
        args = ["pipeline"]
        for key, value in self.cfg.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                args.append(flag)
            elif isinstance(value, list):
                for item in value:
                    args += [flag, item]
            elif key == "out_dir":
                args += [flag, str(out_dir)]
            else:
                args += [flag, str(value)]
        return args

    def op(self, inp, tracer, traced=False):
        """Untraced: the real entry point.  Traced: the replay, to ``out_replay``."""
        out_dir = self.workdir / ("out_replay" if traced else "out")

        def pipeline_call(cfg):
            if traced:
                with tracer.span("pipeline.replay"):
                    return replay(cfg, tracer)
            with tracer.span("pipeline.run_pipeline"):
                return run_pipeline(cfg)

        if self.via_cli:
            buf = io.StringIO()
            with tracer.span("cli.main"), _patched(cli, "run_pipeline", pipeline_call):
                with contextlib.redirect_stdout(buf):
                    code = cli.main(self._cli_args(out_dir))
            rows = [m.groups() for m in map(_ROW.match, buf.getvalue().splitlines()) if m]
            rows = [(name, float(m), float(t)) for name, m, t in rows]
        else:
            cfg = PipelineConfig(**{**self.cfg, "out_dir": str(out_dir)})
            code = 0
            _, reports = pipeline_call(cfg)
            rows = [(name, r.map, float(r.cmc[0])) for name, r in reports]
        return {"code": code, "rows": rows, "out_dir": out_dir}

    def check(self, out, inp, ref) -> list:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        problems = []
        names = [r[0] for r in out["rows"]]
        if names != [str(n) for n in ref["names"]]:
            problems.append(f"ablation rows {names}, expected {list(ref['names'])}")
        else:
            for (name, m, t), rm, rt in zip(out["rows"], ref["maps"], ref["top1"]):
                if abs(m - rm) > SCORE_TOL or abs(t - rt) > SCORE_TOL:
                    problems.append(f"{name}: mAP {m} top1 {t}, expected {rm} {rt}")
        path, ref_path = out["out_dir"] / "distances.dmat", ref["dist_path"]
        shape, ref_shape = seedref.matrix_shape(path), seedref.matrix_shape(ref_path)
        if shape != ref_shape:
            problems.append(f"distances shape {shape}, expected {ref_shape}")
            return problems
        # row blocks, so the gate adds little to the measured process's peak RSS
        deviations = []
        for start in range(0, shape[0], _GATE_ROWS):
            got = seedref.read_rows(path, start, start + _GATE_ROWS).astype(np.float64)
            want = seedref.read_rows(ref_path, start, start + _GATE_ROWS)
            deviations.append(np.abs(got - want).max())
        worst = float(np.max(deviations))  # NaN propagates, and fails the test below
        if not worst <= DIST_TOL:
            problems.append(f"final distances deviate by {worst:.3g} > {DIST_TOL}")
        return problems

    def same_result(self, real, traced) -> list:
        """The replay must reproduce the real run's artifacts byte for byte."""
        problems = [
            f"replay {name} differs"
            for name in self.ARTIFACTS
            if (real["out_dir"] / name).read_bytes() != (traced["out_dir"] / name).read_bytes()
        ]
        if real["rows"] != traced["rows"]:
            problems.append("replay ablation rows differ")
        return problems

    def finish(self, tracer):
        return None

    def peak_passes(self) -> dict:
        if not self.cfg.get("rerank"):
            return {}
        cfg = PipelineConfig(**self.cfg)
        q = l2_normalize(load_features(cfg.query_features))
        g = l2_normalize(load_features(cfg.gallery_features))
        params = RerankParams(k1=cfg.k1, k2=cfg.k2, lam=cfg.lam)
        return {"rerank.k_reciprocal_rerank.peak_mb": _peak_mb(k_reciprocal_rerank, q, g, params)}


_BLOCK = re.compile(r"^id(\d+)_")
_SCHEDULE = WarmupSchedule()


class TrainEpoch:
    """Training steps on P x K batches from a seeded pool, then one mining pass."""

    def __init__(self, synth: dict, ids_per_batch=16, per_id=4, image_hw=(256, 128),
                 fmap_hw=(16, 8), image_pool=128):
        self.synth = synth
        self.ids_per_batch = ids_per_batch
        self.per_id = per_id
        self.image_hw = image_hw
        self.fmap_hw = fmap_hw
        self.image_pool = image_pool
        self.min_ops = 100  # so that at least 10 steps lie beyond op_s_p90
        self.items_per_op = ids_per_batch * per_id

    def setup(self, seed, workdir: Path, tracer) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        with tracer.span("synthetic.generate_synthetic"):
            self.features, self.meta = generate_synthetic(SynthParams(seed=seed, **self.synth))
        self.labels = self.meta.person_ids
        rng = np.random.default_rng([seed, 2])
        self.images = rng.integers(0, 256, (self.image_pool, *self.image_hw, 3), dtype=np.uint8)
        # spatial activation profiles; a map is a profile scaled by a shifted embedding
        self.profiles = rng.uniform(0.5, 1.5, (4, *self.fmap_hw, self.synth["dims"])).astype(np.float32)
        members = [np.flatnonzero(self.labels == pid) for pid in range(self.synth["n_ids"])]
        self.members = [m for m in members if m.size >= self.per_id]
        self.seed = seed
        self.workdir = workdir

    def inputs(self, k) -> dict:
        rng = np.random.default_rng([self.seed, 3, k])
        picks = rng.choice(len(self.members), self.ids_per_batch, replace=False)
        idx = np.concatenate([rng.choice(self.members[p], self.per_id, replace=False) for p in picks])
        emb = self.features[idx]
        base = emb - emb.min(axis=1, keepdims=True)
        fmaps = self.profiles[np.arange(idx.size) % len(self.profiles)] * base[:, None, None, :]
        return {
            "step": k,
            "labels": self.labels[idx],
            "fmaps": fmaps,
            "images": self.images[idx % self.image_pool],
            "aug_seed": int(rng.integers(2**32)),
        }

    def reference(self) -> dict:
        step0 = self.inputs(0)
        np.save(self.workdir / "pool.npy", self.features)
        np.save(self.workdir / "pool_labels.npy", self.labels)
        np.save(self.workdir / "step0_fmaps.npy", step0["fmaps"])
        np.save(self.workdir / "step0_labels.npy", step0["labels"])
        return _reference("train", self.workdir)

    def op(self, inp, tracer, traced=False):
        """One training step: augment, pool, loss, gradient, learning rate.

        The untraced form records no spans, whatever tracer it is given.
        """
        if not traced:
            tracer = NullTracer()
        rng = np.random.Generator(np.random.Philox(inp["aug_seed"]))
        augmented = []
        for img in inp["images"]:
            with tracer.span("augment", images=1) as span:
                out = horizontal_flip(img)
                out, rect = random_erase(out, EraseParams(), rng)
                out, _ = local_grayscale(out, LgtParams(), rng)
            if span is not None:
                span.counts["erased"] = int(rect is not None)
            augmented.append(out)
        pooled = []
        for fmap in inp["fmaps"]:
            with tracer.span("geometry.gem_pool"):
                pooled.append(gem_pool(fmap))
        pooled = np.stack(pooled)
        with tracer.span("losses.combined_loss"):
            loss = combined_loss(pooled, inp["labels"])
        with tracer.span("losses.loss_gradient"):
            grad = loss_gradient(pooled, inp["labels"])
        lr = lr_at(inp["step"] % (_SCHEDULE.total_epochs + 1), _SCHEDULE)
        return {"augmented": augmented, "pooled": pooled, "loss": loss, "grad": grad, "lr": lr}

    def check(self, out, inp, ref) -> list:
        problems = []
        n, dims = inp["fmaps"].shape[0], inp["fmaps"].shape[-1]
        if any(a.shape != inp["images"][0].shape or a.dtype != np.uint8 for a in out["augmented"]):
            problems.append("augmented image with the wrong shape or dtype")
        if out["pooled"].shape != (n, dims) or not np.all(np.isfinite(out["pooled"])):
            problems.append("pooled embeddings malformed")
        if not (np.isfinite(out["loss"]) and out["loss"] >= 0.0):
            problems.append(f"loss {out['loss']}")
        if out["grad"].shape != (n, dims) or not np.all(np.isfinite(out["grad"])):
            problems.append("gradient malformed")
        if not (_SCHEDULE.base_lr <= out["lr"] <= _SCHEDULE.peak_lr):
            problems.append(f"learning rate {out['lr']}")
        if inp["step"] == 0 and not problems:
            worst = float(np.abs(out["pooled"].astype(np.float64) - ref["pooled"]).max())
            if worst > POOL_TOL:
                problems.append(f"step 0 pooled embeddings deviate by {worst:.3g}")
            for key, got in (("loss", out["loss"]), ("grad_norm", float(np.linalg.norm(out["grad"])))):
                want = float(ref[key])
                if abs(got - want) > LOSS_RTOL * max(1.0, abs(want)):
                    problems.append(f"step 0 {key} {got!r}, expected {want!r}")
        return problems

    def same_result(self, real, traced) -> list:
        if real["loss"] != traced["loss"] or not np.array_equal(real["grad"], traced["grad"]):
            return ["traced step differs from the untraced step"]
        return []

    def finish(self, tracer):
        """The end-of-run mining pass."""
        with tracer.span("mining.per_sample_losses", anchors=len(self.meta)):
            losses = per_sample_losses(self.features, self.meta)
        with tracer.span("mining.partition"):
            report = partition_samples(losses, thresholds_from_quantiles(losses))
            balanced_resample_plan(self.meta)
        return {"losses": losses, "partition": report.partition}

    def check_finish(self, out, ref) -> list:
        problems = []
        counts = [sum(c is cls for c in out["partition"]) for cls in
                  (SampleClass.CLEAN, SampleClass.HARD, SampleClass.NOISE)]
        if counts != [int(c) for c in ref["counts"]]:
            problems.append(f"mining counts {counts}, expected {list(ref['counts'])}")
        worst = float(np.abs(out["losses"] - ref["losses"]).max())
        if worst > MINING_TOL:
            problems.append(f"per-sample losses deviate by {worst:.3g}")
        return problems

    def noise_scores(self, partition) -> tuple:
        """(recall, precision) of NOISE against the relabelled samples."""
        blocks = np.array([int(_BLOCK.match(e.image_id).group(1)) for e in self.meta])
        relabelled = blocks != self.labels
        flagged = np.array([c is SampleClass.NOISE for c in partition])
        hit = int(np.sum(flagged & relabelled))
        return hit / max(int(relabelled.sum()), 1), hit / max(int(flagged.sum()), 1)

    def peak_passes(self) -> dict:
        inp = self.inputs(0)
        pooled = np.stack([gem_pool(f) for f in inp["fmaps"]])
        return {
            "losses.combined_loss.peak_mb": _peak_mb(combined_loss, pooled, inp["labels"]),
            "losses.loss_gradient.peak_mb": _peak_mb(loss_gradient, pooled, inp["labels"]),
            "mining.per_sample_losses.peak_mb": _peak_mb(per_sample_losses, self.features, self.meta),
        }


WORKLOADS = {
    "rerank-n2k": lambda: Retrieval(
        synth=dict(n_ids=160, per_id=12, dims=128, cluster_spread=0.14),
        options=dict(rerank=True, aqe=True),
        via_cli=False,
    ),
    "retrieval-n6k": lambda: Retrieval(
        synth=dict(n_ids=500, per_id=12, dims=256, cluster_spread=0.11),
        options=dict(tta=True, aqe=True, aqe_stage="pre", normalize_ensemble=True,
                     exclude_same_camera=True),
        via_cli=True,
        external_model=True,
    ),
    "train-epoch": lambda: TrainEpoch(
        synth=dict(n_ids=500, per_id=12, dims=2048, cluster_spread=0.04, noise_frac=0.05),
    ),
}
