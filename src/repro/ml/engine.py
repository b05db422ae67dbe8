"""Process-wide selection of the tree/forest construction engines.

The ML substrate ships four tree-construction engines:

* ``"legacy"`` — the original recursive per-node builder (kept as the
  reference implementation and for benchmarking the engine redesign);
* ``"stack"`` — an explicit work-stack builder with a fit-time feature
  presort, bit-identical to ``"legacy"`` (same node numbering, same RNG
  stream, same floating-point results) but without the per-node
  ``argsort`` and Python recursion;
* ``"batched"`` — a level-synchronous builder that grows *all* trees of a
  forest together, scoring every frontier node in a few vectorized passes
  per depth level.  It draws its random numbers per tree per level, so it
  is deterministic under a fixed seed but follows a different (documented)
  RNG protocol than the recursive builders: trees are statistically
  equivalent, not bit-identical, to ``"legacy"`` ones.
* ``"hist"`` — the batched builder's histogram-binned sibling
  (:mod:`repro.ml._hist`): features are quantized to at most ``max_bins``
  quantile bins at fit time and split search scans bin boundaries instead
  of distinct thresholds.  Statistically equivalent to ``"batched"``
  (identical candidate thresholds whenever a feature has no more distinct
  values than bins) and substantially faster on large datasets.

``"legacy"``, ``"stack"`` and ``"batched"`` are the *exact* engines (they
scan true distinct thresholds).

Estimators have one selection knob, ``tree_method``: ``None`` (the
default) builds with the process-wide default engine of the estimator's
kind (``"stack"`` for a tree, ``"batched"`` for a forest), ``"exact"``
insists on an exact engine and ``"hist"`` forces the histogram engine.
:func:`set_default_engines` / :func:`use_engines` change the defaults —
the performance benchmarks use them to time one engine against another
in the same process.

:func:`get_builder` is the single dispatch from an engine name to a
whole-forest builder; the per-tree engines run one recursive or stack
build per sample set (:func:`repro.ml.tree.build_forest_per_tree`).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

__all__ = [
    "ENGINES",
    "TREE_METHODS",
    "get_default_engines",
    "set_default_engines",
    "use_engines",
    "resolve_build_engine",
    "get_builder",
]

#: Construction engines understood by the tree and forest estimators.
ENGINES = ("legacy", "stack", "batched", "hist")

#: Valid values of the estimator-level ``tree_method`` parameter
#: (``None`` defers to the process-wide default engine).
TREE_METHODS = (None, "exact", "hist")

#: Fallback exact engine per estimator kind when ``tree_method="exact"``
#: meets a process-wide ``"hist"`` default.
_EXACT_FALLBACK = {"tree": "stack", "forest": "batched"}

_defaults = {"tree": "stack", "forest": "batched"}


def get_default_engines() -> dict:
    """Current process-wide default engines, as ``{"tree": ..., "forest": ...}``."""
    return dict(_defaults)


def set_default_engines(*, tree: str | None = None, forest: str | None = None) -> dict:
    """Set the process-wide default engines; returns the previous defaults."""
    previous = dict(_defaults)
    for kind, engine in (("tree", tree), ("forest", forest)):
        if engine is None:
            continue
        if engine not in ENGINES:
            raise ValueError(f"{kind} engine must be one of {ENGINES}, got {engine!r}")
        _defaults[kind] = engine
    return previous


@contextmanager
def use_engines(*, tree: str | None = None, forest: str | None = None):
    """Temporarily override the default engines (benchmarking helper)."""
    previous = set_default_engines(tree=tree, forest=forest)
    try:
        yield
    finally:
        set_default_engines(**previous)


def resolve_build_engine(tree_method: str | None, *, kind: str) -> str:
    """Resolve an estimator's ``tree_method`` to the engine to build with.

    Parameters
    ----------
    tree_method:
        ``None`` (the process default for *kind*), ``"exact"`` (insist on
        an exact-threshold engine) or ``"hist"`` (histogram binning).
    kind:
        ``"tree"`` or ``"forest"`` — which default applies.

    An explicit ``tree_method`` wins over a disagreeing process default:
    ``"hist"`` selects the histogram engine, ``"exact"`` falls back to the
    kind's default exact engine when the default is ``"hist"``.
    """
    if kind not in _EXACT_FALLBACK:
        raise ValueError(f"kind must be 'tree' or 'forest', got {kind!r}")
    if tree_method not in TREE_METHODS:
        raise ValueError(
            f"tree_method must be one of {TREE_METHODS}, got {tree_method!r}")
    if tree_method == "hist":
        return "hist"
    engine = _defaults[kind]
    if tree_method == "exact" and engine == "hist":
        return _EXACT_FALLBACK[kind]
    return engine


def get_builder(engine: str, *, max_bins: int, n_jobs: int = 1,
                prebinned=None):
    """The whole-forest builder for *engine*.

    Every builder has the :func:`repro.ml._batched.build_forest_batched`
    signature — ``build(X, y, *, sample_sets, seeds, splitter, max_depth,
    min_samples_split, min_samples_leaf, max_features,
    min_impurity_decrease) -> list[Tree]`` — so the tree and the forest
    ``fit`` paths each make one call.  The engine-specific arguments are
    bound here: *n_jobs* threads for the per-tree engines (``"legacy"``,
    ``"stack"``), *max_bins* and the optional *prebinned* quantization for
    ``"hist"``; the other engines ignore them.
    """
    if engine in ("legacy", "stack"):
        from repro.ml.tree import _StackTreeBuilder, _TreeBuilder, build_forest_per_tree

        builder = _TreeBuilder if engine == "legacy" else _StackTreeBuilder
        return partial(build_forest_per_tree, builder, n_jobs=n_jobs)
    if engine == "batched":
        from repro.ml._batched import build_forest_batched

        return build_forest_batched
    if engine == "hist":
        from repro.ml._hist import build_forest_hist

        return partial(build_forest_hist, max_bins=max_bins, prebinned=prebinned)
    raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
