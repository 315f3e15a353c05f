"""Seeded inputs and request lists for the three benchmark workloads.

Every model is generated here as an exact knot list (or, for the two float
polynomial models, as fixed coefficients) and written as a bvkit spec
file; null sets are written as interval-set files.  bvkit only ever sees
those files: no generator calls a bvkit layer, so set-up time measures
``import bvkit`` plus file writing and nothing the requests also time.
Null-set levels are chosen from slope bounds (image measure <= max|slope|
times set measure), never from ``image_measure``.

Workloads, and why each was chosen:

* ``corpus``: one request, ``corpus-report --grid 1024``, the run users
  make to reproduce the paper.  It is the only workload that drives
  ``density``, ``corpus`` and ``plots``; density recovery makes about 55k
  ``image_set`` calls on one-interval sets.  The input is fixed (the seed
  is ignored) because its outputs are checked byte for byte.
* ``cantor``: Jordan decomposition and segmentation scaling without any
  density recovery.  ``jordan_decomposition`` costs O(segments x pieces),
  about x4 per Cantor level, so a faster envelope shows here and a density
  shortcut predicts no change.
* ``certify``: both certificates on null sets with 16-64 components, in
  both arithmetic modes.  It makes few ``image_set`` calls on sets with
  many components, the opposite of ``corpus``, so an ``IntervalSet`` or
  density change that helps one workload must not cost the other.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("corpus", "cantor", "certify")

CORPUS_GRID = 1024
DECOMPOSE_GRID = 1024
LUSIN_LEVELS_PL = 8
UNIFORM_EPS = Fraction(1, 1000)
PROPAGATION_EPS = (Fraction(1, 16),)
CERTIFY_EPS = Fraction(1, 64)
FLOAT_TOL = 1e-12


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# model descriptions
# ---------------------------------------------------------------------------


@dataclass
class ModelSpec:
    """One generated model: its spec document plus what the oracle needs.

    ``knots`` is the exact (x, y) knot list of a piecewise-linear model
    (None for the polynomial models); ``slope_bound`` bounds |F'| and
    drives the choice of null-set levels; ``cantor_level`` marks Cantor
    iterates, whose exact facts (V = 1, n = 0, Lusin fails, not AC) the
    oracle checks.
    """

    key: str
    doc: dict
    knots: list | None
    slope_bound: Fraction
    cantor_level: int | None = None
    domain: tuple = (Fraction(0), Fraction(1))


def cantor_knots(level: int) -> list:
    """Knots of the level-k Cantor iterate: rise / plateau / rise, recursively."""
    rising = [(Fraction(0), Fraction(0), Fraction(1), Fraction(1))]
    for _ in range(level):
        nxt = []
        for x0, y0, x1, y1 in rising:
            w = (x1 - x0) / 3
            ym = (y0 + y1) / 2
            nxt.append((x0, y0, x0 + w, ym))
            nxt.append((x1 - w, ym, x1, y1))
        rising = nxt
    knots = []
    for x0, y0, x1, y1 in rising:
        knots.append((x0, y0))
        knots.append((x1, y1))
    return knots  # plateaus join consecutive rises, so this is every knot


def pl_doc(knots, name) -> dict:
    pieces = []
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if y0 == y1:
            pieces.append({"kind": "constant", "domain": [fmt(x0), fmt(x1)],
                           "params": {"value": fmt(y0)}})
        else:
            slope = (y1 - y0) / (x1 - x0)
            pieces.append({"kind": "linear", "domain": [fmt(x0), fmt(x1)],
                           "params": {"slope": fmt(slope),
                                      "intercept": fmt(y0 - slope * x0)}})
    return {"domain": [fmt(knots[0][0]), fmt(knots[-1][0])],
            "arithmetic": "rational", "name": name, "pieces": pieces}


def slope_bound(knots) -> Fraction:
    return max(abs(y1 - y0) / (x1 - x0)
               for (x0, y0), (x1, y1) in zip(knots, knots[1:]))


def cantor_model(level: int) -> ModelSpec:
    doc = {"domain": ["0", "1"], "arithmetic": "rational",
           "name": f"cantor_{level}",
           "pieces": [{"kind": "cantor_iterate", "domain": ["0", "1"],
                       "params": {"level": level}}]}
    return ModelSpec(f"cantor_{level}", doc, cantor_knots(level),
                     Fraction(3, 2) ** level, cantor_level=level)


def _unit_widths(rng, count, weights):
    raw = [rng.choice(weights) for _ in range(count)]
    total = sum(raw)
    xs = [Fraction(0)]
    for w in raw:
        xs.append(xs[-1] + Fraction(w, total))
    return xs


def random_pl_model(rng, pieces: int, key: str) -> ModelSpec:
    """Rises, falls and plateaus with |slope| in {1/2, 1, 3/2, 2} on [0, 1]."""
    xs = _unit_widths(rng, pieces, (1, 2, 3, 4))
    ys = [Fraction(0)]
    for x0, x1 in zip(xs, xs[1:]):
        kind = rng.choices(("rise", "fall", "flat"), (2, 2, 1))[0]
        slope = Fraction(rng.choice((1, 2, 3, 4)), 2)
        step = 0 if kind == "flat" else slope * (x1 - x0)
        ys.append(ys[-1] + (step if kind == "rise" else -step))
    knots = list(zip(xs, ys))
    return ModelSpec(key, pl_doc(knots, key), knots, slope_bound(knots))


def sawtooth_model(rng, teeth: int, key: str) -> ModelSpec:
    """Teeth that rise from 0 and fall back to 0, with uneven flanks.

    Knots, slopes and intercepts are dyadic rationals, so the float
    override of this spec evaluates every knot exactly and the float twin
    sees the same model as the rational one.
    """
    unit = Fraction(1, 1 << (4 * teeth - 1).bit_length())
    flanks = (1, 2, 4)
    x = Fraction(0)
    knots = [(x, Fraction(0))]
    for _ in range(teeth):
        rise, fall = rng.choice(flanks) * unit, rng.choice(flanks) * unit
        peak = rng.choice((1, 2, 3)) * rise
        knots.append((x + rise, peak))
        x += rise + fall
        knots.append((x, Fraction(0)))
    return ModelSpec(key, pl_doc(knots, key), knots, slope_bound(knots),
                     domain=(Fraction(0), x))


def staircase_model(rng, steps: int, key: str) -> ModelSpec:
    """Non-decreasing: each step is a rise followed by a plateau."""
    xs = _unit_widths(rng, 2 * steps, (1, 2, 3))
    knots = [(xs[0], Fraction(0))]
    y = Fraction(0)
    for k in range(steps):
        x0, xm, x1 = xs[2 * k], xs[2 * k + 1], xs[2 * k + 2]
        y += Fraction(rng.choice((1, 2)), 2) * (xm - x0)
        knots.append((xm, y))
        knots.append((x1, y))
    return ModelSpec(key, pl_doc(knots, key), knots, slope_bound(knots))


def mixed_model() -> ModelSpec:
    """Quadratic rise, plateau, linear fall on [0, 2] (float polynomial)."""
    doc = {"domain": ["0", "2"], "arithmetic": "float", "tol": FLOAT_TOL,
           "name": "mixed",
           "pieces": [
               {"kind": "polynomial", "domain": ["0", "1"],
                "params": {"coefficients": ["0", "0", "1"]}},
               {"kind": "constant", "domain": ["1", "5/4"], "params": {"value": "1"}},
               {"kind": "linear", "domain": ["5/4", "2"],
                "params": {"slope": "-1", "intercept": "9/4"}}]}
    return ModelSpec("mixed", doc, None, Fraction(2),
                     domain=(Fraction(0), Fraction(2)))


def cubic_model() -> ModelSpec:
    doc = {"domain": ["-1", "1"], "arithmetic": "float", "tol": FLOAT_TOL,
           "name": "cubic",
           "pieces": [{"kind": "polynomial", "domain": ["-1", "1"],
                       "params": {"coefficients": ["0", "0", "0", "1"]}}]}
    return ModelSpec("cubic", doc, None, Fraction(3),
                     domain=(Fraction(-1), Fraction(1)))


def shrinking_level(m: int, domain, bound: Fraction, eps: Fraction):
    """m equal slots, each holding a closed interval of width (1/2)^j of its
    slot, at the first level j whose measure and slope-bounded image
    measure both stay below eps/2 (the feasibility rule of the
    propagation check, applied to bounds instead of computed images);
    returns the components."""
    a, b = domain
    w = (b - a) / m
    j = 1
    while not (2 * (b - a) * Fraction(1, 2 ** j) * max(bound, 1) < eps):
        j += 1
    ratio = Fraction(1, 2 ** j)
    return [(a + i * w, a + i * w + ratio * w) for i in range(m)]


def nullset_doc(components) -> dict:
    return {"components": [{"lo": fmt(lo), "hi": fmt(hi), "lo_open": False,
                            "hi_open": False} for lo, hi in components]}


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One closed-loop request.

    ``op`` names the operation; ``argv`` is the CLI argument list for
    ``bvkit.cli.main``, with ``{in}`` standing for the input directory and
    ``{out}`` for a fresh output directory, or None for a library call
    described by ``call``.
    ``arithmetic`` is the float override, if any, and ``twin`` the key of
    the rational request a float request is compared with.
    """

    key: str
    op: str
    model: str | None
    argv: list | None = None
    call: dict = field(default_factory=dict)
    arithmetic: str | None = None
    twin: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    models: dict            # key -> ModelSpec
    nullsets: dict          # key -> [(lo, hi), ...]
    requests: list

    def write_inputs(self, indir: str) -> None:
        os.makedirs(indir, exist_ok=True)
        for key, spec in self.models.items():
            _dump(spec.doc, os.path.join(indir, f"{key}.json"))
        for key, comps in self.nullsets.items():
            _dump(nullset_doc(comps), os.path.join(indir, f"{key}.nullset.json"))


def _dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _model_requests(spec: ModelSpec, arithmetic=None, lusin_levels=None,
                    deltas=None, propagation=True) -> list:
    """The cantor-workload requests on one model, in a fixed order."""
    base = spec.key
    key = base + ("@float" if arithmetic else "")
    pre = ["--arithmetic", arithmetic] if arithmetic else []
    twin = (lambda op: f"{base}:{op}") if arithmetic else (lambda op: None)
    spec_path = "{in}/" + base + ".json"
    requests = [
        Request(f"{key}:decompose", "decompose", base,
                pre + ["decompose", spec_path, "--emit", "{out}/p.csv",
                       "{out}/n.csv", "--grid", str(DECOMPOSE_GRID)],
                arithmetic=arithmetic, twin=twin("decompose")),
        Request(f"{key}:variation", "variation", base,
                pre + ["variation", spec_path],
                arithmetic=arithmetic, twin=twin("variation")),
        Request(f"{key}:lusin", "lusin", base,
                pre + ["lusin", spec_path, "--family", "cantor",
                       "--levels", str(lusin_levels)],
                arithmetic=arithmetic, twin=twin("lusin")),
        Request(f"{key}:ac", "ac", base,
                pre + ["ac", spec_path, "--deltas", ",".join(fmt(d) for d in deltas)],
                arithmetic=arithmetic, twin=twin("ac")),
        Request(f"{key}:uniform_approx", "uniform_approx", base,
                call={"eps": UNIFORM_EPS},
                arithmetic=arithmetic, twin=twin("uniform_approx")),
    ]
    if propagation:
        requests.append(Request(f"{key}:propagation", "propagation", base,
                                call={"count": 1, "eps": PROPAGATION_EPS},
                                arithmetic=arithmetic, twin=twin("propagation")))
    return requests


def build_corpus(seed: int) -> Workload:
    req = Request("corpus:report", "corpus-report", None,
                  ["corpus-report", "--outdir", "{out}/report",
                   "--grid", str(CORPUS_GRID)])
    return Workload("corpus", seed, {}, {}, [req])


def build_cantor(seed: int) -> Workload:
    rng = random.Random(f"cantor:{seed}")
    models = {}
    requests = []
    for level in (6, 7, 8):
        spec = models.setdefault(f"cantor_{level}", cantor_model(level))
        deltas = [Fraction(2, 3) ** j for j in range(1, level + 1)]
        # the propagation check re-runs the Jordan decomposition inside the
        # variation certificate, so it runs only where that is cheap
        requests += _model_requests(spec, lusin_levels=level, deltas=deltas,
                                    propagation=level == 6)
        if level <= 7:
            requests += _model_requests(spec, "float", lusin_levels=level,
                                        deltas=deltas, propagation=level == 6)
    # piece counts are fixed so that every seed does the same amount of
    # work; the seed decides widths, slopes and the rise/fall/flat pattern
    for pieces in (128, 256, 512):
        key = f"pl_{pieces}"
        spec = models.setdefault(key, random_pl_model(rng, pieces, key))
        requests += _model_requests(
            spec, lusin_levels=LUSIN_LEVELS_PL,
            deltas=[Fraction(1, 2 ** j) for j in range(1, 9)],
            propagation=pieces <= 256)
    return Workload("cantor", seed, models, {}, requests)


# (model, components) for the variation certificates; sizes are fixed
# across seeds so the pass cost stays comparable, the seed moves shapes
_CERTIFY_SAWTOOTHS = ((16, 64), (32, 64))
_SHIFT_COMPONENTS = 64


def build_certify(seed: int) -> Workload:
    rng = random.Random(f"certify:{seed}")
    models = {}
    nullsets = {}
    requests = []
    eps = CERTIFY_EPS

    def certify(spec, m, shift=False, arithmetic=None, twin=None):
        ns_key = f"{spec.key}_m{m}"
        if ns_key not in nullsets:
            nullsets[ns_key] = shrinking_level(m, spec.domain, spec.slope_bound, eps)
        op = "certify-shift" if shift else "certify"
        pre = ["--arithmetic", arithmetic] if arithmetic else []
        argv = pre + ["certify", "{in}/" + spec.key + ".json",
                      "--nullset", "{in}/" + ns_key + ".nullset.json",
                      "--eps", fmt(eps), "--trace", "{out}/trace.json"]
        if shift:
            argv.append("--shift")
        suffix = "@float" if arithmetic else ""
        return Request(f"{spec.key}{suffix}:{op}:m{m}", op, spec.key, argv,
                       arithmetic=arithmetic, twin=twin)

    for teeth, m in _CERTIFY_SAWTOOTHS:
        spec = sawtooth_model(rng, teeth, f"saw_{teeth}")
        models[spec.key] = spec
        rational = certify(spec, m)
        requests.append(rational)
        requests.append(certify(spec, m, arithmetic="float", twin=rational.key))
        prop = Request(f"{spec.key}:propagation", "propagation", spec.key,
                       call={"count": m, "eps": (eps,)})
        requests.append(prop)
        requests.append(Request(f"{spec.key}@float:propagation", "propagation",
                                spec.key, call={"count": m, "eps": (eps,)},
                                arithmetic="float", twin=prop.key))
    for spec, m in ((mixed_model(), 32), (cubic_model(), 64)):
        models[spec.key] = spec
        requests.append(certify(spec, m))
    stairs = staircase_model(rng, 24, "stairs_24")
    models[stairs.key] = stairs
    requests.append(certify(stairs, _SHIFT_COMPONENTS, shift=True))
    c6 = cantor_model(6)
    models[c6.key] = c6
    requests.append(certify(c6, _SHIFT_COMPONENTS, shift=True))
    return Workload("certify", seed, models, nullsets, requests)


BUILDERS = {"corpus": build_corpus, "cantor": build_cantor, "certify": build_certify}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
