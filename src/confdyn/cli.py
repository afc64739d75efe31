"""Command line front end: simulate flows, certify superintegrability, verify
exact wavefunctions, and evaluate closed-form orbits.

Commands
--------
simulate   integrate a configured system, write trajectory files and a drift
           summary; exit 0 iff every monitored drift is within tolerance
certify    independence rank + involution table + classification label
kg         Klein-Gordon residual and eigen-defect convergence tables; exit 0
           iff all h-halving ratios fall in [3.5, 4.5]
orbit      sample a closed-form orbit (no integration)

Configuration is INI-style (sections of key = value), assembled from an
optional built-in preset (--preset), an optional file (--config) merged over
it, and --set section.key=value overrides applied last.  Identical
configuration and seed produce byte-identical outputs.

Exit codes: 0 pass, 1 check failed, 2 configuration error, 3 runtime
singularity or reality violation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import analytic, backgrounds, conformal, integrability, kgverify
from .dynamics import (EvolveOptions, PhaseSpaceState, covariant_state, evolve,
                       extended_state, extended_state_on_shell, front_state,
                       instant_state)
from .errors import ConfigError, DomainError, RealityError, SingularityError
from .geometry import FourVector, LightFrontCoords, from_lightfront

_FIG1_P3 = (-0.25, -0.4, -0.5, -0.6)
_FIG2_KAPPA = (0.3, 0.5, 0.7, 0.9)
_FIG2_WINDOW = 3.75  # dimensionless k x- extent of the plotted window


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _merge(base: dict, extra: dict) -> dict:
    out = {sec: dict(kv) for sec, kv in base.items()}
    for sec, kv in extra.items():
        out.setdefault(sec, {}).update(kv)
    return out


def config_from_ini(path) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like "B" are case-sensitive
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def apply_overrides(cfg: dict, assignments) -> dict:
    out = {sec: dict(kv) for sec, kv in cfg.items()}
    for a in assignments or ():
        key, _, value = a.partition("=")
        sec, _, name = key.partition(".")
        if not (sec and name and _):
            raise ConfigError(f"--set needs section.key=value, got {a!r}")
        out.setdefault(sec.strip(), {})[name.strip()] = value.strip()
    return out


def _get(cfg, sec, key, default=None):
    try:
        return cfg[sec][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigError(f"missing configuration key [{sec}] {key}")


def _getf(cfg, sec, key, default=None):
    raw = _get(cfg, sec, key, None if default is None else str(default))
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{sec}] {key} = {raw!r} is not a number")


def _geti(cfg, sec, key, default=None):
    return int(_getf(cfg, sec, key, default))


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _getb(cfg, sec, key, default=False):
    raw = _get(cfg, sec, key, str(default))
    try:
        return _BOOLS[str(raw).strip().lower()]
    except KeyError:
        raise ConfigError(f"[{sec}] {key} = {raw!r} is not a boolean") from None


def _getfs(cfg, sec, key, n=None, default=None):
    raw = _get(cfg, sec, key, default)
    try:
        vals = [float(v) for v in str(raw).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"[{sec}] {key} = {raw!r} is not a number list")
    if n is not None and len(vals) != n:
        raise ConfigError(f"[{sec}] {key} needs {n} comma-separated numbers")
    return vals


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _fig1_preset() -> dict:
    runs = [f"initial.p=0,0,{p3:g}" for p3 in _FIG1_P3]
    cfg = {
        "run": {"form": "instant", "tstart": "0", "tend": "4",
                "samples": "500"},
        "background": {"family": "linear_z", "B": "1.0", "m0sq": "1.0",
                       "switched": "true"},
        "initial": {"t": "0", "x": "0,0,0", "p": "0,0,-0.5"},
        "monitor": {"set": "spacelike", "extra": "p3,BLz"},
        "sweep": {"count": str(len(runs))},
    }
    for i, ov in enumerate(runs):
        cfg["sweep"][f"override_{i}"] = ov
    return cfg


def _fig2_preset() -> dict:
    cfg = {
        "run": {"form": "front", "tstart": "1", "tend": "2",
                "samples": "500", "rtol": "1e-12", "atol": "1e-12"},
        "background": {"family": "special_conformal_switched", "m0sq": "1.0",
                       "L": "1.0", "k": "1.0"},
        "initial": {"xplus": "1", "xminus": "0", "xperp": "0,0",
                    "pminus": "0.4", "pperp": "0,0"},
        "monitor": {"set": "conformal_front"},
        "sweep": {"count": str(len(_FIG2_KAPPA))},
    }
    for i, kappa in enumerate(_FIG2_KAPPA):
        pminus = float(analytic.pminus_for_kappa(kappa))
        tend = float(1.0 / (1.0 - kappa * erf(_FIG2_WINDOW)))
        cfg["sweep"][f"override_{i}"] = (
            f"initial.pminus={pminus:.17g};run.tend={tend:.17g}")
    return cfg


def _planewave_preset() -> dict:
    return {
        "run": {"form": "extended", "tstart": "0", "tend": "10",
                "samples": "400", "rtol": "1e-12", "atol": "1e-12"},
        "background": {"family": "plane_wave", "profile": "sin2",
                       "m0sq": "1.0", "amp": "0.5", "k": "1.0",
                       "argument": "xplus"},
        "initial": {"xplus": "0", "xminus": "0", "xperp": "0,0",
                    "pminus": "0.5", "pperp": "0.1,-0.05", "pplus": "shell"},
        "monitor": {"set": "planewave"},
        "certify": {"set": "planewave", "form": "extended", "count": "24",
                    "expect": "maximally superintegrable"},
        "kg": {"solution": "planewave", "qperp": "0.3,-0.2", "qminus": "0.7",
               "points": "60", "h": "5e-3"},
    }


def _dilation_preset() -> dict:
    return {
        "run": {"form": "instant", "tstart": "2", "tend": "6",
                "samples": "400"},
        "background": {"family": "dilation", "csq": "1.0"},
        "initial": {"t": "2", "x": "0.1,-0.1,0.3", "p": "0.05,0.02,-0.04"},
        "monitor": {"set": "dilation", "extra": "Lz"},
        "certify": {"set": "dilation", "form": "instant", "count": "24",
                    "expect": "integrable"},
        "kg": {"solution": "dilation", "qperp": "0.4,0.1", "q3": "0.6",
               "csq": "1.0", "c1": "1", "c2": "0.3", "points": "60",
               "h": "5e-3"},
    }


def _spacelike_certify_preset() -> dict:
    return {
        "background": {"family": "linear_z", "B": "1.0", "m0sq": "1.0",
                       "switched": "false"},
        "certify": {"set": "spacelike", "form": "instant", "count": "24",
                    "expect": "maximally superintegrable"},
    }


def _conformal_certify_preset() -> dict:
    return {
        "background": {"family": "special_conformal_gaussian", "m0sq": "1.0",
                       "L": "1.0", "k": "1.0"},
        "certify": {"set": "conformal", "form": "extended", "count": "24",
                    "expect": ("minimally superintegrable,superintegrable,"
                               "maximally superintegrable")},
        "kg": {"solution": "conformal", "qperp": "0.25,-0.15", "q3": "0.8",
               "points": "60", "h": "5e-3"},
    }


def _truncated_certify_preset() -> dict:
    return {
        "background": {"family": "linear_z", "B": "1.0", "m0sq": "1.0",
                       "switched": "false"},
        "certify": {"set": "truncated", "form": "instant", "count": "24",
                    "expect": "not certified"},
    }


def _kg_control_preset() -> dict:
    return {
        "background": {"family": "constant", "m0sq": "1.0"},
        "kg": {"solution": "offshell", "p": "1.3,0.2,-0.1,0.3",
               "points": "60", "h": "5e-3"},
    }


_PRESETS = {
    "fig1": _fig1_preset,
    "fig2": _fig2_preset,
    "planewave": _planewave_preset,
    "dilation": _dilation_preset,
    "spacelike": _spacelike_certify_preset,
    "conformal": _conformal_certify_preset,
    "truncated": _truncated_certify_preset,
    "kgcontrol": _kg_control_preset,
}


def preset_config(name: str) -> dict:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          + ", ".join(sorted(_PRESETS)))


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _background(cfg) -> backgrounds.ScalarBackground:
    if "background" not in cfg:
        raise ConfigError("missing [background] section")
    params = dict(cfg["background"])
    if "switched" in params:
        params["switched"] = _getb(cfg, "background", "switched")
    try:
        return backgrounds.from_params(params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad background: {exc}")


def _initial_state(cfg, bg) -> PhaseSpaceState:
    form = _get(cfg, "run", "form", "instant")
    if form == "instant":
        return instant_state(_getf(cfg, "initial", "t", 0.0),
                             _getfs(cfg, "initial", "x", 3, "0,0,0"),
                             _getfs(cfg, "initial", "p", 3))
    if form == "front":
        return front_state(_getf(cfg, "initial", "xplus"),
                           _getf(cfg, "initial", "xminus", 0.0),
                           _getfs(cfg, "initial", "xperp", 2, "0,0"),
                           _getf(cfg, "initial", "pminus"),
                           _getfs(cfg, "initial", "pperp", 2, "0,0"))
    if form == "extended":
        xplus = _getf(cfg, "initial", "xplus")
        xminus = _getf(cfg, "initial", "xminus", 0.0)
        xperp = _getfs(cfg, "initial", "xperp", 2, "0,0")
        pminus = _getf(cfg, "initial", "pminus")
        pperp = _getfs(cfg, "initial", "pperp", 2, "0,0")
        s0 = _getf(cfg, "run", "tstart", 0.0)
        praw = _get(cfg, "initial", "pplus", "shell")
        if str(praw).strip().lower() == "shell":
            return extended_state_on_shell(bg, xplus, xminus, xperp, pminus,
                                           pperp, s=s0)
        return extended_state(xplus, xminus, xperp, float(praw), pminus,
                              pperp, s=s0)
    if form == "covariant":
        x = FourVector(*_getfs(cfg, "initial", "x4", 4))
        u = FourVector(*_getfs(cfg, "initial", "xdot", 4))
        return covariant_state(x, u, tau=_getf(cfg, "run", "tstart", 0.0))
    raise ConfigError(f"unknown form {form!r}")


_EXTRAS = {
    "p3": conformal.momentum_p3_quantity,
    "Lz": conformal.angular_momentum_z_quantity,
}


def _monitors(cfg, bg) -> list:
    name = _get(cfg, "monitor", "set", "none")
    sets = {
        "none": lambda: [],
        "spacelike": lambda: conformal.spacelike_set(
            _getf(cfg, "background", "B", 1.0)),
        "planewave": lambda: conformal.planewave_extended_set(bg),
        "conformal": lambda: conformal.conformal_extended_set(bg),
        "conformal_front": conformal.conformal_front_set,
        "dilation": conformal.dilation_mass_set,
        "poincare": conformal.poincare_set,
        "truncated": lambda: [
            conformal.generator_quantity(conformal.translation_axis(1), "Q1"),
            conformal.generator_quantity(conformal.translation_axis(2), "Q2")],
    }
    if name not in sets:
        raise ConfigError(f"unknown quantity set {name!r}")
    out = sets[name]()
    gated = [q.label for q in out]
    for extra in str(_get(cfg, "monitor", "extra", "")).split(","):
        extra = extra.strip()
        if not extra:
            continue
        if extra == "BLz":
            out.append(conformal.angular_momentum_z_quantity(
                _getf(cfg, "background", "B", 1.0)))
        elif extra in _EXTRAS:
            out.append(_EXTRAS[extra]())
        else:
            raise ConfigError(f"unknown extra quantity {extra!r}")
    return out, gated


def _evolve_options(cfg) -> EvolveOptions:
    return EvolveOptions(
        rtol=_getf(cfg, "run", "rtol", 1e-10),
        atol=_getf(cfg, "run", "atol", 1e-10),
        method=_get(cfg, "run", "method", "rk45"),
        step=(None if "step" not in cfg.get("run", {})
              else _getf(cfg, "run", "step")),
        samples=_geti(cfg, "run", "samples", 400),
        nonrelativistic=_getb(cfg, "run", "nonrelativistic", False),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _sweep_configs(cfg) -> list:
    if "sweep" not in cfg:
        return [cfg]
    count = _geti(cfg, "sweep", "count")
    out = []
    for i in range(count):
        ov = _get(cfg, "sweep", f"override_{i}")
        out.append(apply_overrides(cfg, [a for a in ov.split(";") if a]))
    return out


def _run_one(run_cfg, index: int, out_dir: Path, fmt: str, tol_rel: float):
    bg = _background(run_cfg)
    state = _initial_state(run_cfg, bg)
    span = (_getf(run_cfg, "run", "tstart", 0.0), _getf(run_cfg, "run", "tend"))
    quantities, gated = _monitors(run_cfg, bg)
    traj = evolve(state, bg, span, _evolve_options(run_cfg),
                  monitors=quantities)
    name = f"run_{index:03d}.{ 'json' if fmt == 'json' else 'csv' }"
    path = out_dir / name
    if fmt == "json":
        traj.to_json(path)
    else:
        traj.to_csv(path)
    # only the declared conserved set is gated; extras are diagnostics
    worst = max((v for k, v in traj.drifts.items() if k in gated), default=0.0)
    return {
        "index": index,
        "file": name,
        "drifts": {k: float(v) for k, v in sorted(traj.drifts.items())},
        "gated": gated,
        "max_drift": float(worst),
        "events": [[n, float(t)] for n, t in traj.events_log],
        "stats": traj.stats,
        "pass": bool(worst <= tol_rel),
    }


def cmd_simulate(cfg, out_dir: Path, fmt: str, tol_abs: float, tol_rel: float,
                 seed: int) -> int:
    results = [_run_one(rc, i, out_dir, fmt, tol_rel)
               for i, rc in enumerate(_sweep_configs(cfg))]
    summary = {"command": "simulate", "seed": seed, "tol_rel": tol_rel,
               "runs": results, "pass": all(r["pass"] for r in results)}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    for r in results:
        print(f"run {r['index']:3d}: max drift {r['max_drift']:.3e} "
              f"{'PASS' if r['pass'] else 'FAIL'}  -> {r['file']}")
    return 0 if summary["pass"] else 1


def _certify_states(cfg, bg, form: str, count: int, rng) -> list:
    fam = bg.params.get("family", "")

    def accept(st):
        try:
            return bg.m2(st.position()) > 0.05
        except (RealityError, SingularityError):
            return False

    if fam == "dilation":
        def accept_dil(st):
            x = st.position()
            return x.norm2() > 0.5 and x.t > 0
        states = integrability.random_states(
            form, count, rng, t_range=(1.8, 2.6), q_range=(-0.4, 0.4),
            accept=accept_dil)
    else:
        states = integrability.random_states(form, count, rng, accept=accept)
    if form == "extended":
        # involution of the charge algebra is an on-shell statement: put the
        # sampled p+ on the mass shell instead of leaving it arbitrary
        states = [extended_state_on_shell(bg, st.q[0], st.q[1], st.q[2:4],
                                          st.p[1], st.p[2:4], s=st.time)
                  for st in states]
    return states


def cmd_certify(cfg, out_dir: Path, fmt: str, tol_abs: float, tol_rel: float,
                seed: int) -> int:
    bg = _background(cfg)
    form = _get(cfg, "certify", "form", "instant")
    count = _geti(cfg, "certify", "count", 24)
    rng = np.random.default_rng(seed)
    states = _certify_states(cfg, bg, form, count, rng)
    mon_cfg = _merge(cfg, {"monitor": {"set": _get(cfg, "certify", "set"),
                                       "extra": ""}})
    quantities, _ = _monitors(mon_cfg, bg)
    cert = integrability.classify(quantities, states, bg,
                                  rank_tol=tol_rel, bracket_tol=tol_abs)
    cert.to_json(out_dir / "certification.json")
    print(f"rank {cert.rank} of {len(quantities)} quantities on "
          f"{len(states)} states; involutive subset: "
          f"{', '.join(cert.involutive_subset) or 'none'}")
    print(f"classification: {cert.label}")
    expect = [e.strip() for e in
              str(_get(cfg, "certify", "expect", "")).split(",") if e.strip()]
    if expect:
        return 0 if cert.label in expect else 1
    return 0 if cert.label != "not certified" else 1


def _kg_setup(cfg, rng):
    """Returns (phi, bg, points, eigen_triples) for the configured family."""
    sol = _get(cfg, "kg", "solution")
    if sol == "planewave":
        bg = _background(cfg)
        qperp = _getfs(cfg, "kg", "qperp", 2, "0.3,-0.2")
        qminus = _getf(cfg, "kg", "qminus", 0.7)
        phi = kgverify.make_planewave_solution(qperp, qminus, bg)
        pts = [FourVector(*rng.uniform(-1.0, 1.0, size=4)) for _ in range(1000)]
        triples = [(conformal.translation_axis(1), qperp[0], "P1"),
                   (conformal.translation_axis(2), qperp[1], "P2"),
                   (conformal.translation_xminus(), qminus, "P-")]
        return phi, bg, pts, triples
    if sol == "conformal":
        bg = _background(cfg)
        p = bg.params
        if "special_conformal" not in p.get("family", ""):
            raise ConfigError("conformal solution needs an inverse-square "
                              "background family")
        A = _getf(cfg, "background", "m0sq", 1.0) * _getf(
            cfg, "background", "L", 1.0) ** 2
        k = _getf(cfg, "background", "k", 1.0)

        def f(u):
            return A * np.exp(-(k * u) ** 2)
        qperp = _getfs(cfg, "kg", "qperp", 2, "0.25,-0.15")
        q3 = _getf(cfg, "kg", "q3", 0.8)
        phi = kgverify.make_conformal_solution(qperp, q3, f)

        def pt(_):
            lf = LightFrontCoords(rng.uniform(0.7, 1.6),
                                  rng.uniform(-0.5, 0.5),
                                  rng.uniform(-0.4, 0.4),
                                  rng.uniform(-0.4, 0.4))
            return from_lightfront(lf)
        pts = [pt(i) for i in range(1000)]
        triples = [(conformal.special_conformal_lf(), q3, "C-"),
                   (conformal.null_rotation_t(1), qperp[0], "T1"),
                   (conformal.null_rotation_t(2), qperp[1], "T2")]
        return phi, bg, pts, triples
    if sol == "dilation":
        bg = _background(cfg)
        qperp = _getfs(cfg, "kg", "qperp", 2, "0.4,0.1")
        q3 = _getf(cfg, "kg", "q3", 0.6)
        csq = _getf(cfg, "background", "csq", 1.0)
        c1 = _getf(cfg, "kg", "c1", 1.0)
        c2 = _getf(cfg, "kg", "c2", 0.0)
        phi = kgverify.make_dilation_solution(qperp, q3, csq, c1, c2)

        def pt(_):
            return FourVector(rng.uniform(1.8, 2.6), rng.uniform(-0.4, 0.4),
                              rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        pts = [pt(i) for i in range(1000)]
        triples = [(conformal.dilation(), q3, "D"),
                   (conformal.null_rotation_t(1), qperp[0], "T1"),
                   (conformal.null_rotation_t(2), qperp[1], "T2")]
        return phi, bg, pts, triples
    if sol == "offshell":
        bg = _background(cfg)
        p = np.asarray(_getfs(cfg, "kg", "p", 4, "1.3,0.2,-0.1,0.3"))

        def ev(x):
            return np.exp(-1j * (p[0] * x.t + p[1] * x.x + p[2] * x.y
                                 + p[3] * x.z))
        phi = kgverify.Wavefunction("offshell_control", ev,
                                    params={"p": list(p)})
        pts = [FourVector(*rng.uniform(-1.0, 1.0, size=4)) for _ in range(1000)]
        return phi, bg, pts, []
    raise ConfigError(f"unknown kg solution {sol!r}")


def cmd_kg(cfg, out_dir: Path, fmt: str, tol_abs: float, tol_rel: float,
           seed: int) -> int:
    rng = np.random.default_rng(seed)
    phi, bg, pool, triples = _kg_setup(cfg, rng)
    npts = _geti(cfg, "kg", "points", 60)
    h = _getf(cfg, "kg", "h", 1e-3)
    points = [x for x in pool if phi.in_domain(x)][:npts]
    if len(points) < npts:
        raise ConfigError("could not draw enough in-domain sample points")
    rows = kgverify.residual_convergence(phi, bg, points, h=h)
    kgverify.write_convergence_csv(out_dir / "convergence.csv", rows)
    ratios = [r[4] for r in rows]
    ok = all(3.5 <= r <= 4.5 for r in ratios)

    defects = []
    for gen, Q, label in triples:
        d1 = kgverify.eigen_defect(gen, phi, Q, points[:10], h=h)
        d2 = kgverify.eigen_defect(gen, phi, Q, points[:10], h=h / 2.0)
        defects.append({"generator": label, "Q": float(Q),
                        "defect_h": float(d1), "defect_h2": float(d2)})
    summary = {"command": "kg", "solution": phi.label, "seed": seed,
               "points": len(points), "h": h,
               "ratio_min": float(min(ratios)), "ratio_max": float(max(ratios)),
               "eigen_defects": defects, "pass": bool(ok)}
    with open(out_dir / "kg_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"{phi.label}: {len(points)} points, h-halving ratios in "
          f"[{min(ratios):.2f}, {max(ratios):.2f}] -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_orbit(cfg, out_dir: Path, fmt: str, tol_abs: float, tol_rel: float,
              seed: int) -> int:
    bg = _background(cfg)
    fam = bg.params.get("family")
    state = _initial_state(cfg, bg)
    w0 = _getf(cfg, "run", "tstart", 0.0)
    w1 = _getf(cfg, "run", "tend")
    if fam == "linear_z":
        orb = analytic.spacelike_orbit(_getf(cfg, "background", "B"), state,
                                       _getf(cfg, "background", "m0sq", 1.0))
    elif fam == "constant":
        orb = analytic.timelike_orbit(lambda t: 0.0, state,
                                      _getf(cfg, "background", "m0sq", 1.0))
    elif fam == "plane_wave":
        orb = analytic.planewave_orbit(bg, state)
    elif fam in ("special_conformal_switched", "special_conformal_gaussian"):
        A = _getf(cfg, "background", "m0sq", 1.0) * _getf(
            cfg, "background", "L", 1.0) ** 2
        k = _getf(cfg, "background", "k", 1.0)
        orb = analytic.conformal_orbit(
            lambda u: A * np.exp(-(k * u) ** 2), state,
            df=lambda u: -2.0 * k * k * u * A * np.exp(-(k * u) ** 2),
            xplus_max=w1)
    else:
        raise ConfigError(f"no closed form for family {fam!r}")
    ws = np.linspace(w0, w1, _geti(cfg, "run", "samples", 400))
    xs, ps = orb.sample(ws)
    path = out_dir / ("orbit.json" if fmt == "json" else "orbit.csv")
    if fmt == "json":
        doc = {"family": orb.family, "time": orb.time_name,
               "constants": {k: (list(map(float, np.atleast_1d(v)))
                                 if np.ndim(v) else float(v))
                             for k, v in orb.constants.items()},
               "columns": [orb.time_name, "x0", "x1", "x2", "x3",
                           "p0", "p1", "p2", "p3"],
               "samples": [[float(w)] + list(map(float, x)) + list(map(float, p))
                           for w, x, p in zip(ws, xs, ps)]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    else:
        with open(path, "w") as fh:
            fh.write(f"{orb.time_name},x0,x1,x2,x3,p0,p1,p2,p3\n")
            for w, x, p in zip(ws, xs, ps):
                row = [w] + list(x) + list(p)
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"{orb.family} closed-form orbit -> {path.name}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confdyn",
        description="relativistic particle dynamics in scalar backgrounds: "
                    "simulation, superintegrability certification, and "
                    "wave-equation verification")
    ap.add_argument("command", choices=["simulate", "certify", "kg", "orbit"])
    ap.add_argument("--config", help="INI configuration file")
    ap.add_argument("--preset", help="built-in configuration: "
                    + ", ".join(sorted(_PRESETS)))
    ap.add_argument("--set", action="append", dest="overrides",
                    metavar="SECTION.KEY=VALUE", help="config override")
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    ap.add_argument("--tol-abs", type=float, default=1e-9,
                    help="absolute tolerance (involution brackets)")
    ap.add_argument("--tol-rel", type=float, default=1e-8,
                    help="relative tolerance (drifts, independence rank)")
    ap.add_argument("--seed", type=int, default=20240811)
    return ap


_COMMANDS = {"simulate": cmd_simulate, "certify": cmd_certify,
             "kg": cmd_kg, "orbit": cmd_orbit}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg: dict = {}
        if args.preset:
            cfg = preset_config(args.preset)
        if args.config:
            cfg = _merge(cfg, config_from_ini(args.config))
        cfg = apply_overrides(cfg, args.overrides)
        if not cfg:
            raise ConfigError("no configuration: pass --preset and/or --config")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args.format,
                                       args.tol_abs, args.tol_rel, args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SingularityError, RealityError, DomainError) as exc:
        print(f"runtime domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
