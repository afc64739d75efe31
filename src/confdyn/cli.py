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
it, and --set section.key=value overrides applied last.  One table,
_SCHEMA, declares every section and key with the parser of its type; the
merged config (and each run of a simulate sweep) is parsed through it
before any work, so an unknown section or key, or a value its type refuses,
exits 2 with nothing written.  Identical configuration and seed produce
byte-identical outputs.

Each command returns (files, lines, ok): files as (name, writer, *data),
written by writer(out_dir / name, *data).  main alone writes the files,
prints the lines and exits, so a command that raises writes nothing.
Exit codes: 0 pass, 1 check failed, 2 configuration error, 3 runtime
singularity or reality violation.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import backgrounds, conformal, integrability
from .dynamics import (FORMS, EvolveOptions, PhaseSpaceState, covariant_state,
                       evolve, extended_state, extended_state_on_shell,
                       front_state, instant_state, starts_at)
from .errors import ConfigError, DomainError, RealityError, SingularityError
from .geometry import FourVector, LightFrontCoords, from_lightfront
from .jsonio import write_csv, write_json

_FIG1_P3 = (-0.25, -0.4, -0.5, -0.6)
# (kappa, entry p-, end x+) of fig. 2: p- = sqrt(kappa/(2 sqrt(pi))), which
# inverts kappa = 2 sqrt(pi) p-^2/(k m0^2 L) at m0 = k = L = 1, and
# x+ = 1/(1 - kappa erf(3.75)) where L/x+ = 1 - kappa erf(k x-) leaves the
# plotted window k x- <= 3.75; written out so that no run needs scipy's erf
_FIG2_RUNS = ((0.3, "0.29090967246237009", "1.4285713589424993"),
              (0.5, "0.37556277223247125", "1.9999997725455128"),
              (0.7, "0.44437186481787383", "3.3333324487882381"),
              (0.9, "0.50387033311804574", "9.9999897645573821"))


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
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        return {sec: dict(cp.items(sec)) for sec in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # no section header, a duplicated key, a bad % or undecodable bytes
        raise ConfigError(f"config file {path}: {exc}") from None


def apply_overrides(cfg: dict, assignments) -> dict:
    out = {sec: dict(kv) for sec, kv in cfg.items()}
    for a in assignments or ():
        key, _, value = a.partition("=")
        sec, _, name = key.partition(".")
        if not (sec and name and _):
            raise ConfigError(f"{a!r} is not section.key=value")
        out.setdefault(sec.strip(), {})[name.strip()] = value.strip()
    return out


# parsers of the schema: each turns one raw string into a typed value or
# raises ValueError saying what the string is not

def _number(raw, above=-math.inf) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not math.isfinite(val):
        raise ValueError(f"{raw!r} is not a finite number")
    if not val > above:
        raise ValueError(f"{raw!r} is not above {above:g}")
    return val


def _count(least: int):
    def parse(raw) -> int:
        val = _number(raw)
        if not (val.is_integer() and val >= least):
            raise ValueError(f"{raw!r} is not an integer of at least {least}")
        return int(val)
    return parse


def _positive(raw) -> float:
    return _number(raw, above=0.0)


def _stencil_step(raw) -> float:
    """A positive step h whose h^2, the stencils' divisor, does not underflow."""
    val = _positive(raw)
    if val * val < sys.float_info.min:
        raise ValueError(f"{raw!r} is too small: h^2 underflows")
    return val


def _numbers(n: int):
    def parse(raw) -> list:
        vals = [_number(v) for v in raw.split(",") if v.strip() != ""]
        if len(vals) != n:
            raise ValueError(f"{raw!r} is not {n} comma-separated numbers")
        return vals
    return parse


def _names(raw) -> list:
    return [v.strip() for v in raw.split(",") if v.strip()]


# every section and key that a command, form or family reads, with its parser;
# sweep.override_<i> (any i >= 0) holds ';'-separated section.key=value overrides
_SCHEMA = {
    "run": {"form": str, "tstart": _number, "tend": _number,
            "samples": _count(2), "rtol": _positive, "atol": _positive,
            "nonrelativistic": backgrounds.parse_bool},
    "background": {"family": str, "profile": str, "argument": str, "path": str,
                   "m0sq": _number, "B": _number, "amp": _number, "k": _number,
                   "L": _number, "csq": _number,
                   "switched": backgrounds.parse_bool},
    "initial": {"t": _number, "x": _numbers(3), "p": _numbers(3),
                "xplus": _number, "xminus": _number, "xperp": _numbers(2),
                "pminus": _number, "pperp": _numbers(2), "x4": _numbers(4),
                "xdot": _numbers(4), "pplus": lambda raw: (
                    "shell" if raw.strip().lower() == "shell" else _number(raw))},
    "monitor": {"set": str, "extra": _names},
    "sweep": {"count": _count(1),
              "override_<i>": lambda raw: [a for a in raw.split(";") if a]},
    "certify": {"set": str, "form": str, "count": _count(1), "expect": _names},
    "kg": {"solution": str, "qperp": _numbers(2), "qminus": _number,
           "q3": _number, "c1": _number, "c2": _number, "points": _count(1),
           "h": _stencil_step, "p": _numbers(4)},
}


def _parse(cfg: dict) -> dict:
    """The typed config: every value of the raw (string) config through its
    key's parser.  An unknown section or key, or a value its parser refuses,
    is a ConfigError."""
    out = {}
    for sec, kv in cfg.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        out[sec] = {}
        for key, raw in kv.items():
            pattern = sec == "sweep" and key[:9] == "override_" and key[9:].isdigit()
            name = "override_<i>" if pattern else key
            if name not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key [{sec}] {key}")
            try:
                out[sec][key] = _SCHEMA[sec][name](raw)
            except ValueError as exc:
                raise ConfigError(f"[{sec}] {key}: {exc}") from None
    return out


def _get(cfg, sec, key, default=None):
    """A typed value of the config, or default when the key is absent."""
    try:
        return cfg[sec][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigError(f"missing configuration key [{sec}] {key}")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _fig1_preset() -> dict:
    runs = [f"initial.p=0,0,{p3:g}" for p3 in _FIG1_P3]
    return {
        "run": {"form": "instant", "tstart": "0", "tend": "4",
                "samples": "500"},
        "background": {"family": "linear_z", "B": "1.0", "m0sq": "1.0",
                       "switched": "true"},
        "initial": {"t": "0", "x": "0,0,0", "p": "0,0,-0.5"},
        "monitor": {"set": "spacelike", "extra": "p3,BLz"},
        "sweep": {"count": str(len(runs))}
                 | {f"override_{i}": ov for i, ov in enumerate(runs)},
    }


def _fig2_preset() -> dict:
    return {
        "run": {"form": "front", "tstart": "1", "tend": "2",
                "samples": "500", "rtol": "1e-12", "atol": "1e-12"},
        "background": {"family": "special_conformal_switched", "m0sq": "1.0",
                       "L": "1.0", "k": "1.0"},
        "initial": {"xplus": "1", "xminus": "0", "xperp": "0,0",
                    "pminus": "0.4", "pperp": "0,0"},
        "monitor": {"set": "conformal_front"},
        "sweep": {"count": str(len(_FIG2_RUNS))}
                 | {f"override_{i}": f"initial.pminus={pminus};run.tend={tend}"
                    for i, (_, pminus, tend) in enumerate(_FIG2_RUNS)},
    }


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
               "c1": "1", "c2": "0.3", "points": "60", "h": "5e-3"},
    }


def _linear_z_certify_preset(qset: str, expect: str):
    """The certify preset of quantity set qset on unswitched m^2 = 1 + z."""
    return lambda: {
        "background": {"family": "linear_z", "B": "1.0", "m0sq": "1.0",
                       "switched": "false"},
        "certify": {"set": qset, "form": "instant", "count": "24",
                    "expect": expect},
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
    "spacelike": _linear_z_certify_preset("spacelike", "maximally superintegrable"),
    "conformal": _conformal_certify_preset,
    "truncated": _linear_z_certify_preset("truncated", "not certified"),
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
    try:
        return backgrounds.from_params(cfg["background"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad background: {exc}")


def _xplus_wave(bg, what: str):
    """bg, if it has an x+ antiderivative of m^2 (an x- wave has none)."""
    if bg.m2_antiderivative is None:
        raise ConfigError(f"{what} needs m^2 of x+ alone; {bg!r} has no x+ "
                          "antiderivative of m^2")
    return bg


def _family_param(bg, family: str, key: str, what: str) -> float:
    if bg.params["family"] != family:
        raise ConfigError(f"{what} needs the {family} background family, "
                          f"not {bg.label!r}")
    return bg.params[key]


def _initial_state(cfg, bg) -> PhaseSpaceState:
    form = _get(cfg, "run", "form", "instant")
    if form == "instant":
        return instant_state(_get(cfg, "initial", "t", 0.0),
                             _get(cfg, "initial", "x", [0.0, 0.0, 0.0]),
                             _get(cfg, "initial", "p"))
    if form in ("front", "extended"):
        xplus = _get(cfg, "initial", "xplus")
        xminus = _get(cfg, "initial", "xminus", 0.0)
        xperp = _get(cfg, "initial", "xperp", [0.0, 0.0])
        pminus = _get(cfg, "initial", "pminus")
        pperp = _get(cfg, "initial", "pperp", [0.0, 0.0])
    if form == "front":
        return front_state(xplus, xminus, xperp, pminus, pperp)
    if form == "extended":
        s0 = _get(cfg, "run", "tstart", 0.0)
        pplus = _get(cfg, "initial", "pplus", "shell")
        if pplus == "shell":
            return extended_state_on_shell(bg, xplus, xminus, xperp, pminus,
                                           pperp, s=s0)
        return extended_state(xplus, xminus, xperp, pplus, pminus, pperp, s=s0)
    if form == "covariant":
        x = FourVector(*_get(cfg, "initial", "x4"))
        u = FourVector(*_get(cfg, "initial", "xdot"))
        try:
            return covariant_state(x, u, tau=_get(cfg, "run", "tstart", 0.0))
        except ValueError as exc:
            raise ConfigError(f"[initial] xdot: {exc}") from None
    raise ConfigError(f"unknown form {form!r}")


_ANY_FORM = tuple(FORMS)


def _check_form(kind: str, name: str, forms: tuple, form) -> None:
    if form is not None and form not in forms:
        raise ConfigError(f"{kind} {name!r} is written for the "
                          f"{' or '.join(forms)} form, not {form!r}")


def _monitors(cfg, bg, form=None) -> tuple:
    """(quantities, gated labels) of [monitor] set and extra.  Each set and
    each extra names the forms its quantities are written for (generator
    charges read the on-shell four-momentum, so they serve every form); a
    form outside them is a ConfigError."""
    name = _get(cfg, "monitor", "set", "none")
    sets = {
        "none": (_ANY_FORM, lambda: []),
        "spacelike": (("instant",), lambda: conformal.spacelike_set(
            _family_param(bg, "linear_z", "B", "quantity set 'spacelike'"))),
        "planewave": (("extended",), conformal.planewave_extended_set),
        "conformal": (("extended",), conformal.conformal_extended_set),
        "conformal_front": (_ANY_FORM, conformal.conformal_front_set),
        "dilation": (_ANY_FORM, conformal.dilation_mass_set),
        "poincare": (_ANY_FORM, conformal.poincare_set),
        "truncated": (_ANY_FORM, lambda: [
            conformal.generator_quantity(conformal.translation_axis(1), "Q1"),
            conformal.generator_quantity(conformal.translation_axis(2), "Q2")]),
    }
    if name not in sets:
        raise ConfigError(f"unknown quantity set {name!r}")
    forms, build = sets[name]
    _check_form("quantity set", name, forms, form)
    if name == "planewave":
        _xplus_wave(bg, "quantity set 'planewave'")
    extras = {
        "p3": (_ANY_FORM, conformal.momentum_p3_quantity),
        "Lz": (("instant",), conformal.angular_momentum_z_quantity),
        "BLz": (("instant",), lambda: conformal.angular_momentum_z_quantity(
            _family_param(bg, "linear_z", "B", "extra quantity 'BLz'"))),
    }
    out = build()
    gated = [q.label for q in out]
    for extra in _get(cfg, "monitor", "extra", []):
        if extra not in extras:
            raise ConfigError(f"unknown extra quantity {extra!r}")
        forms, build = extras[extra]
        _check_form("extra quantity", extra, forms, form)
        out.append(build())
    return out, gated


def _evolve_options(cfg) -> EvolveOptions:
    """EvolveOptions from the [run] keys that are set; the others keep the
    dataclass defaults."""
    run = cfg.get("run", {})
    return EvolveOptions(**{f.name: run[f.name]
                            for f in dataclasses.fields(EvolveOptions) if f.name in run})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _sweep_configs(cfg) -> list:
    """The typed config of each run of the raw config's [sweep], or of its
    one run without a sweep."""
    typed = _parse(cfg)
    if "sweep" not in typed:
        return [typed]
    runs = []
    for i in range(_get(typed, "sweep", "count")):
        overrides = _get(typed, "sweep", f"override_{i}")
        try:
            runs.append(_parse(apply_overrides(cfg, overrides)))
        except ConfigError as exc:
            raise ConfigError(f"{exc} (in [sweep] override_{i})") from None
    return runs


def _span(cfg, state) -> tuple:
    """([run] tstart, [run] tend), checked against each other and against
    the initial state's own time."""
    span = (_get(cfg, "run", "tstart", 0.0), _get(cfg, "run", "tend"))
    if not span[1] > span[0]:
        raise ConfigError(f"[run] tend = {span[1]:g} must exceed tstart = {span[0]:g}")
    if not starts_at(state, span[0]):
        raise ConfigError(f"the initial {FORMS[state.form].time_name} = "
                          f"{state.time:g} must equal [run] tstart = {span[0]:g}")
    return span


def _setup_run(run_cfg) -> tuple:
    """(bg, state, span, options, quantities, gated), checked before any run."""
    bg = _background(run_cfg)
    state = _initial_state(run_cfg, bg)
    span = _span(run_cfg, state)
    opts = _evolve_options(run_cfg)
    return (bg, state, span, opts) + _monitors(run_cfg, bg, state.form)


def _run_one(setup, index: int, fmt: str, tol_rel: float) -> tuple:
    bg, state, span, opts, quantities, gated = setup
    traj = evolve(state, bg, span, opts, monitors=quantities)
    name = f"run_{index:03d}.{fmt}"
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
    }, (name, traj.to_json if fmt == "json" else traj.to_csv)


def cmd_simulate(run_cfgs: list, fmt: str, tol_rel: float, seed: int) -> tuple:
    setups = [_setup_run(rc) for rc in run_cfgs]
    results, files = zip(*(_run_one(setup, i, fmt, tol_rel)
                           for i, setup in enumerate(setups)))
    summary = {"command": "simulate", "seed": seed, "tol_rel": tol_rel,
               "runs": list(results), "pass": all(r["pass"] for r in results)}
    lines = [f"run {r['index']:3d}: max drift {r['max_drift']:.3e} "
             f"{'PASS' if r['pass'] else 'FAIL'}  -> {r['file']}" for r in results]
    return [*files, ("summary.json", write_json, summary, True)], lines, summary["pass"]


def _certify_states(bg, form: str, count: int, rng) -> list:
    fam = bg.params.get("family", "")

    def accept(st):
        try:
            return bg.m2(st.position()) > 0.05
        except (RealityError, SingularityError):
            return False

    try:
        if fam == "dilation":
            def accept_dil(st):
                x = st.position()
                return x.norm2() > 0.5 and x.t > 0
            states = integrability.random_states(
                form, count, rng, t_range=(1.8, 2.6), q_range=(-0.4, 0.4),
                accept=accept_dil)
        else:
            states = integrability.random_states(form, count, rng, accept=accept)
    except ValueError as exc:
        raise ConfigError(f"cannot sample {count} {form} states on {bg.label}: "
                          f"{exc}") from None
    if form == "extended":
        # involution of the charge algebra is an on-shell statement: put the
        # sampled p+ on the mass shell instead of leaving it arbitrary
        states = [extended_state_on_shell(bg, st.q[0], st.q[1], st.q[2:4],
                                          st.p[1], st.p[2:4], s=st.time)
                  for st in states]
    return states


def cmd_certify(cfg, tol_abs: float, tol_rel: float, seed: int) -> tuple:
    bg = _background(cfg)
    form = _get(cfg, "certify", "form", "instant")
    if form not in FORMS or not FORMS[form].canonical:
        raise ConfigError(f"[certify] form = {form!r} has no canonical bracket")
    count = _get(cfg, "certify", "count", 24)
    qset = {"monitor": {"set": _get(cfg, "certify", "set")}}
    quantities, _ = _monitors(qset, bg, form)
    if not quantities:
        raise ConfigError("[certify] set names no quantities")
    rng = np.random.default_rng(seed)
    states = _certify_states(bg, form, count, rng)
    cert = integrability.classify(quantities, states, bg,
                                  rank_tol=tol_rel, bracket_tol=tol_abs)
    lines = [f"rank {cert.rank} of {len(quantities)} quantities on "
             f"{len(states)} states; involutive subset: "
             f"{', '.join(cert.involutive_subset) or 'none'}",
             f"classification: {cert.label}"]
    expect = _get(cfg, "certify", "expect", [])
    ok = cert.label in expect if expect else cert.label != "not certified"
    return [("certification.json", write_json, cert.to_dict(), False)], lines, ok


def _kg_setup(cfg, rng):
    """Returns (phi, bg, draw, eigen_triples) for the configured family;
    draw() is one sample point read from rng."""
    from . import kgverify
    sol = _get(cfg, "kg", "solution")
    bg = _background(cfg)

    def box():
        return FourVector(*rng.uniform(-1.0, 1.0, size=4))

    if sol == "planewave":
        qperp = _get(cfg, "kg", "qperp", [0.3, -0.2])
        qminus = _get(cfg, "kg", "qminus", 0.7)
        phi = kgverify.make_planewave_solution(
            qperp, qminus, _xplus_wave(bg, "the planewave mode"))
        triples = [(conformal.translation_axis(1), qperp[0], "P1"),
                   (conformal.translation_axis(2), qperp[1], "P2"),
                   (conformal.translation_xminus(), qminus, "P-")]
        return phi, bg, box, triples
    if sol == "conformal":
        if bg.profile is None:
            raise ConfigError("conformal solution needs an inverse-square "
                              "background family")
        qperp = _get(cfg, "kg", "qperp", [0.25, -0.15])
        q3 = _get(cfg, "kg", "q3", 0.8)
        phi = kgverify.make_conformal_solution(qperp, q3, bg)
        triples = [(conformal.special_conformal_lf(), q3, "C-"),
                   (conformal.null_rotation_t(1), qperp[0], "T1"),
                   (conformal.null_rotation_t(2), qperp[1], "T2")]
        return phi, bg, lambda: from_lightfront(LightFrontCoords(
            rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5),
            rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))), triples
    if sol == "dilation":
        qperp = _get(cfg, "kg", "qperp", [0.4, 0.1])
        q3 = _get(cfg, "kg", "q3", 0.6)
        csq = _family_param(bg, "dilation", "csq", "the dilation mode")
        c1 = _get(cfg, "kg", "c1", 1.0)
        c2 = _get(cfg, "kg", "c2", 0.0)
        phi = kgverify.make_dilation_solution(qperp, q3, csq, c1, c2)
        triples = [(conformal.dilation(), q3, "D"),
                   (conformal.null_rotation_t(1), qperp[0], "T1"),
                   (conformal.null_rotation_t(2), qperp[1], "T2")]
        return phi, bg, lambda: FourVector(
            rng.uniform(1.8, 2.6), rng.uniform(-0.4, 0.4),
            rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)), triples
    if sol == "offshell":
        p = np.asarray(_get(cfg, "kg", "p", [1.3, 0.2, -0.1, 0.3]))

        def ev(x):
            return np.exp(-1j * (p[0] * x.t + p[1] * x.x + p[2] * x.y
                                 + p[3] * x.z))
        phi = kgverify.Wavefunction("offshell_control", ev,
                                    params={"p": list(p)})
        return phi, bg, box, []
    raise ConfigError(f"unknown kg solution {sol!r}")


def cmd_kg(cfg, seed: int) -> tuple:
    from . import kgverify   # kg only
    npts = _get(cfg, "kg", "points", 60)
    h = _get(cfg, "kg", "h", 1e-3)
    rng = np.random.default_rng(seed)
    try:
        phi, bg, draw, triples = _kg_setup(cfg, rng)
    except ValueError as exc:       # a mode constructor refusing its constants
        raise ConfigError(f"kg solution: {exc}") from None
    # the first npts in-domain points of at most 1000 draws
    drawn = (draw() for _ in range(1000))
    points = list(itertools.islice(filter(phi.in_domain, drawn), npts))
    if len(points) < npts:
        raise ConfigError("could not draw enough in-domain sample points")
    rows = kgverify.residual_convergence(phi, bg, points, h=h)
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
    files = [("convergence.csv", kgverify.write_convergence_csv, rows),
             ("kg_summary.json", write_json, summary, True)]
    return files, [f"{phi.label}: {len(points)} points, h-halving ratios in "
                   f"[{min(ratios):.2f}, {max(ratios):.2f}] -> "
                   f"{'PASS' if ok else 'FAIL'}"], ok


def cmd_orbit(cfg, fmt: str) -> tuple:
    from . import analytic   # orbit only
    bg = _background(cfg)
    p, fam = bg.params, bg.params.get("family")
    state = _initial_state(cfg, bg)
    w0, w1 = _span(cfg, state)

    def conformal_orbit():
        return analytic.conformal_orbit(bg, state, xplus_max=w1)

    def switched_orbit():
        # the closed form follows f(u)/(x+)^2 alone, not the constant m0^2
        # before the switch-on
        if state.time < p["L"]:
            raise ConfigError(f"the {fam} orbit starts at x+ >= L = {p['L']:g}, "
                              f"not at x+ = {state.time:g}")
        return conformal_orbit()

    # family -> (forms the closed form starts from, build)
    orbits = {
        "linear_z": (("instant",), lambda: analytic.spacelike_orbit(
            p["B"], state, p["m0sq"])),
        "constant": (("instant",), lambda: analytic.timelike_orbit(
            lambda t: 0.0, state, p["m0sq"])),
        "plane_wave": (("front", "extended"), lambda: analytic.planewave_orbit(
            _xplus_wave(bg, "the plane-wave orbit"), state)),
        "special_conformal_switched": (("front",), switched_orbit),
        "special_conformal_gaussian": (("front",), conformal_orbit),
    }
    if fam not in orbits:
        raise ConfigError(f"no closed form for family {fam!r}")
    forms, build = orbits[fam]
    _check_form("the closed-form orbit of", fam, forms, state.form)
    try:
        orb = build()
    except ValueError as exc:
        raise ConfigError(f"the {fam} orbit: {exc}") from None
    ws = np.linspace(w0, w1, _evolve_options(cfg).samples)
    xs, ps = orb.sample(ws)
    columns = [orb.time_name, "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3"]
    samples = np.column_stack([ws, xs, ps]).tolist()
    file = ("orbit.csv", write_csv, columns, samples)
    if fmt == "json":
        file = ("orbit.json", write_json, {
            "family": orb.family, "time": orb.time_name,
            "constants": {k: (list(map(float, np.atleast_1d(v)))
                              if np.ndim(v) else float(v))
                          for k, v in orb.constants.items()},
            "columns": columns, "samples": samples}, True)
    return [file], [f"{orb.family} closed-form orbit -> {file[0]}"], True


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
    ap.add_argument("--format", choices=["csv", "json"], default="csv",
                    help="format of the run_<i> and orbit files; summary.json "
                         "and the certify and kg files keep theirs")
    ap.add_argument("--tol-abs", type=float, default=1e-9,
                    help="absolute tolerance (involution brackets)")
    ap.add_argument("--tol-rel", type=float, default=1e-8,
                    help="relative tolerance (drifts, independence rank)")
    ap.add_argument("--seed", type=int, default=20240811)
    return ap


# command -> (raw config -> typed config, command, the options it reads, in order)
_COMMANDS = {"simulate": (_sweep_configs, cmd_simulate, ("format", "tol_rel", "seed")),
             "certify": (_parse, cmd_certify, ("tol_abs", "tol_rel", "seed")),
             "kg": (_parse, cmd_kg, ("seed",)), "orbit": (_parse, cmd_orbit, ("format",))}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, tol in (("--tol-abs", args.tol_abs), ("--tol-rel", args.tol_rel)):
            try:
                _positive(tol)
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
        if args.seed < 0:
            raise ConfigError(f"--seed: {args.seed} is negative")
        cfg: dict = {}
        if args.preset:
            cfg = preset_config(args.preset)
        if args.config:
            cfg = _merge(cfg, config_from_ini(args.config))
        cfg = apply_overrides(cfg, args.overrides)
        if not cfg:
            raise ConfigError("no configuration: pass --preset and/or --config")
        parse, command, options = _COMMANDS[args.command]
        cfg = parse(cfg)
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out-dir {out_dir}: {exc.strerror}") from None
        files, lines, ok = command(cfg, *(getattr(args, o) for o in options))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SingularityError, RealityError, DomainError) as exc:
        print(f"runtime domain error: {exc}", file=sys.stderr)
        return 3
    for name, write, *data in files:
        write(out_dir / name, *data)
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
