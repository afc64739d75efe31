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
_SCHEMA, declares every section and key with the parser of its type and its
default; the merged config (and each run of a simulate sweep) is parsed
through it before any work, so an unknown section or key, or a value its
type refuses, exits 2 with nothing written; a key left out takes its
default.  Identical configuration and seed produce byte-identical outputs.

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
import math
import sys
from pathlib import Path

import numpy as np

from . import backgrounds, conformal, integrability
from .dynamics import (FORMS, EvolveOptions, PhaseSpaceState, check_flow,
                       covariant_state, evolve, extended_state, extended_state_on_shell,
                       front_state, hamiltonian_front, instant_state, starts_at)
from .errors import ConfigError, DomainError, RealityError, SingularityError
from .geometry import FourVector, from_lightfront
from .jsonio import write_csv, write_json

# (kappa, entry p-, end x+) of fig. 2: p- = sqrt(kappa/(2 sqrt(pi))), which
# inverts kappa = 2 sqrt(pi) p-^2/(k m0^2 L) at m0 = k = L = 1, and
# x+ = 1/(1 - kappa erf(3.75)) where L/x+ = 1 - kappa erf(k x-) leaves the
# plotted window k x- <= 3.75; p- and x+ as the %.17g text of the overrides
_FIG2_RUNS = tuple((kappa, f"{math.sqrt(kappa / (2.0 * math.sqrt(math.pi))):.17g}",
                    f"{1.0 / (1.0 - kappa * math.erf(3.75)):.17g}")
                   for kappa in (0.3, 0.5, 0.7, 0.9))


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

def _number(raw) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not math.isfinite(val):
        raise ValueError(f"{raw!r} is not a finite number")
    return val


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def parse_bool(raw) -> bool:
    """Any case of 1/0, true/false, yes/no, on/off; else ValueError."""
    key = raw.strip().lower()
    if key not in _BOOLS:
        raise ValueError(f"{raw!r} is not a boolean")
    return _BOOLS[key]


def _count(least: int, most: float):
    def parse(raw) -> int:
        val = _number(raw)
        if not (val.is_integer() and least <= val <= most):
            bound = "" if most == math.inf else f" and at most {most}"
            raise ValueError(f"{raw!r} is not an integer of at least {least}{bound}")
        return int(val)
    return parse


def _positive(raw) -> float:
    val = _number(raw)
    if not val > 0.0:
        raise ValueError(f"{raw!r} is not above 0")
    return val


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


# a key with no schema default: its reader requires it, or ([background], the
# kg mode constants) takes the default from backgrounds._FAMILY_DEFAULTS or
# _KG_SOLUTIONS
REQUIRED = object()
_OPTIONS = {f.name: f.default for f in dataclasses.fields(EvolveOptions)}

# every section and key that a command, form or family reads: (parser,
# default); sweep.override_<i> (any i >= 0) holds ';'-separated
# section.key=value overrides
_SCHEMA = {
    "run": {"form": (str, "instant"), "tstart": (_number, 0.0), "tend": (_number, REQUIRED),
            "samples": (_count(2, math.inf), _OPTIONS["samples"]),
            "rtol": (_positive, _OPTIONS["rtol"]), "atol": (_positive, _OPTIONS["atol"]),
            "nonrelativistic": (parse_bool, _OPTIONS["nonrelativistic"])},
    "background": {"family": (str, REQUIRED), "profile": (str, REQUIRED),
                   "argument": (str, REQUIRED), "path": (str, REQUIRED),
                   "m0sq": (_number, REQUIRED), "B": (_number, REQUIRED),
                   "amp": (_number, REQUIRED), "k": (_number, REQUIRED),
                   "L": (_number, REQUIRED), "csq": (_number, REQUIRED),
                   "switched": (parse_bool, REQUIRED)},
    "initial": {"t": (_number, 0.0), "x": (_numbers(3), [0.0, 0.0, 0.0]),
                "p": (_numbers(3), REQUIRED), "xplus": (_number, REQUIRED),
                "xminus": (_number, 0.0), "xperp": (_numbers(2), [0.0, 0.0]),
                "pminus": (_number, REQUIRED), "pperp": (_numbers(2), [0.0, 0.0]),
                "x4": (_numbers(4), REQUIRED), "xdot": (_numbers(4), REQUIRED),
                "pplus": (lambda raw: "shell" if raw.strip().lower() == "shell"
                          else _number(raw), "shell")},
    "monitor": {"set": (str, "none"), "extra": (_names, [])},
    "sweep": {"count": (_count(1, math.inf), REQUIRED),
              "override_<i>": (lambda raw: [a for a in raw.split(";") if a], REQUIRED)},
    "certify": {"set": (str, REQUIRED), "form": (str, "instant"),
                "count": (_count(1, math.inf), 24), "expect": (_names, [])},
    "kg": {"solution": (str, REQUIRED), "qperp": (_numbers(2), REQUIRED),
           "qminus": (_number, REQUIRED), "q3": (_number, REQUIRED),
           "c1": (_number, REQUIRED), "c2": (_number, REQUIRED),
           "points": (_count(1, integrability.DRAW_BUDGET), 60),
           "h": (_stencil_step, 1e-3),
           "p": (_numbers(4), REQUIRED)},
}


def _parse(cfg: dict) -> dict:
    """The typed config: the schema's defaults, and over them every value of
    the raw (string) config through its key's parser.  A section without a
    default ([background], [sweep]) is there only if written.  An unknown
    section or key, or a value its parser refuses, is a ConfigError."""
    out = {sec: defaults for sec, keys in _SCHEMA.items()
           if (defaults := {k: d for k, (_, d) in keys.items() if d is not REQUIRED})}
    for sec, kv in cfg.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        out.setdefault(sec, {})
        for key, raw in kv.items():
            pattern = sec == "sweep" and key[:9] == "override_" and key[9:].isdigit()
            name = "override_<i>" if pattern else key
            if name not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key [{sec}] {key}")
            try:
                out[sec][key] = _SCHEMA[sec][name][0](raw)
            except ValueError as exc:
                raise ConfigError(f"[{sec}] {key}: {exc}") from None
    return out


def _get(cfg, sec, key):
    """A typed value of the config that has no default: a ConfigError when
    the key is absent."""
    try:
        return cfg[sec][key]
    except KeyError:
        raise ConfigError(f"missing configuration key [{sec}] {key}") from None


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _sweep(overrides) -> dict:
    """The [sweep] section of one run per entry of overrides."""
    return {"count": str(len(overrides))} | {f"override_{i}": ov
                                             for i, ov in enumerate(overrides)}


def _linear_z_certify(qset: str, expect: str) -> dict:
    """The certify preset of quantity set qset on unswitched m^2 = 1 + z."""
    return {"background": {"family": "linear_z", "B": "1.0", "switched": "false"},
            "certify": {"set": qset, "expect": expect}}


# each preset's raw config, which writes only what differs from the defaults
_PRESETS = {
    "fig1": {
        "run": {"tend": "4", "samples": "500"},
        "background": {"family": "linear_z", "B": "1.0"},
        "initial": {"p": "0,0,-0.5"},
        "monitor": {"set": "spacelike", "extra": "p3,BLz"},
        "sweep": _sweep([f"initial.p=0,0,{p3:g}" for p3 in (-0.25, -0.4, -0.5, -0.6)]),
    },
    "fig2": {
        "run": {"form": "front", "tstart": "1", "tend": "2",
                "samples": "500", "rtol": "1e-12", "atol": "1e-12"},
        "background": {"family": "special_conformal_switched"},
        "initial": {"xplus": "1", "pminus": "0.4"},
        "monitor": {"set": "conformal_front"},
        "sweep": _sweep([f"initial.pminus={pminus};run.tend={tend}"
                         for _, pminus, tend in _FIG2_RUNS]),
    },
    "planewave": {
        "run": {"form": "extended", "tend": "10", "rtol": "1e-12", "atol": "1e-12"},
        "background": {"family": "plane_wave"},
        "initial": {"xplus": "0", "pminus": "0.5", "pperp": "0.1,-0.05"},
        "monitor": {"set": "planewave"},
        "certify": {"set": "planewave", "form": "extended",
                    "expect": "maximally superintegrable"},
        "kg": {"solution": "planewave", "h": "5e-3"},
    },
    "dilation": {
        "run": {"tstart": "2", "tend": "6"},
        "background": {"family": "dilation"},
        "initial": {"t": "2", "x": "0.1,-0.1,0.3", "p": "0.05,0.02,-0.04"},
        "monitor": {"set": "dilation", "extra": "Lz"},
        "certify": {"set": "dilation", "expect": "integrable"},
        "kg": {"solution": "dilation", "c2": "0.3", "h": "5e-3"},
    },
    "spacelike": _linear_z_certify("spacelike", "maximally superintegrable"),
    "conformal": {
        "background": {"family": "special_conformal_gaussian"},
        "certify": {"set": "conformal", "form": "extended",
                    "expect": ("minimally superintegrable,superintegrable,"
                               "maximally superintegrable")},
        "kg": {"solution": "conformal", "h": "5e-3"},
    },
    "truncated": _linear_z_certify("truncated", "not certified"),
    "kgcontrol": {
        "background": {"family": "constant"},
        "kg": {"solution": "offshell", "h": "5e-3"},
    },
}


def preset_config(name: str) -> dict:
    """A fresh copy of the raw config of the preset name."""
    try:
        return {sec: dict(kv) for sec, kv in _PRESETS[name].items()}
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
    init, form, s0 = cfg["initial"], cfg["run"]["form"], cfg["run"]["tstart"]
    if form == "instant":
        return instant_state(init["t"], init["x"], _get(cfg, "initial", "p"))
    if form in ("front", "extended"):
        xplus, xminus, xperp = _get(cfg, "initial", "xplus"), init["xminus"], init["xperp"]
        pminus, pperp = _get(cfg, "initial", "pminus"), init["pperp"]
    if form == "front":
        return front_state(xplus, xminus, xperp, pminus, pperp)
    if form == "extended":
        if init["pplus"] == "shell":
            return extended_state_on_shell(bg, xplus, xminus, xperp, pminus,
                                           pperp, s=s0)
        return extended_state(xplus, xminus, xperp, init["pplus"], pminus, pperp, s=s0)
    if form == "covariant":
        x = FourVector(*_get(cfg, "initial", "x4"))
        u = FourVector(*_get(cfg, "initial", "xdot"))
        try:
            return covariant_state(x, u, tau=s0)
        except ValueError as exc:
            raise ConfigError(f"[initial] xdot: {exc}") from None
    raise ConfigError(f"unknown form {form!r}")


_ANY_FORM = tuple(FORMS)


def _check_form(kind: str, name: str, forms: tuple, form: str) -> None:
    if form not in forms:
        raise ConfigError(f"{kind} {name!r} is written for the "
                          f"{' or '.join(forms)} form, not {form!r}")


def _quantity_set(name: str, extras, bg, form: str) -> tuple:
    """(quantities, gated labels) of a named quantity set and its extras.
    Each set and each extra names the forms its quantities are written for
    (generator charges read the on-shell four-momentum, so they serve every
    form); a form outside them is a ConfigError."""
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
    known_extras = {
        "p3": (_ANY_FORM, conformal.momentum_p3_quantity),
        "Lz": (("instant",), conformal.angular_momentum_z_quantity),
        "BLz": (("instant",), lambda: conformal.angular_momentum_z_quantity(
            _family_param(bg, "linear_z", "B", "extra quantity 'BLz'"))),
    }
    out = build()
    gated = [q.label for q in out]
    for extra in extras:
        if extra not in known_extras:
            raise ConfigError(f"unknown extra quantity {extra!r}")
        forms, build = known_extras[extra]
        _check_form("extra quantity", extra, forms, form)
        out.append(build())
    return out, gated


def _evolve_options(cfg) -> EvolveOptions:
    """EvolveOptions from the [run] keys of its fields."""
    return EvolveOptions(**{name: cfg["run"][name] for name in _OPTIONS})


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
    span = (cfg["run"]["tstart"], _get(cfg, "run", "tend"))
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
    try:
        check_flow(state.form, opts.nonrelativistic)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    monitors = _quantity_set(run_cfg["monitor"]["set"], run_cfg["monitor"]["extra"],
                             bg, state.form)
    return (bg, state, span, opts) + monitors


def _run_one(setup, index: int, fmt: str, tol_rel: float) -> tuple:
    bg, state, span, opts, quantities, gated = setup
    traj = evolve(state, bg, span, opts, monitors=quantities)
    name = f"run_{index:03d}.{fmt}"
    # only the declared conserved set is gated; extras are diagnostics.
    # np.max keeps a NaN drift where max would skip it, and no comparison
    # passes a NaN, so a non-finite gated drift fails the run
    worst = np.max([v for k, v in traj.drifts.items() if k in gated], initial=0.0)
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


def _m2_above(bg, x: FourVector) -> list:
    """Whether m^2 > 0.05 at each point of the batch x; a negative or
    singular m^2 rejects its point."""
    def above(*c):
        try:
            return bg.field_at(*c)[0] > 0.05
        except (RealityError, SingularityError):
            return False
    return [above(*c) for c in zip(x.t.tolist(), x.x.tolist(), x.y.tolist(),
                                   x.z.tolist())]


# (random_states' box, keep(bg, x)) per family, where not the default (its
# own box, m^2 > 0.05).  The dilation field m^2 = csq/x.x has no scale but
# csq, so it keeps positions by x.x at every csq: inside the forward light
# cone, where it is real, and x.x > 0.1 clear of the cone, near which m^2
# and the charges' brackets grow without bound.  Its instant box lies
# inside (x.x >= 2.76), so every instant draw is kept.
_CERTIFY_SAMPLES = {"dilation": ({"t_range": (1.8, 2.6), "q_range": (-0.4, 0.4)},
                                 lambda bg, x: (x.norm2() > 0.1) & (x.t > 0))}


def _certify_states(bg, form: str, count: int, rng) -> PhaseSpaceState:
    """The sampled states of a certify job, as one batch state: those whose
    position the family's keep rule accepts (see _CERTIFY_SAMPLES)."""
    box, keep = _CERTIFY_SAMPLES.get(bg.params.get("family"), ({}, _m2_above))
    try:
        states = integrability.random_states(
            form, count, rng, **box, accept=lambda st: keep(bg, st.position()))
    except ValueError as exc:
        raise ConfigError(f"cannot sample {count} {form} states on {bg.label}: "
                          f"{exc}") from None
    if form == "extended":
        # involution of the charge algebra is an on-shell statement: put the
        # sampled p+ on the mass shell instead of leaving it arbitrary
        states = states.replace(p=np.vstack([hamiltonian_front(states, bg),
                                             states.p[1:]]))
    return states


def cmd_certify(cfg, tol_abs: float, tol_rel: float, seed: int) -> tuple:
    bg = _background(cfg)
    form, count = cfg["certify"]["form"], cfg["certify"]["count"]
    if form not in FORMS or not FORMS[form].canonical:
        raise ConfigError(f"[certify] form = {form!r} has no canonical bracket")
    quantities, _ = _quantity_set(_get(cfg, "certify", "set"), [], bg, form)
    if not quantities:
        raise ConfigError("[certify] set names no quantities")
    rng = np.random.default_rng(seed)
    states = _certify_states(bg, form, count, rng)
    cert = integrability.classify(quantities, states, bg,
                                  rank_tol=tol_rel, bracket_tol=tol_abs)
    lines = [f"rank {cert.rank} of {len(quantities)} quantities on "
             f"{count} states; involutive subset: "
             f"{', '.join(cert.involutive_subset) or 'none'}",
             f"classification: {cert.label}"]
    expect = cfg["certify"]["expect"]
    ok = cert.label in expect if expect else cert.label != "not certified"
    return [("certification.json", write_json, cert.to_dict(), False)], lines, ok


def _conformal_mode(kgverify, kg, bg):
    if bg.profile is None:
        raise ConfigError("conformal solution needs an inverse-square "
                          "background family")
    return kgverify.make_conformal_solution(kg["qperp"], kg["q3"], bg)


# per solution: the bounds of its four uniform draws and the chart that makes
# them a point (box), the defaults of its mode constants, and its mode,
# mode(kgverify, kg, bg) -> the Wavefunction of the [kg] constants kg on bg;
# kgverify is passed in, so that it loads with the kg command alone
_KG_SOLUTIONS = {
    "planewave": {"box": ((-1.0,) * 4, (1.0,) * 4, FourVector),
                  "qperp": [0.3, -0.2], "qminus": 0.7,
                  "mode": lambda kgverify, kg, bg: kgverify.make_planewave_solution(
                      kg["qperp"], kg["qminus"], _xplus_wave(bg, "the planewave mode"))},
    "conformal": {"box": ((0.7, -0.5, -0.4, -0.4), (1.6, 0.5, 0.4, 0.4), from_lightfront),
                  "qperp": [0.25, -0.15], "q3": 0.8, "mode": _conformal_mode},
    "dilation": {"box": ((1.8, -0.4, -0.4, -0.4), (2.6, 0.4, 0.4, 0.4), FourVector),
                 "qperp": [0.4, 0.1], "q3": 0.6, "c1": 1.0, "c2": 0.0,
                 "mode": lambda kgverify, kg, bg: kgverify.make_dilation_solution(
                     kg["qperp"], kg["q3"],
                     _family_param(bg, "dilation", "csq", "the dilation mode"),
                     kg["c1"], kg["c2"])},
    "offshell": {"box": ((-1.0,) * 4, (1.0,) * 4, FourVector), "p": [1.3, 0.2, -0.1, 0.3],
                 "mode": lambda kgverify, kg, bg: kgverify.offshell_control(kg["p"])}}


def cmd_kg(cfg, seed: int) -> tuple:
    from . import kgverify   # kg only
    npts, h = cfg["kg"]["points"], cfg["kg"]["h"]
    sol = _get(cfg, "kg", "solution")
    bg = _background(cfg)
    if sol not in _KG_SOLUTIONS:
        raise ConfigError(f"unknown kg solution {sol!r}")
    kg = _KG_SOLUTIONS[sol] | cfg["kg"]
    try:
        phi = kg["mode"](kgverify, kg, bg)
    except ValueError as exc:       # a mode constructor refusing its constants
        raise ConfigError(f"kg solution: {exc}") from None
    # the first npts drawn points that the reads' margin check accepts
    lo, hi, chart = kg["box"]
    try:
        drawn = integrability.draw_rows(
            np.random.default_rng(seed), lo, hi, npts,
            lambda rows: kgverify.clear_points(phi, bg, chart(*rows.T), h))
    except ValueError as exc:
        raise ConfigError(f"cannot draw {npts} points whose 2h stencils stay in the "
                          f"domain of {phi.label!r} and meet no switch surface of "
                          f"{bg.label!r}: {exc}") from None
    # one read of phi on {0, +-h/2, +-h} per axis serves the residuals and,
    # through its first 10 rows, the eigen-defects, each at h and at h/2
    read = kgverify.read_stencils(phi, bg, chart(*drawn.T), h / 2.0, 2)
    rows = kgverify.residual_convergence(bg, read, h)
    ratios = [r[4] for r in rows]
    ok = all(3.5 <= r <= 4.5 for r in ratios)

    head = kgverify.first_rows(read, 10)
    defects = []
    for gen, Q, label in phi.params.get("eigen", []):
        d1, d2 = (kgverify.eigen_defect(gen, Q, head, s) for s in (h, h / 2.0))
        defects.append({"generator": label, "Q": float(Q),
                        "defect_h": float(d1), "defect_h2": float(d2)})
    summary = {"command": "kg", "solution": phi.label, "seed": seed,
               "points": npts, "h": h,
               "ratio_min": float(min(ratios)), "ratio_max": float(max(ratios)),
               "eigen_defects": defects, "pass": bool(ok)}
    files = [("convergence.csv", kgverify.write_convergence_csv, rows),
             ("kg_summary.json", write_json, summary, True)]
    return files, [f"{phi.label}: {npts} points, h-halving ratios in "
                   f"[{min(ratios):.2f}, {max(ratios):.2f}] -> "
                   f"{'PASS' if ok else 'FAIL'}"], ok


def cmd_orbit(cfg, fmt: str) -> tuple:
    from . import analytic   # orbit only
    bg = _background(cfg)
    p, fam = bg.params, bg.params.get("family")
    state = _initial_state(cfg, bg)
    w0, w1 = _span(cfg, state)

    def switched_orbit():
        # the closed form follows f(u)/(x+)^2 alone, not the constant m0^2
        # before the switch-on
        if state.time < p["L"]:
            raise ConfigError(f"the {fam} orbit starts at x+ >= L = {p['L']:g}, "
                              f"not at x+ = {state.time:g}")
        return analytic.conformal_orbit(bg, state)

    # family -> (forms the closed form starts from, build)
    orbits = {
        "linear_z": (("instant",), lambda: analytic.spacelike_orbit(bg, state)),
        "constant": (("instant",), lambda: analytic.timelike_orbit(
            lambda t: 0.0, state, p["m0sq"])),
        "plane_wave": (("front", "extended"), lambda: analytic.planewave_orbit(
            _xplus_wave(bg, "the plane-wave orbit"), state)),
        "special_conformal_switched": (("front",), switched_orbit),
        "special_conformal_gaussian": (
            ("front",), lambda: analytic.conformal_orbit(bg, state)),
    }
    if fam not in orbits:
        raise ConfigError(f"no closed form for family {fam!r}")
    forms, build = orbits[fam]
    _check_form("the closed-form orbit of", fam, forms, state.form)
    try:
        orb = build()
    except ValueError as exc:
        raise ConfigError(f"the {fam} orbit: {exc}") from None
    ws = np.linspace(w0, w1, cfg["run"]["samples"])
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
