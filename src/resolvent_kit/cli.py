"""Batch command-line front end.

Usage:

    resolvent-kit <command> [--config FILE] [overrides...]
    resolvent-kit run CONFIG [overrides...]      # command taken from the file

Commands: smatrix, resonances, bound-states, dos, resolvent, selftest;
smatrix and resonances are one run (the S(E) scan and its resonance
poles). Each run writes a CSV table (one row per grid point) and a JSON
summary with top-level keys config, results, diagnostics, version. Exit
codes: 0 success, 1 configuration or expression error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json as json_mod
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .analysis import ScanTable, bound_states, density_of_states, locate_resonances
from .basis import BasisSpec, SystemSpec, build_matrices
from .config import CHOICES, COMMANDS, FIELD_TYPES, RunConfig, build_config, file_key, parse_config_file
from .errors import ConfigError, InputError, NumericalError, ResolventKitError
from .matrix_core import gen_sym_eig
from .potential import parse_potential
from .resolvent import PartialFractions
from .scattering import ScatteringCalculator


def write_csv(path: str, energies, columns: dict, energy_header: str = "E_au"):
    """Numeric CSV: header row, comma separators, 17 significant digits,
    LF line endings. Every value re-parses to the exact double written.

    Each row is one ``%.17g`` template over Python numbers, the conversion
    of ``format(x, ".17g")``; a complex column raises TypeError, and
    columns of unequal length raise ValueError."""
    names = [energy_header] + list(columns)
    arrays = [np.asarray(energies)] + [np.asarray(c) for c in columns.values()]
    row = ",".join(["%.17g"] * len(arrays))
    lines = [",".join(names)]
    lines.extend(row % values for values in zip(*(a.tolist() for a in arrays), strict=True))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, config: RunConfig, results: dict, diagnostics: dict):
    payload = {
        "config": config.as_dict(),
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json_mod.dump(payload, fh, indent=2)
        fh.write("\n")


def write_gnuplot(path: str, csv_path: str, ycolumns, title: str):
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set title '{title}'",
        "set xlabel 'E (atomic units)'",
        "plot " + ", \\\n     ".join(f"'{csv_path}' using 1:{i} with lines" for i in ycolumns),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _system_from_config(cfg: RunConfig) -> SystemSpec:
    potential = parse_potential(cfg.potential) if cfg.potential.strip() else None
    basis = BasisSpec(family=cfg.family, lam=cfg.lam, ell=cfg.ell, size=cfg.size)
    return SystemSpec(basis=basis, z_charge=cfg.z_charge, potential=potential, range_r=cfg.range_r)


def _grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.e_min, cfg.e_max, cfg.steps + 1)


def _candidate_record(c) -> dict:
    """One pole-search candidate as JSON, null where it reached no value."""
    values = {"residual": c.residual, "energy": c.pole.real, "width": c.width, "strength": c.strength}
    record = {"seed": c.seed, "steps": c.steps, **{k: v if np.isfinite(v) else None for k, v in values.items()}}
    record["status"] = c.status
    if c.error is not None:
        record["error"] = str(c.error)
    return record


def cmd_resonances(cfg: RunConfig) -> tuple:
    calc = ScatteringCalculator(_system_from_config(cfg))
    report = locate_resonances(calc, cfg.e_min, cfg.e_max, coarse_steps=cfg.steps)
    table = report.scan  # the S(E) scan over _grid(cfg)
    finite = np.isfinite(table.columns["abs_one_minus_s"])
    s_mag = np.hypot(table.columns["re_s"][finite], table.columns["im_s"][finite])
    results = {
        "points": int(table.size),
        "max_unitarity_deviation": float(np.max(np.abs(s_mag - 1.0))) if finite.any() else None,
        "resonances": [
            {"energy": p.e_peak, "width_estimate": p.width_estimate, "quality": p.quality} for p in report.peaks
        ],
    }
    diags = {
        "flagged_points": list(table.flagged),
        "eigenvalues_in_range": [
            float(e) for e in calc.eigenvalues if cfg.e_min < e < cfg.e_max
        ],
        "candidates": [_candidate_record(c) for c in report.candidates],
    }
    return table, results, diags, (2, 3, 4, 5)


def cmd_bound_states(cfg: RunConfig) -> tuple:
    system = _system_from_config(cfg)
    grid = None
    if cfg.e_min < 0:
        end = min(cfg.e_max, -1e-3)
        if cfg.e_min >= end:
            raise ConfigError(f"bound-states grid ends at min(e_max, -1e-3) = {end}; e_min={cfg.e_min} must be below it")
        grid = np.linspace(cfg.e_min, end, cfg.steps + 1)
    result = bound_states(system, grid=grid)
    scanned = result.scan.energies
    results = {
        "bound_states": [float(e) for e in result.energies],
        "scan_grid": {"e_min": float(scanned[0]), "e_max": float(scanned[-1]), "points": int(scanned.size)},
    }
    return result.scan, results, {"flagged_points": list(result.scan.flagged)}, (2,)


def cmd_dos(cfg: RunConfig) -> tuple:
    system = _system_from_config(cfg)
    table = density_of_states(
        system,
        _grid(cfg),
        method=cfg.method,
        delta=cfg.delta,
        fit_height=cfg.fit_height,
        fit_order=cfg.fit_order,
        fit_threshold=cfg.fit_threshold,
    )
    rho = table.columns["rho"]
    results = {
        "method": cfg.method,
        "total_weight": table.metadata.get("total_weight"),
        "rho_max": float(np.max(rho)),
        "rho_max_energy": float(table.energies[int(np.argmax(rho))]),
    }
    for key in ("delta", "fit_residual"):
        if key in table.metadata:
            results[key] = float(table.metadata[key])
    return table, results, {}, (2,)


def cmd_resolvent(cfg: RunConfig) -> tuple:
    n = cfg.n_index if cfg.n_index is not None else cfg.size - 1
    m = cfg.m_index if cfg.m_index is not None else cfg.size - 1
    if not (0 <= n < cfg.size and 0 <= m < cfg.size):
        raise ConfigError(f"matrix element indices ({n}, {m}) out of range for N={cfg.size}")
    mats = build_matrices(_system_from_config(cfg))
    pair = gen_sym_eig(mats.h, mats.omega)
    grid = _grid(cfg)
    values, on_pole = PartialFractions.from_pair(pair, n, m).evaluate(grid + 1j * cfg.im_z)
    flagged = np.flatnonzero(on_pole).tolist()
    table = ScanTable(
        energies=grid,
        columns={"re_g": values.real, "im_g": values.imag, "abs_g": np.abs(values)},
        flagged=tuple(flagged),
    )
    results = {
        "n_index": n,
        "m_index": m,
        "im_z": cfg.im_z,
        "poles_in_range": [float(e) for e in pair.eps if grid[0] <= e <= grid[-1]],
    }
    return table, results, {"flagged_points": flagged}, (2, 3, 4)


_SELFTEST_TOL = 1e-9


def _selftest_checks():
    rng = np.random.RandomState(7)

    def formula_equivalence():
        from .resolvent import ResolventInput, green_cofactor, green_spectral, inverse_oracle

        a = rng.randn(6, 6)
        h = 0.5 * (a + a.T)
        b = rng.randn(6, 6)
        om = b @ b.T + 6.0 * np.eye(6)
        inp = ResolventInput(h=h, omega=om, z=0.37 + 0.21j)
        inv = inverse_oracle(inp)
        worst = 0.0
        for n in range(6):
            for m in range(6):
                gs = green_spectral(inp, n, m)
                gc = green_cofactor(inp, n, m)
                worst = max(worst, abs(gs - inv[n, m]), abs(gc - inv[n, m]))
        return worst / np.max(np.abs(inv))

    def quadrature_moment():
        from .basis import gauss_quadrature

        nodes, weights = gauss_quadrature(0.0, 3)
        return abs(np.sum(weights * nodes**5) - 120.0) / 120.0

    def free_particle():
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=20))
        s, errors = ScatteringCalculator(spec).s_values(np.linspace(0.3, 4.0, 7))
        if errors:
            raise next(iter(errors.values()))
        return np.max(np.abs(1.0 - s))

    def hydrogen_ground_state():
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=2.0, ell=0, size=8), z_charge=-1.0)
        mats = build_matrices(spec)
        pair = gen_sym_eig(mats.h, mats.omega)
        return abs(pair.eps[0] + 0.5)

    def eigvec_identity():
        from .resolvent import eigvec_from_eigs_general

        a = rng.randn(6, 6)
        h = 0.5 * (a + a.T)
        _, gamma = np.linalg.eigh(h)
        return max(np.max(np.abs(eigvec_from_eigs_general(h, None, n, n) - gamma[n] ** 2)) for n in range(6))

    return [
        ("formula_equivalence", formula_equivalence),
        ("quadrature_moment", quadrature_moment),
        ("free_particle_null", free_particle),
        ("hydrogen_ground_state", hydrogen_ground_state),
        ("eigvec_from_eigenvalues", eigvec_identity),
    ]


def cmd_selftest(_cfg: RunConfig) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            deviation = float(check())
        except ResolventKitError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        status = "ok" if deviation <= _SELFTEST_TOL else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status:4s} {name}: deviation {deviation:.3e}")
    return 0 if failures == 0 else 2


_GNUPLOT_TITLES = {
    "smatrix": "scattering matrix scan",
    "resonances": "scattering matrix scan",
    "bound-states": "resolvent magnitude",
    "dos": "density of states",
    "resolvent": "resolvent element",
}

_COMMAND_IMPL = {
    "smatrix": cmd_resonances,  # the same run: the S(E) scan and the resonance poles
    "resonances": cmd_resonances,
    "bound-states": cmd_bound_states,
    "dos": cmd_dos,
    "resolvent": cmd_resolvent,
}


# every setting but the command, which is the first positional argument
_FLAG_FIELDS = [f.name for f in fields(RunConfig) if f.name != "command"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for numerical failures and 1 for bad input.
    def error(self, message):
        raise ConfigError(message)


def _build_argparser() -> _Parser:
    parser = _Parser(prog="resolvent-kit", description=__doc__, add_help=True)
    parser.add_argument("command", choices=COMMANDS + ("run",))
    parser.add_argument("config_positional", nargs="?", default=None, metavar="CONFIG",
                        help="config file (required for 'run')")
    parser.add_argument("--config", dest="config_flag", default=None, help="config file")
    for name in _FLAG_FIELDS:
        flag = "--" + file_key(name).replace("_", "-")
        parser.add_argument(flag, dest=name, type=FIELD_TYPES[name], choices=CHOICES.get(name))
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_argparser().parse_args(argv)
        config_path = args.config_flag or args.config_positional
        file_overrides = parse_config_file(config_path) if config_path else {}
        cli_overrides = {name: getattr(args, name) for name in _FLAG_FIELDS}
        if args.command == "run":
            if not config_path:
                raise ConfigError("'run' needs a config file")
        else:
            cli_overrides["command"] = args.command
        cfg = build_config(file_overrides, cli_overrides)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if cfg.command == "selftest":
        return cmd_selftest(cfg)

    try:
        table, results, diagnostics, plot_cols = _COMMAND_IMPL[cfg.command](cfg)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        kind = type(exc).__name__
        print(f"numerical error in {cfg.command} ({kind}): {exc}", file=sys.stderr)
        return 2

    write_csv(cfg.csv, table.energies, table.columns)
    write_json(cfg.json, cfg, results, diagnostics)
    if cfg.gnuplot_script:
        write_gnuplot(cfg.gnuplot_script, cfg.csv, plot_cols, _GNUPLOT_TITLES[cfg.command])
    print(f"{cfg.command}: wrote {cfg.csv} and {cfg.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
