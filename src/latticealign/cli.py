"""Command-line front end.

Three subcommands:

* ``simulate --config cfg.json``   run a method-comparison experiment and
  write a CSV of goodput rows;
* ``analyze symmetric ...``        closed-form rates for the symmetric
  integer-gain network;
* ``solve --channel ch.json``      run the robust design on one saved
  channel set and print the result as JSON.

Exit codes: 0 success, 2 configuration problem, 3 non-convergence under
--strict, 141 (128 + SIGPIPE, the status a shell reports for a process a
broken pipe ended) when standard output was closed before all of the output
was written, as when the reader of a pipe exits early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .channel import ChannelSet, SystemConfig, channelset_from_json, complex_pairs, snr_db_to_power
from .closedform import (
    SymmetricInstance,
    gain_condition,
    symmetric_filters,
    symmetric_rmin_lattice,
    symmetric_rmin_ml,
)
from .errors import ConfigurationError
from .gaussint import GaussianInt
from .harness import experiment_from_json, run_experiment, summarize, write_csv
from .solver import multi_start

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_PIPE = 141


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="latticealign",
        description="robust lattice-aligned transceiver design for interference networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a method-comparison experiment")
    sim.add_argument("--config", required=True, help="experiment spec as JSON")
    sim.add_argument("--output", default=None, help="CSV path (overrides the config)")
    sim.add_argument("--strict", action="store_true",
                     help="exit 3 if any solve failed to converge")
    sim.add_argument("--timing", action="store_true",
                     help="record wall-clock times (breaks byte-identical reruns)")

    ana = sub.add_parser("analyze", help="closed-form analysis")
    ana_sub = ana.add_subparsers(dest="analysis", required=True)
    symm = ana_sub.add_parser("symmetric", help="symmetric integer-gain network")
    symm.add_argument("--K", type=int, required=True, help="number of users")
    symm.add_argument("--h", required=True,
                      help="cross gain as a Gaussian integer, e.g. '2' or '1+1j'")
    symm.add_argument("--P", type=float, required=True, help="transmit power")

    slv = sub.add_parser("solve", help="solve one saved channel set")
    slv.add_argument("--channel", required=True, help="channel set as JSON")
    slv.add_argument("--epsilon", type=float, default=None,
                     help="override the design uncertainty radius")
    power = slv.add_mutually_exclusive_group()
    power.add_argument("--snr-db", type=float, default=10.0)
    power.add_argument("--power", type=float, default=None)
    slv.add_argument("--gamma", type=float, default=1.0)
    slv.add_argument("--streams", type=int, default=1)
    slv.add_argument("--n-starts", type=int, default=2)
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--strict", action="store_true",
                     help="exit 3 when the solve does not converge")
    return parser


def _parse_gaussian(text: str) -> GaussianInt:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {text!r} as a complex number") from exc
    if not (float(z.real).is_integer() and float(z.imag).is_integer()):
        raise ConfigurationError(f"{text!r} is not a Gaussian integer")
    return GaussianInt(int(z.real), int(z.imag))


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        spec = experiment_from_json(fh.read())
    rows = run_experiment(spec)
    out_path = args.output or spec.output_path or "results.csv"
    write_csv(rows, out_path, timing=args.timing)
    for cell in summarize(rows):
        print(
            "method={method} K={K} snr_db={snr_db} epsilon={epsilon} "
            "trials={trials} worst_goodput_mean={worst_goodput_mean:.4f} "
            "converged_frac={converged_frac:.2f}".format(**cell)
        )
    print(f"wrote {len(rows)} rows to {out_path}")
    if args.strict and any(not r.converged for r in rows):
        n_bad = sum(not r.converged for r in rows)
        print(f"error: {n_bad} solves did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_analyze_symmetric(args) -> int:
    inst = SymmetricInstance(K=args.K, h=_parse_gaussian(args.h), P=args.P)
    u, utilde, c = symmetric_filters(inst)
    payload = {
        "K": inst.K,
        "h": [inst.h.re, inst.h.im],
        "P": inst.P,
        "r_min_lattice": symmetric_rmin_lattice(inst),
        "r_min_ml": symmetric_rmin_ml(inst),
        "lattice_beats_ml_high_snr": gain_condition(inst),
        "receive_filter": [u.real, u.imag],
        "stage2_filter": [utilde.real, utilde.imag],
        "scaling": [c.real, c.imag],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_solve(args) -> int:
    with open(args.channel) as fh:
        ch = channelset_from_json(fh.read())
    if args.epsilon is not None:
        ch = ChannelSet(H=ch.H, Hhat=ch.Hhat, epsilon=args.epsilon)
    P = args.power if args.power is not None else snr_db_to_power(args.snr_db)
    cfg = SystemConfig(
        K=ch.K, M=ch.M, N=ch.N, L=args.streams,
        P=P, gamma=args.gamma, epsilon=ch.epsilon, seed=args.seed,
    )
    st, report, trace = multi_start(ch, cfg, n_starts=args.n_starts)
    payload = {
        "r_min": report.r_min,
        "converged": trace.converged,
        "coefficients": complex_pairs(st.a.reshape(cfg.K, cfg.L, -1)).astype(int).tolist(),
        "scalings": complex_pairs(st.c).tolist(),
        "per_user_power": [st.power(k) for k in range(cfg.K)],
        "report": report.payload(),
    }
    print(json.dumps(payload, indent=2))
    if args.strict and not trace.converged:
        print("error: solve did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"simulate": _cmd_simulate, "analyze": _cmd_analyze_symmetric, "solve": _cmd_solve}
    try:
        code = command[args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout left; send the unwritten rest to devnull, so
        # that the interpreter's own flush at exit has nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (OSError, ValueError) as exc:  # ConfigurationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
