"""Command line front end.

Subcommands:
  run           execute a protocol variant and report estimates + channel ledger
  attack        run an adversary strategy and report what it learned
  privacy       tabulate recovery/overlap probabilities (formula vs Monte Carlo)
  regression    inner product of a real column vs binary labels via bit-planes
  ledger-check  compare measured channel usage against the closed forms

Exit codes: 0 success, 2 bad configuration (argparse's errors too), 3
simulation size cap, 4 invariant violation (bad gate algebra, ownership
breach, or a ledger mismatch); a failure prints one `error:` line on
stderr. All JSON output is key-sorted so reruns with the same seed
are byte-identical up to the elapsed_s timing fields.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .adversary import (
    AttackStrategy,
    RedundancyRule,
    attack_biased_index,
    attack_blind_server_worst_case,
    attack_plus_probe,
    blind_client_distinguishability,
)
from .bitplane import REGRESSION_VARIANTS, regression_demo, regression_error_bound
from .experiment import (
    CapExceeded,
    ExperimentConfig,
    _json,
    check_cap,
    check_index_cap,
    derive_rng,
    max_qubits,
    privacy_table_overlap,
    privacy_table_recovery,
    read_input_file,
    records_to_csv,
    records_to_json,
    require_at_least,
    run_experiment,
)
from .ledger import VARIANTS, expected_ledger
from .oracles import CorrelationMode, random_bits
from .protocol import index_width_for
from .statevector import GateError, InvariantViolation

OVERLAP_GRID = [
    (num, d, t)
    for num in (4, 8, 16)
    for d in (num // 4, num // 2)
    for t in (2, 3)
]
RECOVERY_GRID = [(num, num // 2, c) for num in (4, 6, 8) for c in range(num // 2 + 1)]
EXIT_CODES = {CapExceeded: 3, InvariantViolation: 4, GateError: 2, OSError: 2}


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise GateError(f"--out {out}: {exc.strerror or exc}") from None


def _parse_grid(raw: str) -> list[tuple[int, int, int]]:
    """Rows like '8,2,3;16,4,2' -> [(8, 2, 3), (16, 4, 2)]."""
    rows = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(",")
        if len(fields) != 3:
            raise GateError(f"--grid row {part!r} needs three comma-separated integers")
        try:
            rows.append(tuple(int(f) for f in fields))
        except ValueError as exc:
            raise GateError(f"--grid row {part!r}: {exc}") from exc
        require_at_least("--grid N", rows[-1][0], 1)
    if not rows:
        raise GateError("empty --grid")
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # report on main's one error path, without the usage block
        raise GateError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbc",
        description="Distributed inner-product estimation on a statevector simulator.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="write output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(handler=handler)
        return p

    run_p = command("run", cmd_run, "execute one protocol variant")
    run_p.add_argument("--protocol", choices=VARIANTS, default="baseline")
    run_p.add_argument("--n", type=int, required=True, dest="num_values", metavar="N",
                       help="number of data values N")
    run_p.add_argument("--t", type=int, required=True, help="readout precision qubits")
    run_p.add_argument("--trials", type=int, default=1)
    run_p.add_argument("--mode", choices=[m.value for m in CorrelationMode],
                       default=CorrelationMode.AND.value)
    run_p.add_argument("--m", type=int, default=2, dest="num_clients", metavar="M",
                       help="clients in the multiparty cascade")
    run_p.add_argument("--redundancy-m", type=int, default=1,
                       help="slots per index for redundant support hiding")
    run_p.add_argument("--redundancy-rule", choices=[r.value for r in RedundancyRule],
                       default=RedundancyRule.HIDE_AMONG_ZEROS.value)
    run_p.add_argument("--x-file", dest="x_path", metavar="X_FILE",
                       help="file of 0/1 characters, one vector per line")
    run_p.add_argument("--y-file", dest="y_path", metavar="Y_FILE",
                       help="file of 0/1 characters, one vector per line")
    run_p.add_argument("--random-inputs", action="store_true")
    run_p.add_argument("--transcript", action="store_true", dest="include_transcript",
                       help="include the per-round channel transcript")
    run_p.add_argument("--format", choices=["json", "csv"], default="json")

    atk_p = command("attack", cmd_attack, "run an adversary strategy")
    atk_p.add_argument("--strategy", required=True,
                       choices=[s.value for s in AttackStrategy])
    atk_p.add_argument("--n", type=int, required=True)
    atk_p.add_argument("--t", type=int, required=True)
    atk_p.add_argument("--trials", type=int, default=0,
                       help="Monte Carlo executions for the summary distribution")
    atk_p.add_argument("--y-file")
    atk_p.add_argument("--random-inputs", action="store_true")
    atk_p.add_argument("--focus", type=int,
                       help="biased-index: the over-weighted basis state (default 0)")
    atk_p.add_argument("--focus-prob", type=float,
                       help="biased-index: probability mass on the focus state (default 0.9)")

    priv_p = command("privacy", cmd_privacy, "probability tables, formula vs Monte Carlo")
    priv_p.add_argument("--kind", choices=["recovery", "overlap"], required=True)
    priv_p.add_argument("--grid",
                        help="semicolon-separated rows: N,d_x,count (recovery) "
                             "or N,d_y,t (overlap)")
    priv_p.add_argument("--trials", type=int,
                        help="overlap: Monte Carlo trials per row (default 100000)")

    reg_p = command("regression", cmd_regression, "bit-plane inner product demo")
    reg_p.add_argument("--n", type=int, required=True, help="column length N")
    reg_p.add_argument("--planes", type=int, required=True, help="bit-planes K")
    reg_p.add_argument("--t", type=int, required=True)
    reg_p.add_argument("--seeds", type=int, default=20, help="independent repetitions")
    reg_p.add_argument("--variant", choices=REGRESSION_VARIANTS, default=REGRESSION_VARIANTS[0])

    led_p = command("ledger-check", cmd_ledger_check, "measured channel usage vs the closed forms")
    led_p.add_argument("--max-n", type=int, default=4, help="largest N in the sweep")
    led_p.add_argument("--max-t", type=int, default=2, help="largest t in the sweep")
    led_p.add_argument("--m", type=int, default=3, help="multiparty client count")
    return parser


def cmd_run(args) -> str:
    if args.include_transcript and args.format == "csv":
        raise GateError("--transcript needs --format json; the csv table has no transcript")
    settings = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(**dict(settings, mode=CorrelationMode(args.mode)))
    records = run_experiment(cfg)
    return records_to_csv(records) if args.format == "csv" else records_to_json(cfg, records)


def _attack_y(args) -> np.ndarray:
    if (args.y_file is not None) == args.random_inputs:
        raise GateError("attacks need one of --y-file and --random-inputs, not both")
    if args.y_file is not None:
        return read_input_file("--y-file", args.y_file, 1, args.n)[0]
    return random_bits(args.n, derive_rng(args.seed, 0))


def cmd_attack(args) -> str:
    require_at_least("--n", args.n, 1)
    require_at_least("--t", args.t, 1)
    require_at_least("--trials", args.trials, 0)
    strategy = AttackStrategy(args.strategy)
    biased = strategy is AttackStrategy.BIASED_INDEX
    # biased-index reads a focus and no y; the other strategies read a y and no focus
    unread = ({"--y-file": args.y_file is not None, "--random-inputs": args.random_inputs}
              if biased else
              {"--focus": args.focus is not None, "--focus-prob": args.focus_prob is not None})
    given = [flag for flag, is_set in unread.items() if is_set]
    if given:
        raise GateError(f"{given[0]} does not apply to --strategy {strategy.value}")
    rng = derive_rng(args.seed, 1)
    if biased:
        focus = 0 if args.focus is None else args.focus
        focus_prob = 0.9 if args.focus_prob is None else args.focus_prob
        width = index_width_for(args.n)
        if not 0 <= focus < 1 << width:
            raise GateError(f"--focus must lie in [0, {1 << width}), got {focus}")
        if not 0.0 <= focus_prob <= 1.0:
            raise GateError(f"--focus-prob must lie in [0, 1], got {focus_prob}")
        check_index_cap(width)
        trials = args.trials if args.trials > 0 else 1000
        payload = attack_biased_index(width, focus, focus_prob, rng, trials)
    else:
        y = _attack_y(args)
        check_cap("baseline", index_width_for(args.n), args.t)
        if strategy is AttackStrategy.PLUS_PROBE:
            payload = attack_plus_probe(y, args.t, rng, trials=args.trials).as_dict()
        else:
            payload = attack_blind_server_worst_case(y, args.t, rng, args.trials).as_dict()
        payload["truth"] = "".join(str(int(b)) for b in y)
    payload["carrier_distinguishability"] = blind_client_distinguishability()
    return _json(payload)


def cmd_privacy(args) -> str:
    if args.kind == "recovery":
        if args.trials is not None:  # the recovery table is exact: it draws nothing
            raise GateError("--trials does not apply to --kind recovery")
        grid = _parse_grid(args.grid) if args.grid is not None else RECOVERY_GRID
        for num, _, _ in grid:  # 2^(N - d_x) takes up to N bits, as N index cells do
            check_index_cap(index_width_for(num))
        return privacy_table_recovery(grid)
    else:
        trials = 100_000 if args.trials is None else args.trials
        require_at_least("--trials", trials, 1)
        grid = _parse_grid(args.grid) if args.grid is not None else OVERLAP_GRID
        for _, _, t in grid:
            require_at_least("--grid t", t, 1)
        for num, _, t in grid:  # each Monte Carlo trial draws N scores, one per index
            check_cap("baseline", index_width_for(num), t)
        return privacy_table_overlap(grid, derive_rng(args.seed, 2), trials)


def cmd_regression(args) -> str:
    require_at_least("--n", args.n, 1)
    require_at_least("--seeds", args.seeds, 1)
    require_at_least("--t", args.t, 1)
    require_at_least("--planes", args.planes, 1)
    if args.planes > 63:  # the column draws below need 1 << planes to fit an int64
        raise GateError(f"--planes must be at most 63, got {args.planes}")
    check_cap(args.variant, index_width_for(args.n), args.t)
    scale = 1 << args.planes
    rows = []
    hits = 0
    for s in range(args.seeds):
        rng = derive_rng(args.seed, s)
        column = rng.integers(0, scale, size=args.n) / scale
        y = random_bits(args.n, rng)
        res = regression_demo(column, y, args.t, args.planes, args.variant, rng)
        hits += int(res.within_bound)
        rows.append(
            {
                "seed_index": s,
                "value": res.value,
                "truth": res.truth,
                "abs_error": abs(res.value - res.truth),
                "within_bound": res.within_bound,
                "executions": res.num_executions,
            }
        )
    return _json({
        "variant": args.variant,
        "n": args.n,
        "planes": args.planes,
        "t": args.t,
        "error_bound": regression_error_bound(args.n, args.planes, args.t),
        "fraction_within_bound": hits / args.seeds,
        "rows": rows,
    })


def cmd_ledger_check(args) -> str:
    require_at_least("--max-n", args.max_n, 2)
    require_at_least("--max-t", args.max_t, 1)
    require_at_least("--m", args.m, 2)

    def sweep():
        for variant in VARIANTS:
            for num in range(2, args.max_n + 1):
                for t in range(1, args.max_t + 1):
                    yield ExperimentConfig(protocol=variant, num_values=num, t=t, seed=args.seed,
                                           num_clients=args.m, random_inputs=True)

    # the whole sweep is checked against the cap, in sweep order, before any row runs
    for cfg in sweep():
        check_cap(cfg.protocol, cfg.index_width, cfg.t, cfg.num_clients)
    rows = []
    for cfg in sweep():
        got = run_experiment(cfg)[0]["ledger"]
        want = expected_ledger(cfg.protocol, cfg.index_width, cfg.t, num_clients=args.m).as_dict()
        rows.append(
            {
                "variant": cfg.protocol,
                "n_values": cfg.num_values,
                "t": cfg.t,
                "expected": want,
                "measured": got,
                "match": got == want,
            }
        )
    ok = all(row["match"] for row in rows)
    text = _json({"all_match": ok, "max_qubits": max_qubits(), "rows": rows})
    if not ok:  # the table shows which rows deviate, so it is written before the exit
        _emit(text, args.out)
        raise InvariantViolation("measured channel ledger deviates from the closed forms")
    return text


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        require_at_least("--seed", args.seed, 0)  # every subcommand has one
        _emit(args.handler(args), args.out)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
