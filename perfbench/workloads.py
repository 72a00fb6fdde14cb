"""The four benchmark workloads.

Each workload is built from a seed (its set-up: specs, channels, channel
JSON files), then runs operations 0, 1, 2, ... one after another.  ``op`` is
the timed call into the library; ``capture`` keeps what the checks need and
runs outside the timing; ``check`` and ``digest_text`` run after the timed
loop, with tracing removed.  Every operation's inputs depend only on the
seed and the operation index, so the first ``digest_ops`` operations, which
every run performs, give the same quality digest on every run of the same
code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from latticealign import channel, cli, gaussint, harness, rates, solver

K, M, N = 3, 2, 2
SWEEP_METHODS = ("lattice", "distributive_ia", "conventional_ia", "tdma", "two_stage_ml")
SWEEP_SNR_DB = 11.5
EPS = 0.1


def _seed(seed: int, snr_db: float, eps: float, j: int, tag: str) -> int:
    return harness.child_seed(seed, K, snr_db, eps, j, f"perfbench-{tag}")


class _Workload:
    name = ""
    digest_ops = 1
    prebuilt = 0

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self._instances: list = []
        for j in range(self.prebuilt):
            self.instance(j)

    def instance(self, j: int):
        """Inputs of operation j, built in set-up and extended on demand."""
        while len(self._instances) <= j:
            self._instances.append(self._make(len(self._instances)))
        return self._instances[j]

    def capture(self, rec: dict) -> None:
        pass

    def goodput(self, rec: dict) -> float | None:
        return None


class Sweep(_Workload):
    """One paired trial per operation: run_experiment on the criterion-10
    grid at a single epsilon, then write_csv, as ``simulate`` does."""

    prebuilt = 256

    def __init__(self, seed: int, outdir: str, eps: float):
        self.eps = eps
        self.name = "sweep-robust" if eps > 0 else "sweep-nominal"
        self.digest_ops = 48 if eps > 0 else 96
        self.csv_path = os.path.join(outdir, f"{self.name}.csv")
        super().__init__(seed, outdir)

    def _make(self, j: int):
        return harness.ExperimentSpec(
            methods=SWEEP_METHODS, K_grid=(K,), snr_db_grid=(SWEEP_SNR_DB,),
            epsilon_grid=(self.eps,), M=M, N=N, L=1, trials=1,
            seed=_seed(self.seed, SWEEP_SNR_DB, self.eps, j, "sweep"),
        )

    def op(self, j: int) -> dict:
        rows = harness.run_experiment(self.instance(j))
        harness.write_csv(rows, self.csv_path)
        lat = next(r for r in rows if r.method == "lattice")
        return {"rows": rows, "design_ms": lat.wall_ms, "r_min": lat.r_min_design}

    def capture(self, rec: dict) -> None:
        with open(self.csv_path) as fh:
            rec["csv"] = fh.read()

    def check(self, rec: dict) -> list[str]:
        bad = []
        for r in rec["rows"]:
            for name in ("worst_goodput", "sum_goodput", "r_min_design"):
                if not math.isfinite(getattr(r, name)):
                    bad.append(f"{r.method}: {name} is not finite")
        lines = rec["csv"].splitlines()
        header = lines[0].split(",") if lines else []
        if len(lines) != 1 + len(SWEEP_METHODS):
            bad.append(f"CSV has {len(lines) - 1} rows, expected {len(SWEEP_METHODS)}")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(header) or any(c == "" for c in cells):
                bad.append(f"incomplete CSV row: {line!r}")
        return bad

    def goodput(self, rec: dict) -> float:
        return next(r.worst_goodput for r in rec["rows"] if r.method == "lattice")

    def digest_text(self, recs: list[dict]) -> str:
        path = os.path.join(self.outdir, f"{self.name}-digest.csv")
        harness.write_csv([r for rec in recs for r in rec["rows"]], path)
        with open(path) as fh:
            return fh.read()


class Certify(_Workload):
    """One robust design per operation (multi_start, n_starts=2), then DRAWS
    sampled true channels inside the error ball, each checked with
    rate_report as in criterion 4."""

    name = "certify"
    digest_ops = 36
    prebuilt = 128
    DRAWS = 1000
    SNR_DB = 10.0

    def _make(self, j: int):
        cfg = channel.SystemConfig(
            K=K, M=M, N=N, L=1, P=channel.snr_db_to_power(self.SNR_DB), epsilon=EPS,
            seed=_seed(self.seed, self.SNR_DB, EPS, j, "certify-channel"),
        )
        ch = channel.perturb_csi(
            channel.generate_channels(cfg), EPS,
            _seed(self.seed, self.SNR_DB, EPS, j, "certify-perturb"),
        )
        return cfg, ch

    def op(self, j: int) -> dict:
        cfg, ch = self.instance(j)
        t0 = time.perf_counter()
        st, report, _ = solver.multi_start(ch, cfg, n_starts=2)
        t1 = time.perf_counter()
        designed = report.r_min
        rng = np.random.default_rng(_seed(self.seed, self.SNR_DB, EPS, j, "certify-draws"))
        worst, worst_H, outages = math.inf, None, 0
        for _ in range(self.DRAWS):
            H_true = ch.Hhat.copy()
            for k in range(K):
                for i in range(K):
                    H_true[k, i] -= channel.sample_delta_in_ball(rng, (N, M), EPS)
            r_true = rates.rate_report(
                channel.ChannelSet(H=H_true, Hhat=H_true, epsilon=0.0), st).r_min
            if r_true < worst:
                worst, worst_H = r_true, H_true
            if designed > r_true + 1e-12:
                outages += 1
        t2 = time.perf_counter()
        return {
            "st": st, "ch": ch, "r_min": designed, "worst": worst, "worst_H": worst_H,
            "outages": outages, "design_ms": (t1 - t0) * 1e3, "draws": self.DRAWS,
            "draw_s": t2 - t1,
        }

    def check(self, rec: dict) -> list[str]:
        bad = []
        if rec["outages"]:
            bad.append(f"{rec['outages']} sampled channels fall below the design rate")
        if not rec["r_min"] > 0:
            bad.append(f"design rate {rec['r_min']} is not positive")
        rec["goodput"] = rates.goodput(
            channel.ChannelSet(H=rec["worst_H"], Hhat=rec["ch"].Hhat, epsilon=EPS),
            rec["st"], rec["r_min"])
        if rec["goodput"] != rec["r_min"]:
            bad.append(f"goodput {rec['goodput']} on the worst sampled channel "
                       f"differs from the design rate {rec['r_min']}")
        return bad

    def goodput(self, rec: dict) -> float:
        return rec["goodput"]

    def digest_text(self, recs: list[dict]) -> str:
        lines = []
        for rec in recs:
            st = rec["st"]
            lines.append(json.dumps({
                "r_min": rec["r_min"],
                "worst_sampled": rec["worst"],
                "a": [[z.real, z.imag] for z in st.a.reshape(-1)],
                "c": [[z.real, z.imag] for z in st.c.reshape(-1)],
            }, sort_keys=True))
        return "\n".join(lines) + "\n"


class SolveLarge(_Workload):
    """``latticealign solve`` through cli.main on saved channel JSON at
    K=3, M=N=4, L=2, epsilon=0.1, two starts (canonical and ia_seed)."""

    name = "solve-large"
    digest_ops = 32
    prebuilt = 64
    LM, LN, LL = 4, 4, 2
    SNR_DB = 5.0
    GAMMA = 1.0

    def _make(self, j: int) -> str:
        cfg = channel.SystemConfig(
            K=K, M=self.LM, N=self.LN, L=self.LL, P=channel.snr_db_to_power(self.SNR_DB),
            epsilon=EPS, seed=_seed(self.seed, self.SNR_DB, EPS, j, "solve-channel"),
        )
        ch = channel.perturb_csi(
            channel.generate_channels(cfg), EPS,
            _seed(self.seed, self.SNR_DB, EPS, j, "solve-perturb"),
        )
        path = os.path.join(self.outdir, f"solve-large-channel-{j}.json")
        with open(path, "w") as fh:
            fh.write(channel.channelset_to_json(ch))
        return path

    def op(self, j: int) -> dict:
        argv = ["solve", "--channel", self.instance(j), "--streams", str(self.LL),
                "--snr-db", str(self.SNR_DB), "--gamma", str(self.GAMMA)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        t1 = time.perf_counter()
        return {"code": code, "stdout": buf.getvalue(), "design_ms": (t1 - t0) * 1e3}

    def _parsed(self, rec: dict) -> dict:
        if "out" not in rec:
            rec["out"] = json.loads(rec["stdout"])
            rec["r_min"] = float(rec["out"]["r_min"])
        return rec["out"]

    def check(self, rec: dict) -> list[str]:
        if rec["code"] != 0:
            return [f"exit code {rec['code']}"]
        try:
            out = self._parsed(rec)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"solve output does not parse: {exc}"]
        bad = []
        for k, p in enumerate(out["per_user_power"]):
            if p > self.GAMMA + 1e-9:
                bad.append(f"user {k} power {p} exceeds the budget {self.GAMMA}")
        L = self.LL
        for k, per_user in enumerate(out["coefficients"]):
            for l, entries in enumerate(per_user):
                vec = gaussint.CoeffVector(
                    entries=tuple(gaussint.GaussianInt(re, im) for re, im in entries),
                    own_index=k * L + l,
                )
                if not gaussint.is_divisor_free(vec):
                    bad.append(f"coefficient vector ({k},{l}) has a common divisor")
        return bad

    def digest_text(self, recs: list[dict]) -> str:
        return "".join(
            json.dumps(self._parsed(rec), sort_keys=True, separators=(",", ":")) + "\n"
            for rec in recs
        )


def make(name: str, seed: int, outdir: str) -> _Workload:
    if name == "sweep-robust":
        return Sweep(seed, outdir, EPS)
    if name == "sweep-nominal":
        return Sweep(seed, outdir, 0.0)
    if name == "certify":
        return Certify(seed, outdir)
    if name == "solve-large":
        return SolveLarge(seed, outdir)
    raise ValueError(f"unknown workload {name!r}")
