"""Experiment configs, runners and deterministic file output.

Every runner takes an ExperimentConfig parsed from JSON, derives all
randomness from the config seed with stable per-task indices, and writes
CSV (17 significant digits) or JSON.  Work is parallelized across
independent tasks with results merged in submission order, so output files
are byte-identical for any thread count.

er-sweep runs one task per network, the indices (ki, wi, m).  Member m of
block (k_mean[ki], w_d[wi]) is er_network(n, k_mean[ki], w_d[wi],
seed=_task_seed(seed, 0, ki, wi, m), d=d), priced at a0[ai] with Monte Carlo
seed _task_seed(seed, 1, ki, wi, ai, m), so it replays from the config alone.
Every (k_mean, w_d) pair and every a0 is checked before any Monte Carlo runs.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .fixpoint import ConvergenceError, FixedPointConfig, solve_claims_batch
from .gbm import GbmParams, normal_variates, sample_terminal
from .local import (_checked_firm_vol, independent_default_delta, local_delta,
                    local_fixed_point, marginal_contagion)
from .mc import (_at_draw, _chunk_size, _ordered_map, _RunningStat, _tree_merge, mc_greeks,
                 price_claims)
from .network import (FirmNetwork, _edge_probability, _read_network, er_network, load_network,
                      symmetric_network, validate_network)
from .sensitivity import SensitivityError, dxda_batch
from .symmetric import (SymmetricGreeks, SymmetricParams, symmetric_expost, symmetric_greeks,
                        symmetric_pi, symmetric_price)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_symmetric_grid",
    "run_two_firm",
    "run_er_sweep",
    "run_price",
    "run_greeks",
    "run_local_compare",
    "run_validate",
    "run_experiment",
]

KINDS = ("symmetric-grid", "two-firm", "er-sweep", "price", "greeks",
         "local-compare", "validate")


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


@contextmanager
def _config_errors(what: str):
    """Report a model constructor's ValueError as a ConfigError about `what`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _fmt(value) -> str:
    return str(value) if isinstance(value, (int, np.integer)) else f"{value:.17g}"


def write_csv(path, header: list[str], rows) -> None:
    """Write header and rows; rows may be produced lazily.

    If producing or writing them fails, the partial file is removed.
    """
    fh = open(path, "w")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _typed(value, kind: type, key: str):
    """value as kind (int, float or str); float also takes an integer, and no kind a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _grid(obj, key) -> tuple[float, ...]:
    """Accept a number, a list of numbers or {start, stop, step} (stop inclusive)."""
    if isinstance(obj, dict):
        try:
            start, stop, step = (_typed(obj[k], float, key) for k in ("start", "stop", "step"))
        except KeyError as exc:
            raise ConfigError(f"{key}: grid spec needs start/stop/step, missing {exc}") from exc
        if step <= 0 or stop < start:
            raise ConfigError(f"{key}: need step > 0 and stop >= start")
        # no value past stop, up to a 1e-9 step of rounding: 0.1..2.5 by 0.1 has 25 values
        count = int((stop - start) / step + 1e-9) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(_typed(v, float, key) for v in (obj if isinstance(obj, list) else [obj]))


@dataclass
class ExperimentConfig:
    """Union of the per-kind settings.

    from_dict accepts exactly the keys a kind's runner reads; construction,
    dataclasses.replace included, checks the ranges.
    """

    kind: str
    out: str | None = None
    seed: int = 0
    draws: int = 10_000
    threads: int = 1
    networks: int = 200
    n: int = 30
    d: float = 1.0
    r: float = 0.0
    tau: float = 1.0
    sigma: tuple[float, ...] = (0.4,)
    a0: tuple[float, ...] = ()
    w_s: tuple[float, ...] = (0.0,)
    w_d: tuple[float, ...] = (0.0,)
    k_mean: tuple[float, ...] = ()
    network: str | None = None
    a_t: tuple[float, ...] | None = None
    corr: list | None = None
    firm_vol: tuple[float, ...] | None = None
    tol: float = 1e-12
    max_iter: int = 10_000

    REQUIRED = {
        "symmetric-grid": ("a0", "w_s", "w_d", "sigma"),
        "two-firm": ("a0", "w_d", "sigma", "d"),
        "er-sweep": ("k_mean", "w_d", "a0", "sigma", "n", "networks"),
        "price": ("network", "a_t", "sigma"),
        "greeks": ("network", "a_t", "sigma"),
        "local-compare": ("network", "a_t", "sigma", "firm_vol"),
        "validate": ("network",),
    }
    # the optional keys each kind's runner reads; any other key is a config error
    OPTIONAL = {
        "symmetric-grid": ("out", "d", "r", "tau"),
        "two-firm": ("out", "seed", "draws", "r", "tau", "tol", "max_iter"),
        "er-sweep": ("out", "seed", "draws", "threads", "d", "r", "tau", "tol", "max_iter"),
        "price": ("out", "seed", "draws", "threads", "r", "tau", "corr", "tol", "max_iter"),
        "greeks": ("out", "seed", "draws", "threads", "r", "tau", "corr", "tol", "max_iter"),
        "local-compare": ("out", "seed", "draws", "r", "tau", "corr", "tol", "max_iter"),
        "validate": ("out",),
    }
    # keys that take a number, a list or a start/stop/step grid
    GRID = ("sigma", "a0", "w_s", "w_d", "k_mean", "a_t", "firm_vol")
    # grid keys that these kinds read as one value
    SINGLE = {"two-firm": ("a0", "w_d", "sigma"), "er-sweep": ("sigma",)}

    def __post_init__(self):
        for key in (*self.GRID, "d", "r", "tau", "tol"):
            # unset keys are None or empty
            if not np.all(np.isfinite(getattr(self, key) or ())):
                raise ConfigError(f"{key} must be finite")
        with _config_errors("fixed-point settings"):
            self.fixed_point_config()
        if self.draws < 2:
            raise ConfigError("draws must be at least 2")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not 0 <= self.seed < 2**128:
            raise ConfigError("seed must lie in [0, 2**128)")
        if self.networks < 1:
            raise ConfigError("networks must be at least 1")
        for key in self.SINGLE.get(self.kind, ()):
            if len(getattr(self, key)) != 1:
                raise ConfigError(f"{self.kind}: {key} takes exactly one value")
        for key in self.REQUIRED.get(self.kind, ()):
            if key in self.GRID and not getattr(self, key):
                raise ConfigError(f"{key}: empty grid")

    @classmethod
    def from_dict(cls, obj: dict, kind: str | None = None) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        obj = dict(obj)
        cfg_kind = obj.pop("kind", kind)
        if cfg_kind is None:
            raise ConfigError("config needs a 'kind'")
        if kind is not None and cfg_kind != kind:
            raise ConfigError(f"config kind {cfg_kind!r} does not match requested {kind!r}")
        if cfg_kind not in KINDS:
            raise ConfigError(f"unknown kind {cfg_kind!r}; expected one of {KINDS}")

        missing = [key for key in cls.REQUIRED[cfg_kind] if key not in obj]
        if missing:
            raise ConfigError(f"{cfg_kind}: missing required keys {missing}")
        reads = cls.REQUIRED[cfg_kind] + cls.OPTIONAL[cfg_kind]
        unread = [key for key in obj if key not in reads]
        if unread:
            raise ConfigError(f"{cfg_kind}: unknown config keys {unread}; it reads {list(reads)}")

        kwargs = {"kind": cfg_kind}
        simple = {"out": str, "network": str, "seed": int, "draws": int,
                  "threads": int, "networks": int, "n": int, "d": float,
                  "r": float, "tau": float, "tol": float, "max_iter": int}
        try:
            for key, value in obj.items():
                if key in cls.GRID:
                    kwargs[key] = _grid(value, key)
                elif key == "corr":
                    kwargs[key] = value
                else:
                    kwargs[key] = _typed(value, simple[key], key)
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path, kind: str | None = None) -> "ExperimentConfig":
        try:
            obj = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(obj, kind=kind)

    def fixed_point_config(self) -> FixedPointConfig:
        return FixedPointConfig(tol=self.tol, max_iter=self.max_iter)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _clock(seconds: float) -> str:
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


def _task_seed(base: int, *tags: int) -> int:
    seq = np.random.SeedSequence(entropy=base, spawn_key=tuple(tags))
    return int(seq.generate_state(1, np.uint64)[0])


def _gbm_from_config(cfg: ExperimentConfig, n: int, a_t) -> GbmParams:
    # n firms at spots a_t with cfg's sigma, r, tau and corr; a single a_t or
    # sigma applies to every firm
    with _config_errors("asset model"):
        for key, values in (("a_t", a_t), ("sigma", cfg.sigma)):
            if len(values) not in (1, n):
                raise ValueError(f"{key}: expected 1 or {n} values, got {len(values)}")
        a_t, sigma = (np.broadcast_to(v, (n,)) for v in (a_t, cfg.sigma))
        corr = np.eye(n) if cfg.corr is None else np.asarray(cfg.corr, dtype=float)
        return GbmParams(a_t=a_t, sigma=sigma, r=cfg.r, tau=cfg.tau, corr=corr)


def _solved_chunks(cfg: ExperimentConfig, net: FirmNetwork, gbm: GbmParams):
    """(start, a_T, solution) per Monte Carlo chunk of the cfg.draws draws, in order."""
    size = _chunk_size(net.n)
    for start in range(0, cfg.draws, size):
        z = normal_variates(cfg.seed, min(size, cfg.draws - start), net.n, start=start)
        a_T = sample_terminal(gbm, z)
        try:
            sol = solve_claims_batch(net, a_T, cfg.fixed_point_config())
        except ConvergenceError as exc:
            raise _at_draw(exc, start) from exc
        yield start, a_T, sol


# ---------------------------------------------------------------------------
# closed-form symmetric grid

SYMMETRIC_GRID_HEADER = [
    "a0", "w_s", "w_d", "sigma", "d", "r", "tau",
    "s_star", "r_star", "xi",
    "s_t", "r_t", *(f.name for f in fields(SymmetricGreeks)), "pi",
]


def run_symmetric_grid(cfg: ExperimentConfig, out=None) -> list[list]:
    """Closed-form prices and Greeks over the (a0, w_s, w_d, sigma) grid."""
    rows = []
    for a0, w_s, w_d, sigma in product(cfg.a0, cfg.w_s, cfg.w_d, cfg.sigma):
        with _config_errors("symmetric model"):
            p = SymmetricParams(w_s=w_s, w_d=w_d, d=cfg.d, a_t=a0, sigma=sigma,
                                r=cfg.r, tau=cfg.tau)
        s_star, r_star, xi = symmetric_expost(a0, p)
        s_t, r_t = symmetric_price(p)
        rows.append([a0, w_s, w_d, sigma, cfg.d, cfg.r, cfg.tau,
                     s_star, r_star, xi, s_t, r_t,
                     *astuple(symmetric_greeks(p)), symmetric_pi(p)])
    if out is not None:
        write_csv(out, SYMMETRIC_GRID_HEADER, rows)
    return rows


# ---------------------------------------------------------------------------
# two-firm mutual debt experiment

TWO_FIRM_HEADER = ["draw", "seed", "a1_T", "a2_T", "v1", "v2", "xi1", "xi2"]


def run_two_firm(cfg: ExperimentConfig, out=None) -> list[list] | None:
    """Per-draw firm values for two firms with mutual debt holdings.

    Assets are independent; any correlation between realized firm values is
    generated by the cross-holdings alone.  With out, the rows stream to the
    CSV one chunk at a time and None is returned; without, the list of rows.
    """
    with _config_errors("network"):
        net = symmetric_network(2, 0.0, cfg.w_d[0], cfg.d)
    gbm = _gbm_from_config(cfg, 2, cfg.a0)
    rows = ([start + i, cfg.seed, *a_T[i], *sol.v[i], *map(int, sol.xi[i])]
            for start, a_T, sol in _solved_chunks(cfg, net, gbm) for i in range(len(a_T)))
    if out is None:
        return list(rows)
    write_csv(out, TWO_FIRM_HEADER, rows)
    return None


# ---------------------------------------------------------------------------
# random-network contagion sweep

ER_SWEEP_HEADER = [
    "k_mean", "w_d", "a0", "sigma", "d", "r", "tau", "n", "networks", "draws",
    "seed", "s_price", "r_price", "v_price", "capital_ratio", "asset_ratio",
    "default_prob",
    "delta_s_hat", "delta_r_hat", "delta_total_hat",
    "vega_s_hat", "vega_r_hat", "vega_total_hat",
    "theta_s_hat", "theta_r_hat", "theta_total_hat",
    "rho_s_hat", "rho_r_hat", "rho_total_hat",
    "pi_hat", "boundary_hits",
]


def _member_stats(task, cfg, gbms):
    """Member m of block (ki, wi) at every a0: an (A, 12) array and A boundary hits.

    Each row is (s_price, r_price, default_prob, delta_s, delta_r, vega_s,
    vega_r, theta_s, theta_r, rho_s, rho_r, pi), each a firm average.
    """
    ki, wi, m = task
    k_mean, w_d = cfg.k_mean[ki], cfg.w_d[wi]
    with _config_errors("network"):
        net = er_network(cfg.n, k_mean, w_d, seed=_task_seed(cfg.seed, 0, ki, wi, m), d=cfg.d)
    # one portfolio per block, the firm average of equity and of debt: the row
    # needs only these two rows of dx*/da, one transposed solve per pattern
    weights = np.kron(np.eye(2), np.full((1, net.n), 1.0 / net.n))
    stats, hits = [], []
    for ai, (a0, gbm) in enumerate(zip(cfg.a0, gbms)):
        try:
            rep = mc_greeks(net, gbm, cfg.draws, _task_seed(cfg.seed, 1, ki, wi, ai, m),
                            cfg=cfg.fixed_point_config(), weights=weights)
        except (ConvergenceError, SensitivityError) as exc:
            exc.args = (f"cell k_mean={k_mean:g} w_d={w_d:g} a0={a0:g}, member {m}: {exc}",)
            raise
        stats.append([*rep.price, rep.default_prob.mean(), *rep.delta.sum(axis=1),
                      *rep.vega.sum(axis=1), *rep.theta, *rep.rho, rep.pi.sum()])
        hits.append(rep.boundary_hits)
    return np.array(stats), hits


def run_er_sweep(cfg: ExperimentConfig, out=None) -> list[list]:
    """Ensemble-averaged prices and Greeks over (k_mean, w_d, a0) cells.

    Firm-level quantities are averaged over firms, then over ensemble members.
    """
    gbms = [_gbm_from_config(cfg, cfg.n, (a0,)) for a0 in cfg.a0]
    with _config_errors("network"):
        for k_mean, w_d in product(cfg.k_mean, cfg.w_d):
            _edge_probability(cfg.n, k_mean, w_d)
    member = partial(_member_stats, cfg=cfg, gbms=gbms)
    rows = []
    total = len(cfg.k_mean) * len(cfg.w_d) * len(cfg.a0)
    start = time.perf_counter()
    for (ki, k_mean), (wi, w_d) in product(enumerate(cfg.k_mean), enumerate(cfg.w_d)):
        results = _ordered_map(member, [(ki, wi, m) for m in range(cfg.networks)], cfg.threads)
        # (A, 12, M): each statistic's mean along a contiguous member axis is
        # numpy's pairwise sum, as over a 1-D list of members
        means = np.stack([stats for stats, _ in results], axis=-1).mean(axis=2).tolist()
        hits = np.sum([member_hits for _, member_hits in results], axis=0).tolist()
        for a0, mean, cell_hits in zip(cfg.a0, means, hits):
            s_price, r_price, default_prob, *greeks, pi = mean
            v_price = s_price + r_price
            row = [k_mean, w_d, a0, cfg.sigma[0], cfg.d, cfg.r, cfg.tau, cfg.n,
                   cfg.networks, cfg.draws, cfg.seed, s_price, r_price, v_price,
                   s_price / v_price, a0 / v_price, default_prob]
            # delta, vega, theta and rho: equity, debt and their total
            for equity, debt in zip(greeks[::2], greeks[1::2]):
                row += [equity, debt, equity + debt]
            rows.append(row + [pi, cell_hits])
        elapsed = time.perf_counter() - start
        eta = elapsed * (total - len(rows)) / len(rows)
        _progress(f"er-sweep: k_mean={k_mean:g} w_d={w_d:g} done "
                  f"({len(rows)}/{total} rows, elapsed {_clock(elapsed)}, "
                  f"ETA {_clock(eta)})")
    if out is not None:
        write_csv(out, ER_SWEEP_HEADER, rows)
    return rows


# ---------------------------------------------------------------------------
# pricing and Greeks for a network from file

def _load_net(cfg: ExperimentConfig, load=load_network):
    """load(cfg.network), with a file it cannot read or accept as a ConfigError."""
    try:
        return load(cfg.network)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load network {cfg.network}: {exc}") from exc


def _run_estimate(estimate, cfg: ExperimentConfig, out) -> dict:
    net = _load_net(cfg)
    payload = estimate(net, _gbm_from_config(cfg, net.n, cfg.a_t), cfg.draws, cfg.seed,
                       cfg=cfg.fixed_point_config(), threads=cfg.threads).to_dict()
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def run_price(cfg: ExperimentConfig, out=None) -> dict:
    return _run_estimate(price_claims, cfg, out)


def run_greeks(cfg: ExperimentConfig, out=None) -> dict:
    return _run_estimate(mc_greeks, cfg, out)


# ---------------------------------------------------------------------------
# exact vs local approximation comparison

LOCAL_COMPARE_HEADER = [
    "i", "j", "m_d", "pd_i", "pd_j",
    "exact_drda", "exact_se", "independent_drda", "contagion_amplification",
    "local_equity_delta",
]


def run_local_compare(cfg: ExperimentConfig, out=None) -> list[list]:
    """Exact Monte Carlo debt sensitivities against local approximations.

    exact_drda is E[dr*/da] entrywise; independent_drda its
    independent-marginal approximation at the Monte Carlo default
    probabilities; contagion_amplification the loss-propagation matrix; and
    local_equity_delta the put-adjusted equity response.
    """
    net = _load_net(cfg)
    n = net.n
    gbm = _gbm_from_config(cfg, net.n, cfg.a_t)
    # the local approximations' inputs, checked before the Monte Carlo pass
    with _config_errors("local approximation"):
        _checked_firm_vol(net, cfg.firm_vol, cfg.tau)

    debt_rows = np.hstack([np.zeros((n, n)), np.eye(n)])
    stats = []
    solvent = np.zeros(n)
    for _, _, sol in _solved_chunks(cfg, net, gbm):
        # draw-last: dxda_batch's (B, n, n) is a view of a contiguous (n, n, B)
        stats.append(_RunningStat.from_samples(
            dxda_batch(net, sol.xi, weights=debt_rows).transpose(1, 2, 0)))
        solvent += sol.xi.T.sum(axis=1)
    u_d = _tree_merge(stats)
    exact = u_d.mean
    # exact_se keeps the population divisor m2 / N of the golden
    # out/local_compare.csv; _RunningStat.se divides by N - 1
    exact_se = np.sqrt(u_d.m2 / cfg.draws) / np.sqrt(cfg.draws)
    pd = 1.0 - solvent / cfg.draws

    indep = independent_default_delta(net, pd)
    amplification = marginal_contagion(net, pd, np.eye(n))
    state = local_fixed_point(net, gbm.a_t, cfg.r, cfg.tau, cfg.firm_vol,
                              cfg=cfg.fixed_point_config())
    ldelta = local_delta(state, net)

    rows = []
    for i in range(n):
        for j in range(n):
            rows.append([i, j, net.m_d[i, j], pd[i], pd[j],
                         exact[i, j], exact_se[i, j], indep[i, j],
                         amplification[i, j], ldelta[i, j]])
    if out is not None:
        write_csv(out, LOCAL_COMPARE_HEADER, rows)
    return rows


# ---------------------------------------------------------------------------
# validation

def run_validate(cfg: ExperimentConfig, out=None) -> bool:
    report = validate_network(*_load_net(cfg, _read_network))
    lines = [f"network: {cfg.network}"]
    lines += [f"  {f.name}: {getattr(report, f.name)}" for f in fields(report)
              if f.name != "failures"]
    lines.append("OK" if report.ok else "FAILED: " + "; ".join(report.failures))
    text = "\n".join(lines)
    print(text)
    if out is not None:
        Path(out).write_text(text + "\n")
    return report.ok


RUNNERS = {
    "symmetric-grid": run_symmetric_grid,
    "two-firm": run_two_firm,
    "er-sweep": run_er_sweep,
    "price": run_price,
    "greeks": run_greeks,
    "local-compare": run_local_compare,
    "validate": run_validate,
}


def run_experiment(cfg: ExperimentConfig, out=None):
    """Dispatch to the runner for cfg.kind; out overrides cfg.out.

    An output path that is a directory, or whose directory does not exist,
    is a ConfigError before the runner starts.
    """
    out = out if out is not None else cfg.out
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise ConfigError(f"out: {out} is a directory or its directory does not exist")
    return RUNNERS[cfg.kind](cfg, out=out)
