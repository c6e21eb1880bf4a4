"""Command-line front door.

``chiralwalk index|spectrum|verify|plot <config> [flags]``

Exit codes: 0 success, 1 usage/parse error or out-of-range/non-finite input,
2 not Fredholm, 3 verification failure, a spectrum sampling oracle beyond its
tolerance, a refused numeric winding or disagreeing index routes.  Each
subcommand accepts only the flags it reads.  All commands are deterministic
given config and flags: the alternative phase assignment cross-check in
``index`` is driven by ``--seed``, and the kernel witness in ``verify``
starts its block iteration from a fixed seed.  ``plot`` draws
the closed-form sets only; ``spectrum`` also runs the sampling oracle.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .config import DEFAULT_OPTIONS, load_model_config
from .index import (
    IndexDisagreementError,
    NotFredholmError,
    SymbolNearZeroError,
    compute_index,
)
from .models import AsymptoticData, InvalidParameters, ModelParamsMko, default_phase, reduce_to_um
from .profiles import MINUS_INF, PLUS_INF, STARS, ParameterProfile
from .spectrum import EssentialSpectrumResult, SpectralSet, essential_spectrum, sigma_star
from .verify import run_verification, section_eigenvalues


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


_FLAGS = {
    "--resolution": dict(type=int, help="circle samples per endpoint (default from config)"),
    "--window": dict(type=int, help="finite-section half-width (default from config)"),
    "--tol": dict(type=float, help="residual tolerance (default from config)"),
    "--seed": dict(type=int, help="seed for randomised cross-checks (default from config)"),
    "--out": dict(help="output file"),
    "--cloud-out": dict(help="also write the sampled eigenvalue cloud"),
    "--overlay-window": dict(
        type=int, help="overlay eigenvalues of the finite section at this half-width"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first :func:`main` call."""
    parser = _Parser(prog="chiralwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
        ("index", _cmd_index, ("--seed",)),
        ("spectrum", _cmd_spectrum, ("--resolution", "--out", "--cloud-out")),
        ("verify", _cmd_verify, ("--window", "--tol")),
        ("plot", _cmd_plot, ("--out", "--overlay-window")),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON model config")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=fn)
    return parser


def _load(args):
    """Load the config and fill the subcommand's unset numeric flags from it."""
    cfg = load_model_config(args.config)
    for name in DEFAULT_OPTIONS:
        if name in vars(args) and getattr(args, name) is None:
            setattr(args, name, cfg.option(name))
    return cfg


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def _alternative_phase(params, seed: int) -> ParameterProfile | None:
    """Random re-phasing at sites (and tails) where q vanishes, if any."""
    free_sites = [x for x, v in params.q.overrides.items() if v == 0]
    left_free = params.q.left_limit == 0
    right_free = params.q.right_limit == 0
    if not (free_sites or left_free or right_free):
        return None
    base = default_phase(params.q)
    rng = np.random.default_rng(seed)
    # every override site of q keeps its own phase, also where it equals the
    # default tail phase, before the tails where q vanishes are re-drawn
    overrides = {x: base.value(x) for x in params.q.overrides}
    for x in free_sites:
        overrides[x] = rng.uniform(0.0, 2.0 * np.pi)
    left = rng.uniform(0.0, 2.0 * np.pi) if left_free else base.left_limit
    right = rng.uniform(0.0, 2.0 * np.pi) if right_free else base.right_limit
    return ParameterProfile(left, right, overrides)


def _cmd_index(args) -> int:
    cfg = _load(args)
    if args.seed < 0:              # a config's seed is checked when it is parsed
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    params = cfg.build()
    um = reduce_to_um(params)
    if um is not params:
        print("two-step model reduced to the equivalent m = 2 instance")
    report = compute_index(um)
    for diag in report.endpoints:
        status = "tie within tolerance" if diag.tie else (
            "|p_gamma| > |a|" if diag.margin > 0 else "|p_gamma| < |a|")
        print(f"endpoint {diag.star}: p_gamma = {diag.p_gamma:+.6f}, "
              f"|a| = {diag.abs_a:.6f}, margin = {diag.margin:+.3e} ({status})")
    if not report.fredholm:
        print("not Fredholm: the index is undefined for this parameter set")
        return 2
    print(f"winding at {MINUS_INF}: analytic {report.wn_minus}, numeric {report.wn_minus_num}")
    print(f"winding at {PLUS_INF}: analytic {report.wn_plus}, numeric {report.wn_plus_num}")
    print(f"routes agree: formula = winding difference = numeric difference "
          f"= {report.analytic_index}")
    alternative = _alternative_phase(um, args.seed)
    if alternative is not None:
        other = compute_index(um, phase=alternative)
        same = (other.analytic_index == report.analytic_index
                and other.wn_minus_num == report.wn_minus_num
                and other.wn_plus_num == report.wn_plus_num)
        print(f"phase-assignment cross-check (seed {args.seed}): "
              f"{'consistent' if same else 'INCONSISTENT'}")
        if not same:
            return 3
    print(f"index = {report.analytic_index}")
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def spectrum_csv(result: EssentialSpectrumResult) -> str:
    lines = ["endpoint,kind,lo,hi,case,s"]
    for ep in (result.minus, result.plus):
        sset = ep.spectral_set
        for u, v in sset.arcs:
            lines.append(f"{ep.star},arc,{u:.17g},{v:.17g},{sset.case_tag},{sset.sign_tag}")
        for u, v in sset.segments:
            lines.append(f"{ep.star},segment,{u:.17g},{v:.17g},{sset.case_tag},{sset.sign_tag}")
    return "\n".join(lines) + "\n"


def parse_spectrum_csv(text: str) -> dict:
    rows = [line.split(",") for line in text.strip().splitlines()]
    if not rows or rows[0] != ["endpoint", "kind", "lo", "hi", "case", "s"]:
        raise ValueError("unrecognised spectrum CSV header")
    collected: dict = {}
    for endpoint, kind, lo, hi, case, s in rows[1:]:
        entry = collected.setdefault(endpoint, {"arcs": [], "segments": [],
                                                "case": case, "s": int(s)})
        if entry["case"] != case or entry["s"] != int(s):
            raise ValueError(f"inconsistent case/sign rows for endpoint {endpoint}")
        entry["arcs" if kind == "arc" else "segments"].append((float(lo), float(hi)))
    return {
        endpoint: SpectralSet(tuple(e["arcs"]), tuple(e["segments"]), e["case"], e["s"])
        for endpoint, e in collected.items()
    }


def cloud_csv(result: EssentialSpectrumResult, resolution: int) -> str:
    lines = ["endpoint,t,re_lambda,im_lambda"]
    for ep in (result.minus, result.plus):
        for i, z in enumerate(ep.cloud):
            t = 2.0 * np.pi * (i // 2) / resolution
            lines.append(f"{ep.star},{t:.17g},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


def _decimal(x: float) -> str:
    """Six decimals; in exponent form from |x| = 1e6 on, so large gains print short lines."""
    return f"{x:.6e}" if abs(x) >= 1e6 else f"{x:.6f}"


def _cmd_spectrum(args) -> int:
    params = _load(args).build()
    # essential_spectrum refuses a bad resolution, so it runs before the first print
    result = essential_spectrum(params, args.resolution)
    if isinstance(params, ModelParamsMko):
        print("two-step model reduced to the equivalent m = 2 instance")
    for ep in (result.minus, result.plus):
        d = ep.data
        print(f"endpoint {ep.star}: case {ep.spectral_set.case_tag}, s = {d.s:+d}, "
              f"Lambda = [{_decimal(d.lam_minus)}, {_decimal(d.lam_plus)}], "
              f"gamma range = [{_decimal(d.gamma_minus)}, {_decimal(d.gamma_plus)}]")
        print(f"  sampling oracle: Hausdorff {ep.hausdorff:.3e} "
              f"(tolerance {ep.tolerance:.3e}) "
              f"{'ok' if ep.within_tolerance else 'EXCEEDED'}")
    text = spectrum_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if args.cloud_out:
        with open(args.cloud_out, "w", encoding="utf-8") as handle:
            handle.write(cloud_csv(result, args.resolution))
        print(f"wrote {args.cloud_out}")
    exceeded = [ep.star for ep in (result.minus, result.plus) if not ep.within_tolerance]
    if exceeded:
        print(f"error: sampling oracle beyond its Hausdorff tolerance at {', '.join(exceeded)}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    cfg = _load(args)
    try:
        params = cfg.build()
    except InvalidParameters as err:
        print(f"parameter normalization: FAIL ({err})")
        return 3
    report = run_verification(params, args.window, args.tol)
    for name, passed, detail in report.checks:
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _cmd_plot(args) -> int:
    from .plotting import write_spectral_svg

    params = _load(args).build()
    um = reduce_to_um(params)
    sets = {star: sigma_star(AsymptoticData.from_params(um, star)) for star in STARS}
    overlay = None
    if args.overlay_window is not None:
        overlay = section_eigenvalues(params, args.overlay_window)
    out = args.out or "spectrum.svg"
    title = (f"{MINUS_INF}: case {sets[MINUS_INF].case_tag}   "
             f"{PLUS_INF}: case {sets[PLUS_INF].case_tag}")
    write_spectral_svg(out, sets, overlay=overlay, title=title)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError:
        return 1
    try:
        return args.handler(args)
    except ValueError as err:
        # config and parameter errors, and numeric arguments out of range
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NotFredholmError as err:
        print(f"not Fredholm: {err}", file=sys.stderr)
        return 2
    except (SymbolNearZeroError, IndexDisagreementError) as err:
        # the numeric winding refused, or the index routes disagree
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
