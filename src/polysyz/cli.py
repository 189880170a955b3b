"""Command-line surface.

Exit codes: 0 success, 2 bad input, 3 window/limit exceeded, 4 internal
fault (a failed consistency check, or any other error the package raises).
The group `cli` maps package exceptions onto these codes for every command,
and every polytope argument is read by one parameter type, `POLYTOPE`, so a
malformed file exits 2 wherever it is given.  A path of the wrong kind (a
directory as a polytope, a file as a directory) exits 2 too.
All payloads are JSON with exact fraction strings; `betti` can also render
the conventional text table.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional

import click

from . import ENGINE_VERSION
from .cohomology import (
    ample_power_profile,
    is_regular_product,
    is_regular_single,
    predict_np_main,
    product_profile,
    single_plan,
)
from .corpus import generate_corpus
from .criteria import cor1, cor_canonical_product, cor_hilbert, cor_polytope, cor_prodproj
from .ehrhart import ehrhart_polynomial, integer_root_count
from .errors import ConsistencyError, DegenerateInput, DimensionMismatch, WindowExceeded
from .koszul import RankPolicy, betti_table, build_ring, k_polynomial_checksum, np_level
from .lattice import LatticePolytope, lattice_points
from .normality import is_normal
from .serialize import (
    betti_text_table,
    betti_to_json,
    content_hash,
    criterion_to_json,
    dumps,
    ehrhart_to_json,
    load_polytope,
    normality_to_json,
    polytope_to_json,
    verdicts_to_json,
)

CACHE_ENV = "POLYSYZ_CACHE_DIR"

CERTIFY_HELP = (
    "Skip the Morse matching and rank the full Koszul maps of every block, "
    "so the Betti numbers do not rest on the Morse reduction; every rank is "
    "exact either way.  A window with a block of more than 512 middle cells "
    "(the data files' c = 3 windows) is refused with exit 3."
)

# hard ceiling on Koszul windows reachable from the CLI; beyond this the
# strand sizes are out of desk scale and the request is refused (exit 3)
WINDOW_LIMIT = 8


def _check_limits(**window: int) -> None:
    for name, value in window.items():
        if value < 0:
            raise DegenerateInput(f"{name}={value} must be nonnegative")
        if value > WINDOW_LIMIT:
            raise WindowExceeded(
                f"{name}={value} exceeds the CLI window limit {WINDOW_LIMIT}"
            )


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _cache_lookup(cache_dir: Optional[str], key: dict) -> tuple[Optional[str], Optional[Path]]:
    cache_dir = cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None, None
    if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise DegenerateInput(f"cache directory {cache_dir} is not a directory")
    path = Path(cache_dir) / f"{content_hash(key)}.json"
    if path.is_dir():
        raise DegenerateInput(f"cache entry {path} is a directory")
    if path.exists():
        try:
            return path.read_text(), path
        except UnicodeDecodeError:  # not an entry this module wrote
            return None, path
    return None, path


def _cache_store(path: Optional[Path], payload: str) -> None:
    """Write the entry atomically: a reader sees the whole payload or none.

    The temporary name is unique per process (the CLI runs one thread), and
    it never ends in .json, so `_cache_lookup` cannot serve it.
    """
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        tmp.write_text(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _intact(payload: str, text: bool) -> bool:
    """Whether a cached payload can be echoed: a text table is non-empty and
    ends in a newline, and anything else must parse as JSON."""
    if text:
        return payload.endswith("\n")
    try:
        json.loads(payload)
    except ValueError:
        return False
    return True


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise DegenerateInput(f"expected an integer, got {s!r}")


def _vec(s: str) -> tuple:
    try:
        return tuple(int(t) for t in s.split(","))
    except ValueError:
        raise DegenerateInput(f"expected a comma-separated integer vector, got {s!r}")


def _needed(polytope):
    """The polytope of a command that takes a polytope path or --product."""
    if polytope is None:
        raise DegenerateInput("need a polytope path or --product")
    return polytope


class _ExitCodes(click.Group):
    """Maps package exceptions onto the documented exit codes, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WindowExceeded as exc:
            _fail(3, str(exc))
        except (DegenerateInput, DimensionMismatch, FileNotFoundError, NotADirectoryError) as exc:
            _fail(2, str(exc))
        except ConsistencyError as exc:
            _fail(4, str(exc))
        except ValueError as exc:  # raised inside the package, not by the input
            _fail(4, f"internal error: {exc}")


class _PolytopePath(click.Path):
    """An existing path, read as a polytope while the arguments are parsed."""

    def convert(self, value, param, ctx):
        return load_polytope(super().convert(value, param, ctx))


POLYTOPE = _PolytopePath(exists=True, dir_okay=False)


@click.group(cls=_ExitCodes)
def cli():
    """Exact syzygy toolkit for lattice polytopes."""


@cli.command()
@click.argument("polytope", type=POLYTOPE)
@click.option("--d", "dilation", type=int, default=1, show_default=True)
def count(polytope, dilation):
    """Number of lattice points of the dilation dP."""
    click.echo(dumps({"d": dilation, "count": len(lattice_points(polytope, dilation))}), nl=False)


@cli.command()
@click.argument("polytope", type=POLYTOPE)
def ehrhart(polytope):
    """Ehrhart polynomial of the (normalized) polytope."""
    click.echo(dumps(ehrhart_to_json(ehrhart_polynomial(polytope))), nl=False)


@cli.command()
@click.argument("polytope", type=POLYTOPE)
def roots(polytope):
    """Integer roots of the Ehrhart polynomial and the invariant r."""
    data = integer_root_count(ehrhart_polynomial(polytope))
    click.echo(dumps({"r": data.r, "integer_roots": list(data.integer_roots)}), nl=False)


@cli.command()
@click.argument("polytope", type=POLYTOPE)
@click.option("--mmax", type=int, default=None, help="Decomposition bound override.")
def normality(polytope, mmax):
    """Normality report with a witness on failure."""
    click.echo(dumps(normality_to_json(is_normal(polytope, mmax))), nl=False)


def _checked_table(P, c, max_i, max_slope, certify):
    """Ring and Betti window of cP, refused (exit 4) on a checksum mismatch."""
    ring = build_ring(P, c, max_slope + 1)
    table = betti_table(ring, max_i, max_slope, policy=RankPolicy(certify=certify))
    if not k_polynomial_checksum(table):
        raise ConsistencyError("K-polynomial checksum mismatch")
    return ring, table


def _echo_cached(cache_dir, cmd, P, window, compute):
    """Echo the cached payload of this window, or compute and store it first."""
    if window["c"] < 1:  # refused before the lookup, like a negative bound
        raise DegenerateInput(f"c={window['c']} must be positive")
    key = {
        "cmd": cmd,
        "engine": ENGINE_VERSION,
        "vertices": [list(v) for v in P.vertices],
        **window,
    }
    payload, path = _cache_lookup(cache_dir, key)
    # a torn or foreign entry is a miss: recompute it and store it over
    if payload is None or not _intact(payload, text=window.get("fmt") == "text"):
        payload = compute()
        _cache_store(path, payload)
    click.echo(payload, nl=False)


@cli.command()
@click.argument("polytope", type=POLYTOPE)
@click.option("--c", type=int, default=1, show_default=True, help="Dilation of the bundle.")
@click.option("--max-i", type=int, default=4, show_default=True)
@click.option("--max-slope", type=int, default=None, help="Defaults to dim P + 2.")
@click.option("--certify", is_flag=True, help=CERTIFY_HELP)
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def betti(polytope, c, max_i, max_slope, certify, cache_dir, fmt):
    """Graded Betti numbers of the section ring over the window."""
    if max_slope is None:
        max_slope = polytope.dim + 2
    _check_limits(max_i=max_i, max_slope=max_slope)

    def compute():
        _, table = _checked_table(polytope, c, max_i, max_slope, certify)
        if fmt == "text":
            return betti_text_table(table) + "\n"
        return dumps(betti_to_json(table))

    window = {"c": c, "max_i": max_i, "max_slope": max_slope, "certify": certify, "fmt": fmt}
    _echo_cached(cache_dir, "betti", polytope, window, compute)


@cli.command(name="np")
@click.argument("polytope", type=POLYTOPE)
@click.option("--c", type=int, default=1, show_default=True)
@click.option("--pmax", type=int, default=2, show_default=True)
@click.option("--max-slope", type=int, default=None, help="Defaults to dim P + 2.")
@click.option("--certify", is_flag=True, help=CERTIFY_HELP)
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None)
def np_cmd(polytope, c, pmax, max_slope, certify, cache_dir):
    """(N_p) verdicts for p = 0..pmax."""
    if max_slope is None:
        max_slope = polytope.dim + 2
    _check_limits(pmax=pmax, max_slope=max_slope)

    def compute():
        ring, table = _checked_table(polytope, c, pmax, max_slope, certify)
        verdicts = np_level(ring, pmax, max_slope, table=table)
        return dumps(
            {
                "c": c,
                "window": {"max_i": pmax, "max_slope": max_slope},
                "verdicts": verdicts_to_json(verdicts),
                "betti": betti_to_json(table)["entries"],
            }
        )

    window = {"c": c, "pmax": pmax, "max_slope": max_slope, "certify": certify}
    _echo_cached(cache_dir, "np", polytope, window, compute)


@cli.command()
@click.argument("polytope", type=POLYTOPE, required=False)
@click.option("--d", "twist", type=str, required=True, help="Integer twist (or vector for --product).")
@click.option("--product", "product_dims", type=str, default=None, help="Factor dimensions, e.g. 1,2.")
def cohomology(polytope, twist, product_dims):
    """Cohomology dimensions H^i of a twist."""
    if product_dims:
        n = _vec(product_dims)
        a = _vec(twist)
        prof = product_profile(n, a)
    else:
        prof = ample_power_profile(_needed(polytope), _int(twist))
    click.echo(
        dumps(
            {
                "context": prof.context,
                "twist": list(prof.query),
                "dims": {str(i): d for i, d in prof.dims.items()},
                "euler": prof.euler(),
            }
        ),
        nl=False,
    )


@cli.command()
@click.argument("polytope", type=POLYTOPE, required=False)
@click.option("--m", "twist", type=str, required=True)
@click.option("--product", "product_dims", type=str, default=None)
def regularity(polytope, twist, product_dims):
    """O_X-regularity of a twist with respect to the ambient bundle(s)."""
    if product_dims:
        n = _vec(product_dims)
        a = _vec(twist)
        ok = is_regular_product(n, a)
        click.echo(dumps({"context": "product", "twist": list(a), "regular": ok}), nl=False)
    else:
        P = _needed(polytope)
        m = _int(twist)
        ok = is_regular_single(P, m)
        click.echo(dumps({"context": "ample_power", "twist": [m], "regular": ok}), nl=False)


@cli.command()
@click.argument("polytope", type=POLYTOPE)
@click.option("--w1", type=int, required=True, help="First weight of the plan.")
@click.option("--p", "p", type=int, required=True)
def predict(polytope, w1, p):
    """Predict (N_p) for the p-th partial-sum twist (one-directional)."""
    plan = single_plan(w1, p)
    regular_m1 = is_regular_single(polytope, w1)
    membership = plan.membership_ok()
    result = predict_np_main(plan, regular_m1, membership)
    payload = {
        "w1": w1,
        "p": p,
        "regular_m1": regular_m1,
        "membership_ok": membership,
        "prediction": None
        if result is None
        else {"p": result[0], "twist": result[1][0]},
    }
    click.echo(dumps(payload), nl=False)


@cli.command(name="criteria")
@click.argument("polytope", type=POLYTOPE, required=False)
@click.option("--d", "d_opt", type=str, default=None)
@click.option("--p", "p", type=int, default=1, show_default=True)
@click.option("--product", "product_dims", type=str, default=None)
def criteria_cmd(polytope, d_opt, p, product_dims):
    """All applicable sufficiency criteria for the given instance."""
    results = []
    if product_dims:
        n = _vec(product_dims)
        if d_opt is None:
            raise DegenerateInput("--product needs --d with a twist vector")
        d = _vec(d_opt)
        results.append(cor_prodproj(n, d, p))
        if p >= 1:
            results.append(cor_canonical_product(n, d, p))
    else:
        P = _needed(polytope)
        d = _int(d_opt) if d_opt is not None else 1
        results.append(cor1(P.dim, d, p))
        if p >= 1:
            results.append(cor_hilbert(P, d, p))
        results.append(cor_polytope(P))
    payload = [criterion_to_json(r) for r in results]
    click.echo(dumps(payload), nl=False)
    lines = []
    for r in results:
        verdict = f"guarantees (N_{r.guaranteed_p})" if r.guaranteed else "no guarantee"
        lines.append(f"{r.criterion:20s} threshold={r.threshold!r:12} {verdict}")
    click.echo("\n".join(lines), err=True)


@cli.command()
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--count", "count_", type=int, default=10, show_default=True)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--coord-bound", type=int, default=4, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default="corpus", show_default=True)
def corpus(seed, count_, dim, coord_bound, out_dir):
    """Write a reproducible corpus of polytope JSON files."""
    polys = generate_corpus(seed, count_, dim, coord_bound)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for k, P in enumerate(polys):
        name = f"corpus_{dim}d_s{seed}_{k:03d}.json"
        (out / name).write_text(dumps(polytope_to_json(P)))
        names.append(name)
    click.echo(dumps({"written": names}), nl=False)


def _report_rows(certify: bool):
    cubic = LatticePolytope.from_points([(1, 0), (0, 1), (1, 1), (2, 2)])
    unit_tri = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    simplex112 = LatticePolytope.from_points(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]
    )
    # (name, P, c, max slope, expected, the p that must not fail, the p that
    # must fail or None); the window runs up to the last p shown
    windows = (
        ("cubic surface, c=1", cubic, 1, 3, "N_0 holds, N_1 fails", (0,), 1),
        ("cubic surface, c=2", cubic, 2, 4, "N_3 holds, N_4 fails", (3,), 4),
        ("(1,1,2)-simplex, c=2", simplex112, 2, 5, "N_1 holds, N_2 fails", (1,), 2),
        ("Veronese conic net, c=2", unit_tri, 2, 4, "no failure through N_2", (0, 1, 2), None),
    )
    rows = []
    for name, P, c, slope, expected, holds, fails in windows:
        shown = (holds[-1],) if fails is None else (holds[-1], fails)
        pmax = shown[-1]
        ring, table = _checked_table(P, c, pmax, slope, certify)
        v = {x.p: x.status for x in np_level(ring, pmax, slope, table=table)}
        computed = ", ".join(f"N_{p} {v[p]}" for p in shown)
        match = all(v[p] != "FAILS" for p in holds) and (fails is None or v[fails] == "FAILS")
        rows.append((name, expected, computed, match))
    rep = is_normal(simplex112)
    rows.insert(
        2,
        (
            "(1,1,2)-simplex",
            "not normal, witness ((1,1,1), m=2)",
            f"normal={rep.normal}, witness={rep.witness}",
            (not rep.normal) and rep.witness == ((1, 1, 1), 2),
        ),
    )
    return rows


@cli.command()
@click.option("--certify", is_flag=True, help=CERTIFY_HELP)
def report(certify):
    """Markdown regression report for the worked example claims."""
    rows = _report_rows(certify)
    lines = [
        "| example | expected | computed | match |",
        "|---|---|---|---|",
    ]
    ok = True
    for name, expected, computed, match in rows:
        ok = ok and match
        lines.append(f"| {name} | {expected} | {computed} | {'yes' if match else 'NO'} |")
    click.echo("\n".join(lines))
    if not ok:
        raise ConsistencyError("report mismatch against recorded expectations")


main = cli


if __name__ == "__main__":
    main()
