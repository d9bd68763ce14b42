"""Closed-form bounds on the distance-k domination number, with reporting.

Lower bounds for connected graphs: ceil((diam+1)/(2k+1)), ceil(2*rad/(2k+1)),
and ceil(girth/(2k+1)) when the graph has a cycle, plus the packing bound.
Upper bounds: n/(k+1) for connected graphs of order >= k+1, the sharper
(n - maxdeg + k - 1)/k, and (n + mindeg - maxdeg)/(mindeg + k - 1) for k >= 2
and mindeg >= 2, plus the size of the exact solve's starting cover. Since the domination number is
an integer, lower bounds are reported ceiled and upper bounds floored; the
raw fractional values are kept alongside. An inapplicable bound is None, not
an error, so reports aggregate uniformly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .constructions import direct_product
from .errors import BudgetExceeded, DisconnectedInput, InfiniteDiameter, InfiniteRadius
from .graph import Graph, finite
from .solver import Certificate, _check_k, gamma_k_exact, packing_lower


def lb_diameter(diameter: float, k: int) -> int:
    """ceil((d+1)/(2k+1)): no vertex k-dominates more than 2k+1 vertices of a
    diametral path."""
    _check_k(k)
    if math.isinf(diameter):
        raise InfiniteDiameter("diameter bound needs a connected graph")
    if diameter < 0:
        raise ValueError("diameter must be >= 0")
    return -(-(int(diameter) + 1) // (2 * k + 1))


def lb_radius(radius: float, k: int) -> int:
    """ceil(2r/(2k+1)); note the formula itself gives 0 when r = 0."""
    _check_k(k)
    if math.isinf(radius):
        raise InfiniteRadius("radius bound needs a connected graph")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return -(-(2 * int(radius)) // (2 * k + 1))


def lb_girth(girth: float, k: int) -> int:
    """ceil(g/(2k+1)) for cyclic graphs; inapplicable (reported as 1) when acyclic."""
    _check_k(k)
    if math.isinf(girth):
        return 1
    if girth < 3:
        raise ValueError("girth must be >= 3 or infinite")
    return -(-int(girth) // (2 * k + 1))


def ub_meir_moon(n: int, k: int) -> int | None:
    """floor(n/(k+1)) for connected graphs of order n >= k+1, else None."""
    _check_k(k)
    if n < k + 1:
        return None
    return n // (k + 1)


def ub_tian_xu(n: int, max_degree: int, k: int) -> int | None:
    """floor((n - maxdeg + k - 1)/k) for connected graphs of order n >= k+1."""
    _check_k(k)
    if n < k + 1:
        return None
    return (n - max_degree + k - 1) // k


def ub_henning_lichiardopol(n: int, min_degree: int, max_degree: int, k: int) -> int | None:
    """floor((n + mindeg - maxdeg)/(mindeg + k - 1)) when k >= 2, mindeg >= 2
    and n >= maxdeg + k - 1."""
    _check_k(k)
    if k < 2 or min_degree < 2 or n < max_degree + k - 1:
        return None
    return (n + min_degree - max_degree) // (min_degree + k - 1)


@dataclass(frozen=True)
class BoundsReport:
    """Every applicable bound for (G, k) with a consistency verdict.

    Lower-bound fields hold the effective values max(1, ceil(formula)) for
    non-empty graphs; ``raw_*`` keep the fractional formula values. A None
    bound was inapplicable. ``best_lower`` is the largest lower bound (1, or
    0 for the empty graph, when none applies) and ``best_upper`` the smallest
    upper bound. ``exact`` is always the solve's certificate. ``verdict`` is
    "Consistent" when the sandwich best_lower <= exact <= best_upper holds,
    "ExactUnavailable" when a budget stopped the solve, and
    "ViolationDetected" otherwise — the bounds are proven inequalities, so a
    violation always means an implementation bug.
    """

    k: int
    n: int
    m: int
    min_degree: int
    max_degree: int
    diameter: float
    radius: float
    girth: float
    connected: bool
    lb_diameter: int | None
    lb_radius: int | None
    lb_girth: int | None
    lb_packing: int | None
    raw_lb_diameter: float | None
    raw_lb_radius: float | None
    raw_lb_girth: float | None
    ub_meir_moon: int | None
    ub_tian_xu: int | None
    ub_henning_lichiardopol: int | None
    ub_greedy: int
    best_lower: int
    best_upper: int
    exact: Certificate
    verdict: str

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "diameter": finite(self.diameter),
            "radius": finite(self.radius),
            "girth": finite(self.girth),
            "connected": self.connected,
            "lower_bounds": {
                "diameter": self.lb_diameter,
                "radius": self.lb_radius,
                "girth": self.lb_girth,
                "packing": self.lb_packing,
                "raw": {
                    "diameter": self.raw_lb_diameter,
                    "radius": self.raw_lb_radius,
                    "girth": self.raw_lb_girth,
                },
            },
            "upper_bounds": {
                "meir_moon": self.ub_meir_moon,
                "tian_xu": self.ub_tian_xu,
                "henning_lichiardopol": self.ub_henning_lichiardopol,
                "greedy": self.ub_greedy,
            },
            "best_lower": self.best_lower,
            "best_upper": self.best_upper,
            "exact": self.exact.to_dict(),
            "verdict": self.verdict,
        }


def bounds_report(g: Graph, k: int, **budget) -> BoundsReport:
    """Aggregate every applicable bound, solve for gamma_k within budget, and
    judge consistency against the exact value when the solve finished."""
    _check_k(k)
    met = g.metrics()
    n = g.n
    window = 2 * k + 1
    min_deg, max_deg = g.min_degree(), g.max_degree()

    if met.connected and n:
        lbd = max(1, lb_diameter(met.diameter, k))
        lbr = max(1, lb_radius(met.radius, k))
        lbg = max(1, lb_girth(met.girth, k))
        lbp = max(1, packing_lower(g, k))
        raw_d = (met.diameter + 1) / window
        raw_r = 2 * met.radius / window
        raw_g = met.girth / window if not math.isinf(met.girth) else None
        ubm = ub_meir_moon(n, k)
        ubt = ub_tian_xu(n, max_deg, k)
        ubh = ub_henning_lichiardopol(n, min_deg, max_deg, k)
    else:
        lbd = lbr = lbg = lbp = None
        raw_d = raw_r = raw_g = None
        ubm = ubt = ubh = None

    exact = gamma_k_exact(g, k, **budget)

    best_lower = max((b for b in (lbd, lbr, lbg, lbp) if b is not None), default=1 if n else 0)
    best_upper = min([b for b in (ubm, ubt, ubh) if b is not None] + [exact.upper_bound_used])
    if exact.status == "Exact":
        verdict = "Consistent" if best_lower <= exact.value <= best_upper else "ViolationDetected"
    else:
        verdict = "ViolationDetected" if best_lower > best_upper else "ExactUnavailable"

    return BoundsReport(
        k=k,
        n=n,
        m=g.m,
        min_degree=min_deg,
        max_degree=max_deg,
        diameter=met.diameter,
        radius=met.radius,
        girth=met.girth,
        connected=met.connected,
        lb_diameter=lbd,
        lb_radius=lbr,
        lb_girth=lbg,
        lb_packing=lbp,
        raw_lb_diameter=raw_d,
        raw_lb_radius=raw_r,
        raw_lb_girth=raw_g,
        ub_meir_moon=ubm,
        ub_tian_xu=ubt,
        ub_henning_lichiardopol=ubh,
        ub_greedy=exact.upper_bound_used,
        best_lower=best_lower,
        best_upper=best_upper,
        exact=exact,
        verdict=verdict,
    )


@dataclass(frozen=True)
class ProductBoundReport:
    """Outcome of checking gamma_k(G x H) >= gamma_k(G) + gamma_k(H) - 1.

    ``satisfied`` is None when the product came out disconnected: the bound is
    stated for connected products, so those cases are recorded (with the
    per-component sum as ``gamma_product``) but not asserted.
    """

    k: int
    gamma_left: int
    gamma_right: int
    gamma_product: int
    product_order: int
    product_components: int
    product_connected: bool
    lower_bound: int
    satisfied: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def product_bound_check(g: Graph, h: Graph, k: int, **budget) -> ProductBoundReport:
    """Solve both factors and their direct product exactly and compare
    against the additive lower bound. Factors must be connected."""
    _check_k(k)
    if not g.is_connected() or not h.is_connected():
        raise DisconnectedInput("product bound is stated for connected factors")
    prod = direct_product(g, h)
    certs = [gamma_k_exact(x, k, **budget) for x in (g, h, prod)]
    if any(c.status != "Exact" for c in certs):
        raise BudgetExceeded("exact solve of a factor or the product did not finish")
    cg, ch, cp = certs
    connected = cp.components == 1
    bound = cg.value + ch.value - 1
    return ProductBoundReport(
        k=k,
        gamma_left=cg.value,
        gamma_right=ch.value,
        gamma_product=cp.value,
        product_order=prod.n,
        product_components=cp.components,
        product_connected=connected,
        lower_bound=bound,
        satisfied=cp.value >= bound if connected else None,
    )
