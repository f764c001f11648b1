"""WAN link pricing for geo-distributed serving (the region tier).

A :class:`~repro.hardware.topology.LinkSpec` knows *time* — propagation
latency plus serialization at the path's bandwidth.  Inter-region traffic
additionally costs *money/energy per byte*: metered egress on leased or
cloud backbone capacity.  :class:`WanLink` pairs the two, expressing the
per-byte price in the same Joule-equivalent unit the PR-6 cost-based
control plane uses, so a region simulator can fold WAN spend directly
into the fleet's total cost alongside device energy and idle burn.

The calibration is deliberately coarse but ordered: metro dark fiber is
cheap and fast, transcontinental backbone mid-priced, intercontinental
submarine capacity slow and expensive.  What the experiments need is the
*ratio* between compute-energy savings and WAN spend, not cloud-invoice
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.topology import (
    LinkSpec,
    WAN_INTERCONT,
    WAN_METRO,
    WAN_TRANSCON,
)

# Payload one spilled/re-homed query drags across the WAN: the request
# features going out plus the prediction coming back, dominated by the
# dense-feature tensor.  Flat per query — sized payloads would only
# scale every identity in the accounting tests by the same factor.
QUERY_WAN_BYTES = 4096


@dataclass(frozen=True)
class WanLink:
    """A priced WAN path between two regions.

    Wraps a WAN-class :class:`LinkSpec` (time model) with a per-byte
    Joule-equivalent price (cost model).  Frozen so region simulators can
    share one instance across routers, caches, and results.
    """

    spec: LinkSpec
    cost_per_byte_j: float  # J-eq per byte crossing this link

    def __post_init__(self) -> None:
        if not self.cost_per_byte_j >= 0:
            raise ValueError("cost_per_byte_j must be non-negative")

    @property
    def name(self) -> str:
        """The underlying link class name (``wan-metro`` etc.)."""
        return self.spec.name

    @property
    def latency_s(self) -> float:
        """One-way propagation latency of the link."""
        return self.spec.latency_s

    def one_way_s(self, nbytes: float) -> float:
        """One-way time for a message of ``nbytes`` (latency + transfer)."""
        return self.spec.transfer_time(nbytes)

    def rtt_s(self, nbytes: float) -> float:
        """Round-trip time: request of ``nbytes`` out, small reply back.

        The reply (a prediction vector) is latency-dominated, so the
        return leg is priced at pure propagation latency.
        """
        return self.one_way_s(nbytes) + self.spec.latency_s

    def cost_j(self, nbytes: float) -> float:
        """Joule-equivalent spend for ``nbytes`` crossing the link."""
        if nbytes <= 0:
            return 0.0
        return nbytes * self.cost_per_byte_j


# Priced instances of the topology module's WAN link classes.  The J-eq
# per-byte prices keep the metro/transcon/intercont ordering and sit in a
# range where caching hot rows region-locally (PR-5 tier) visibly pays:
# one 16-byte embedding row costs ~1e-5 J-eq to fetch intercontinentally,
# comparable to serving-energy scales in the single-node model.
WAN_METRO_LINK = WanLink(spec=WAN_METRO, cost_per_byte_j=5e-7)
WAN_TRANSCON_LINK = WanLink(spec=WAN_TRANSCON, cost_per_byte_j=1e-6)
WAN_INTERCONT_LINK = WanLink(spec=WAN_INTERCONT, cost_per_byte_j=2e-6)

WAN_LINKS = {
    link.name: link
    for link in (WAN_METRO_LINK, WAN_TRANSCON_LINK, WAN_INTERCONT_LINK)
}


def resolve_wan_link(link: str | WanLink) -> WanLink:
    """Accept a priced link instance or a WAN link-class name.

    Names resolve through :data:`WAN_LINKS`; unknown names raise with
    the valid choices listed (the CLI leans on this for its error text).
    """
    if isinstance(link, WanLink):
        return link
    resolved = WAN_LINKS.get(link)
    if resolved is None:
        choices = ", ".join(sorted(WAN_LINKS))
        raise ValueError(f"unknown WAN link {link!r}; choose one of {choices}")
    return resolved
