//! Compiled routing tables: the per-flit hot path of the router.
//!
//! The [`Topology`] routing *spec* ([`Topology::unicast_hop`],
//! [`Topology::broadcast_hop`]) is coordinate arithmetic — modular
//! distances, tie-breaks, dateline tests. Evaluating it for every arriving
//! head flit and every lookahead is pure per-flit overhead, so
//! [`RoutingTables::build`] evaluates the spec once per (router,
//! destination) / (source, router, arrival) point at network construction
//! and the routers route by flat array lookup from then on. The spec stays
//! the reference: `tables_match_the_spec_everywhere` checks the tables
//! against it at every point of every fabric kind the registry runs.
//!
//! The tables also carry the *dateline VC class* of every hop: on
//! wraparound fabrics (torus, ring) each regular-VC pool is split into a
//! class-0 and a class-1 partition, flits switch partitions exactly once —
//! when their remaining path clears the wraparound link — and the switch
//! breaks every ring's channel-dependency cycle (DESIGN.md §10). On a mesh
//! every hop is [`VcClass::Any`] and allocation is exactly what it was
//! before the tables existed.

use crate::config::NocConfig;
use crate::flit::{Dest, Packet, Payload};
use crate::topology::{Endpoint, LocalSlot, Port, PortMask, RouterId, Topology};

/// Dateline VC-class constraint on one downstream VC allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcClass {
    /// No constraint (mesh links, local ports, rVC escapes).
    Any,
    /// Pre-dateline: only the lower half of the regular VCs.
    C0,
    /// Post-dateline: only the upper half of the regular VCs.
    C1,
}

impl VcClass {
    /// The regular-VC index range this class may allocate from.
    #[inline]
    pub(crate) fn regular_range(self, vcs: u8) -> std::ops::Range<usize> {
        match self {
            VcClass::Any => 0..vcs as usize,
            VcClass::C0 => 0..(vcs / 2) as usize,
            VcClass::C1 => (vcs / 2) as usize..vcs as usize,
        }
    }
}

/// A routed output set: the ports to fork through plus, per port, whether
/// the downstream VC must come from the class-1 partition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteMask {
    /// Output ports (mesh ports + local deliveries).
    pub mask: PortMask,
    /// Class-1 bit per [`Port::index`].
    pub classes: u8,
}

/// Index of an arrival slot: the four cardinal ports plus "at source".
#[inline]
fn arrival_index(arrived_on: Option<Port>) -> usize {
    match arrived_on {
        None => 4,
        Some(p) => {
            debug_assert!(!p.is_local(), "broadcast cannot arrive on a local port");
            p.index()
        }
    }
}

const ARRIVALS: usize = 5;
const ABSENT: u16 = u16::MAX;

/// Precomputed routing state for one topology instance.
///
/// * `unicast[here * n_endpoints + ep]` — output port + class bit,
/// * `broadcast[(src_tile * n_routers + here) * 5 + arrival]` — fork mask
///   plus class bits, keyed by the *source endpoint's* tile index (on a
///   concentrated fabric the fork mask depends on which slot injected:
///   the source slot self-delivers, its siblings are fed by the router),
/// * `neighbor[router * 9 + port]` — link table ([`ABSENT`] = no link),
/// * `mc_rank[router]` — dense MC index ([`ABSENT`] = no MC port).
pub(crate) struct RoutingTables {
    n_routers: usize,
    n_endpoints: usize,
    n_tiles: usize,
    /// Tiles per router (the topology's concentration).
    concentration: u8,
    /// Packed `port.index() | (class1 << 4)`.
    unicast: Vec<u8>,
    /// `(mask bits, class bits)`.
    broadcast: Vec<(u16, u8)>,
    /// Elements the broadcast index advances per source tile: mesh (and
    /// single-tile CMesh) broadcast masks are independent of the source
    /// (`at_source` is decided by the arrival port alone), so those
    /// fabrics collapse the source dimension entirely (`stride == 0`) —
    /// O(routers) entries instead of O(tiles × routers).
    broadcast_src_stride: usize,
    neighbor: Vec<u16>,
    mc_rank: Vec<u16>,
}

impl RoutingTables {
    /// Evaluates the routing spec of `topo` at every table point.
    pub(crate) fn build(topo: &Topology) -> RoutingTables {
        let n_routers = topo.router_count();
        let n_tiles = topo.tile_count();
        let concentration = topo.tiles_per_router();
        let endpoints: Vec<Endpoint> = topo.endpoints().collect();
        let n_endpoints = endpoints.len();

        let mut unicast = Vec::with_capacity(n_routers * n_endpoints);
        for r in topo.routers() {
            for &ep in &endpoints {
                let (port, class1) = topo.unicast_hop(r, ep);
                unicast.push(port.index() as u8 | (u8::from(class1) << 4));
            }
        }

        // Mesh broadcast trees ignore the source entirely, and a
        // single-tile CMesh has no sibling slot to skip, so one source
        // slice serves every source; wraparound fabrics key their fork
        // budgets on the source router, and concentrated fabrics key the
        // local-delivery set on the source slot — both store the cube.
        let src_independent = match topo {
            Topology::Mesh(_) => true,
            Topology::CMesh(c) => c.concentration() == 1,
            _ => false,
        };
        let broadcast_src_stride = if src_independent {
            0
        } else {
            n_routers * ARRIVALS
        };
        let sources: usize = if src_independent { 1 } else { n_tiles };
        let mut broadcast = Vec::with_capacity(sources * n_routers * ARRIVALS);
        for src_tile in 0..sources {
            let src = topo.tile_endpoint(src_tile);
            for here in topo.routers() {
                for arr in 0..ARRIVALS {
                    let arrived_on = if arr == 4 { None } else { Some(Port::ALL[arr]) };
                    // Only probe arrivals that have a physical incoming
                    // link (a flit cannot arrive on a port that is not
                    // wired — e.g. North on a ring); absent-link slots stay
                    // empty and are never queried.
                    let wired = match arrived_on {
                        None => true,
                        Some(p) => topo.neighbor(here, p).is_some(),
                    };
                    if wired {
                        let (mask, classes) = topo.broadcast_hop(src, here, arrived_on);
                        broadcast.push((mask.bits(), classes));
                    } else {
                        broadcast.push((0, 0));
                    }
                }
            }
        }

        let mut neighbor = Vec::with_capacity(n_routers * Port::COUNT);
        for r in topo.routers() {
            for port in Port::ALL {
                neighbor.push(match topo.neighbor(r, port) {
                    Some(n) => n.0,
                    None => ABSENT,
                });
            }
        }

        let mut mc_rank = vec![ABSENT; n_routers];
        for (rank, &r) in topo.mc_routers().iter().enumerate() {
            mc_rank[r.index()] = rank as u16;
        }

        RoutingTables {
            n_routers,
            n_endpoints,
            n_tiles,
            concentration,
            unicast,
            broadcast,
            broadcast_src_stride,
            neighbor,
            mc_rank,
        }
    }

    /// Unicast lookup: output port + class-1 bit at `here` toward the
    /// endpoint with dense index `ep_idx`.
    #[inline]
    pub(crate) fn unicast(&self, here: RouterId, ep_idx: usize) -> (Port, bool) {
        let packed = self.unicast[here.index() * self.n_endpoints + ep_idx];
        (Port::ALL[(packed & 0xF) as usize], packed & 0x10 != 0)
    }

    /// Broadcast lookup: fork mask + class bits at `here` for the
    /// broadcast from the endpoint `src` arriving through `arrived_on`.
    #[inline]
    pub(crate) fn broadcast(
        &self,
        src: Endpoint,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> (PortMask, u8) {
        // Tile sources index the source dimension by tile number; an MC
        // source (possible on unordered vnets, unconcentrated fabrics
        // only) borrows its router's slot-0 tile entry, which is exact
        // there because the slot never affects the mask. On a concentrated
        // fabric a tile-source entry suppresses that slot's delivery, so
        // MC sources are rejected rather than silently mis-delivered.
        let src_idx = match src.slot {
            LocalSlot::Tile(k) => src.router.index() * self.concentration as usize + k as usize,
            LocalSlot::Mc => {
                debug_assert!(
                    self.concentration == 1,
                    "MC-source broadcasts are undefined on concentrated fabrics"
                );
                src.router.index() * self.concentration as usize
            }
        };
        let idx = src_idx * self.broadcast_src_stride
            + here.index() * ARRIVALS
            + arrival_index(arrived_on);
        let (mask, classes) = self.broadcast[idx];
        (PortMask::from_bits(mask), classes)
    }

    /// Link lookup.
    #[inline]
    pub(crate) fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        match self.neighbor[r.index() * Port::COUNT + port.index()] {
            ABSENT => None,
            n => Some(RouterId(n)),
        }
    }

    /// Whether `r` hosts a memory-controller port.
    #[inline]
    pub(crate) fn has_mc(&self, r: RouterId) -> bool {
        self.mc_rank[r.index()] != ABSENT
    }

    /// The dense MC rank of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` hosts no MC port.
    #[inline]
    pub(crate) fn mc_rank(&self, r: RouterId) -> usize {
        let rank = self.mc_rank[r.index()];
        assert!(rank != ABSENT, "no MC port at {r}");
        rank as usize
    }

    /// The dense index of `ep` (tiles first, then MC ports) — the table
    /// form of [`Topology::endpoint_index`].
    #[inline]
    pub(crate) fn endpoint_index(&self, ep: Endpoint) -> usize {
        match ep.slot {
            LocalSlot::Tile(k) => {
                debug_assert!(ep.router.index() < self.n_routers && k < self.concentration);
                ep.router.index() * self.concentration as usize + k as usize
            }
            LocalSlot::Mc => self.n_tiles + self.mc_rank(ep.router),
        }
    }

    /// The dense endpoint index served by local output `port` of router
    /// `r` — the ejection-wire demux (tile slot `k` of router `r` is
    /// endpoint `r·c + k`; the MC port is `n_tiles + mc_rank`).
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a local port of `r`.
    #[inline]
    pub(crate) fn local_ep_index(&self, r: RouterId, port: Port) -> usize {
        match port.tile_index() {
            Some(k) => {
                debug_assert!(k < self.concentration, "tile slot {k} absent at {r}");
                r.index() * self.concentration as usize + k as usize
            }
            None => {
                debug_assert_eq!(port, Port::Mc, "not a local port");
                self.n_tiles + self.mc_rank(r)
            }
        }
    }

    /// Tile count the tables were built for.
    #[inline]
    pub(crate) fn tile_count(&self) -> usize {
        self.n_tiles
    }

    /// Tiles per router.
    #[inline]
    pub(crate) fn concentration(&self) -> u8 {
        self.concentration
    }
}

/// The routing view handed to routers each tick: the compiled tables and
/// whether their dateline classes apply.
pub(crate) struct RouteCtx<'a> {
    pub tables: &'a RoutingTables,
    /// Whether dateline VC classes are in force (wraparound fabrics).
    pub datelines: bool,
}

impl RouteCtx<'_> {
    /// Routes `packet` at `here`: the full output set plus per-port
    /// dateline classes.
    pub(crate) fn route<T: Payload>(
        &self,
        here: RouterId,
        packet: &Packet<T>,
        arrived_on: Option<Port>,
    ) -> RouteMask {
        match packet.dest {
            Dest::Unicast(ep) => {
                let (port, class1) = self.tables.unicast(here, self.tables.endpoint_index(ep));
                RouteMask {
                    mask: PortMask::single(port),
                    // Class bits exist only on the four cardinal ports
                    // (index < 4); a local ejection (up to index 8) never
                    // carries one, so the shift must be guarded.
                    classes: if class1 { 1 << port.index() } else { 0 },
                }
            }
            Dest::Broadcast => {
                let (mask, classes) = self.tables.broadcast(packet.src, here, arrived_on);
                RouteMask { mask, classes }
            }
        }
    }

    /// The VC-class constraint for allocating toward `port` given a
    /// route's class bits.
    #[inline]
    pub(crate) fn class_for(&self, classes: u8, port: Port) -> VcClass {
        if !self.datelines || port.is_local() {
            VcClass::Any
        } else if classes & (1 << port.index()) != 0 {
            VcClass::C1
        } else {
            VcClass::C0
        }
    }
}

/// Validates that `cfg` can support dateline classes when `topo` needs
/// them: every vnet must have at least two regular VCs to split.
pub(crate) fn validate_datelines(topo: &Topology, cfg: &NocConfig) {
    if !topo.has_datelines() {
        return;
    }
    for v in &cfg.vnets {
        assert!(
            v.vcs >= 2,
            "wraparound topology {} needs >= 2 regular VCs per vnet for \
             dateline classes; vnet {} has {}",
            topo.label(),
            v.name,
            v.vcs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CMesh, Mesh, Ring, Torus};

    /// Tables and spec must agree at every point — they are the same
    /// function, memoized. The spec is the routing reference, so this
    /// covers every fabric kind at the shapes the scenario registry runs:
    /// the `topology(-small)` tori and rings, the `cmesh(-small)` and
    /// kilocore-small concentrated meshes, the kilocore-small 16×16 mesh
    /// with proportional MCs, and non-square meshes.
    #[test]
    fn tables_match_the_spec_everywhere() {
        for topo in [
            Topology::from(Mesh::new(5, 3, &[RouterId(2), RouterId(14)])),
            Topology::from(Mesh::new(7, 1, &[RouterId(0), RouterId(6)])),
            Topology::from(Mesh::square_with_corner_mcs(4)),
            Topology::from(Mesh::square_with_proportional_mcs(16)),
            Topology::from(Torus::new(4, 4, &[RouterId(0), RouterId(15)])),
            Topology::from(Torus::square_with_corner_mcs(4)),
            Topology::from(Torus::square_with_corner_mcs(6)),
            Topology::from(Ring::with_spread_mcs(9, 3)),
            Topology::from(Ring::with_spread_mcs(16, 4)),
            Topology::from(Ring::with_spread_mcs(36, 4)),
            Topology::from(CMesh::with_corner_mcs(3, 2, 2)),
            Topology::from(CMesh::with_corner_mcs(4, 2, 2)),
            Topology::from(CMesh::with_corner_mcs(2, 2, 4)),
            Topology::from(CMesh::with_corner_mcs(4, 4, 4)),
            Topology::from(CMesh::with_corner_mcs(8, 8, 4)),
        ] {
            let tables = RoutingTables::build(&topo);
            let endpoints: Vec<Endpoint> = topo.endpoints().collect();
            for r in topo.routers() {
                for (i, &ep) in endpoints.iter().enumerate() {
                    assert_eq!(
                        tables.unicast(r, i),
                        topo.unicast_hop(r, ep),
                        "unicast {r} -> {ep} on {}",
                        topo.label()
                    );
                }
                for src_tile in 0..topo.tile_count() {
                    let src = topo.tile_endpoint(src_tile);
                    for arr in [
                        None,
                        Some(Port::North),
                        Some(Port::South),
                        Some(Port::East),
                        Some(Port::West),
                    ] {
                        // The spec is only defined for arrivals with a
                        // physical incoming link.
                        if arr.is_some_and(|p| topo.neighbor(r, p).is_none()) {
                            continue;
                        }
                        assert_eq!(
                            tables.broadcast(src, r, arr),
                            topo.broadcast_hop(src, r, arr),
                            "broadcast src={src} here={r} arr={arr:?} on {}",
                            topo.label()
                        );
                    }
                }
                for port in Port::ALL {
                    assert_eq!(tables.neighbor(r, port), topo.neighbor(r, port));
                }
                assert_eq!(tables.has_mc(r), topo.has_mc(r));
            }
            for (i, ep) in topo.endpoints().enumerate() {
                assert_eq!(tables.endpoint_index(ep), i);
                assert_eq!(tables.endpoint_index(ep), topo.endpoint_index(ep));
            }
            // Local ejection demux agrees with endpoint indexing.
            for r in topo.routers() {
                for k in 0..topo.tiles_per_router() {
                    assert_eq!(
                        tables.local_ep_index(r, Port::tile_slot(k)),
                        topo.endpoint_index(Endpoint::tile_slot(r, k))
                    );
                }
                if topo.has_mc(r) {
                    assert_eq!(
                        tables.local_ep_index(r, Port::Mc),
                        topo.endpoint_index(Endpoint::mc(r))
                    );
                }
            }
        }
    }

    #[test]
    fn vc_class_ranges_partition_the_regular_vcs() {
        assert_eq!(VcClass::Any.regular_range(4), 0..4);
        assert_eq!(VcClass::C0.regular_range(4), 0..2);
        assert_eq!(VcClass::C1.regular_range(4), 2..4);
        assert_eq!(VcClass::C0.regular_range(2), 0..1);
        assert_eq!(VcClass::C1.regular_range(2), 1..2);
    }

    #[test]
    #[should_panic(expected = "needs >= 2 regular VCs")]
    fn single_vc_torus_is_rejected() {
        let mut cfg = NocConfig::scorpio();
        cfg.vnets[1].vcs = 1;
        let topo = Topology::from(Torus::square_with_corner_mcs(4));
        validate_datelines(&topo, &cfg);
    }

    #[test]
    fn mesh_skips_dateline_validation() {
        let mut cfg = NocConfig::scorpio();
        cfg.vnets[1].vcs = 1;
        validate_datelines(&Topology::from(Mesh::new(2, 2, &[])), &cfg);
    }
}
