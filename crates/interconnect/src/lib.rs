//! # pc-xconn — the unit interconnection network
//!
//! Function units place results directly into register files — their own
//! cluster's or a remote cluster's. Because "the number of buses and
//! register input ports required to support fully connected function units
//! is prohibitively expensive" (paper §4, *Restricting Communication*),
//! the network's write-port and bus budget is configurable. This crate
//! implements per-cycle arbitration for the five schemes of Figure 6
//! ([`pc_isa::InterconnectScheme`]) plus the area model behind the paper's
//! "Tri-Port is 28% of full connection" claim.
//!
//! The simulator asks [`Interconnect::request`] for a port for each
//! register write, oldest first, as results complete and as denied writes
//! retry; a denied write waits for a later cycle (holding a slot in its
//! function unit's writeback buffer). Budgets reset when the cycle
//! changes.
//!
//! ```
//! use pc_isa::{ClusterId, InterconnectScheme};
//! use pc_xconn::{Interconnect, PortDecision, WriteReq};
//!
//! let mut net = Interconnect::new(InterconnectScheme::SinglePort, 4);
//! let a = WriteReq { src_cluster: ClusterId(0), dst_cluster: ClusterId(1) };
//! let b = WriteReq { src_cluster: ClusterId(2), dst_cluster: ClusterId(1) };
//! // One write port on cluster 1: the first request wins it.
//! assert_eq!(net.request(0, &a), PortDecision::Granted);
//! assert_eq!(net.request(0, &b), PortDecision::DeniedPortFull);
//! // The next cycle brings a fresh budget.
//! assert_eq!(net.request(1, &b), PortDecision::Granted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;

use pc_isa::{ClusterId, InterconnectScheme};

/// One register write wanting to retire this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReq {
    /// Cluster of the producing function unit.
    pub src_cluster: ClusterId,
    /// Cluster whose register file is written.
    pub dst_cluster: ClusterId,
}

impl WriteReq {
    /// True when the write stays within the producing cluster.
    pub fn is_local(&self) -> bool {
        self.src_cluster == self.dst_cluster
    }
}

/// Why one write request was granted or denied, as returned by
/// [`Interconnect::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDecision {
    /// The write retires this cycle.
    Granted,
    /// Denied: the destination file's write ports are all taken.
    DeniedPortFull,
    /// Denied: a bus was required (remote write, or a local write that
    /// had to borrow a bused port) and no bus capacity remained.
    DeniedBusBusy,
}

impl PortDecision {
    /// True when the write was granted.
    pub fn granted(self) -> bool {
        self == PortDecision::Granted
    }
}

/// Contention statistics accumulated across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XconnStats {
    /// Writes granted.
    pub grants: u64,
    /// Write attempts denied (each retry counts again).
    pub denials: u64,
    /// Granted writes that crossed clusters.
    pub remote_grants: u64,
    /// Denials because every write port of the file was taken.
    pub denied_port_full: u64,
    /// Denials because bus capacity (bused ports, or the machine-wide
    /// shared bus) was exhausted.
    pub denied_bus_busy: u64,
}

impl XconnStats {
    /// Fraction of attempts denied.
    pub fn denial_rate(&self) -> f64 {
        let total = self.grants + self.denials;
        if total == 0 {
            0.0
        } else {
            self.denials as f64 / total as f64
        }
    }
}

/// Per-cycle write-port / bus arbiter for one interconnect scheme.
///
/// Each register file has a total write-port budget; ports fed by global
/// buses are additionally usable only for traffic that can reach them.
/// A *local* writer sits next to the file and can drive any free port
/// (including borrowing a globally bused one); a *remote* writer must
/// arrive over a bus, so it can only use the bused ports:
///
/// | Scheme       | total ports/file | bused ports/file | machine-wide bus |
/// |--------------|------------------|------------------|------------------|
/// | Full         | unlimited        | unlimited        | —                |
/// | Tri-Port     | 3                | 2                | —                |
/// | Dual-Port    | 2                | 1                | —                |
/// | Single-Port  | 1                | 1 ("any function unit can use the port") | — |
/// | Shared-Bus   | 2                | 1                | ≤ 1 remote write/cycle |
#[derive(Debug, Clone)]
pub struct Interconnect {
    scheme: InterconnectScheme,
    n_clusters: usize,
    stats: XconnStats,
    /// The cycle the budgets below were spent in.
    cycle: u64,
    total_used: Vec<u32>,
    bused_used: Vec<u32>,
    shared_bus_used: bool,
}

impl Interconnect {
    /// Creates an arbiter for `n_clusters` register files.
    pub fn new(scheme: InterconnectScheme, n_clusters: usize) -> Self {
        Interconnect {
            scheme,
            n_clusters,
            stats: XconnStats::default(),
            cycle: 0,
            total_used: vec![0; n_clusters],
            bused_used: vec![0; n_clusters],
            shared_bus_used: false,
        }
    }

    /// The scheme in force.
    pub fn scheme(&self) -> InterconnectScheme {
        self.scheme
    }

    /// `(total ports, bused ports)` per register file, or `None` for
    /// unlimited (Full).
    fn budget(&self) -> Option<(u32, u32)> {
        match self.scheme {
            InterconnectScheme::Full => None,
            InterconnectScheme::TriPort => Some((3, 2)),
            InterconnectScheme::DualPort => Some((2, 1)),
            InterconnectScheme::SinglePort => Some((1, 1)),
            InterconnectScheme::SharedBus => Some((2, 1)),
        }
    }

    /// Decides one write request against what is left of `cycle`'s port
    /// and bus budgets, spending from them on a grant, and updates the
    /// statistics. Requests are decided in the order made (the simulator
    /// makes them oldest first, so no write starves); the first request
    /// of a new cycle starts from fresh budgets.
    ///
    /// # Panics
    /// Panics if the request names a cluster outside `0..n_clusters`.
    #[inline]
    pub fn request(&mut self, cycle: u64, r: &WriteReq) -> PortDecision {
        let d = r.dst_cluster.0 as usize;
        assert!(d < self.n_clusters, "cluster {d} out of range");
        let decision = match self.budget() {
            None => PortDecision::Granted,
            Some((total, bused)) => {
                if cycle != self.cycle {
                    self.cycle = cycle;
                    self.total_used.fill(0);
                    self.bused_used.fill(0);
                    self.shared_bus_used = false;
                }
                if self.total_used[d] >= total {
                    PortDecision::DeniedPortFull
                } else if r.is_local() {
                    // Local writers drive any free port; prefer the
                    // non-bused one so buses stay free for remotes.
                    let non_bused = total - bused;
                    if self.total_used[d] - self.bused_used[d] < non_bused {
                        self.total_used[d] += 1;
                        PortDecision::Granted
                    } else if self.bused_used[d] < bused
                        && (self.scheme != InterconnectScheme::SharedBus || !self.shared_bus_used)
                    {
                        // Borrow a bused port (over the shared bus if
                        // that's the scheme's transport).
                        if self.scheme == InterconnectScheme::SharedBus {
                            self.shared_bus_used = true;
                        }
                        self.bused_used[d] += 1;
                        self.total_used[d] += 1;
                        PortDecision::Granted
                    } else {
                        // Ports remain in total, so what ran out was bus
                        // capacity: the bused ports or the shared bus.
                        PortDecision::DeniedBusBusy
                    }
                } else {
                    // Remote writers need a bused port (and the shared
                    // bus, when that is the transport).
                    if self.bused_used[d] < bused
                        && (self.scheme != InterconnectScheme::SharedBus || !self.shared_bus_used)
                    {
                        if self.scheme == InterconnectScheme::SharedBus {
                            self.shared_bus_used = true;
                        }
                        self.bused_used[d] += 1;
                        self.total_used[d] += 1;
                        PortDecision::Granted
                    } else {
                        PortDecision::DeniedBusBusy
                    }
                }
            }
        };
        match decision {
            PortDecision::Granted => {
                self.stats.grants += 1;
                if !r.is_local() {
                    self.stats.remote_grants += 1;
                }
            }
            PortDecision::DeniedPortFull => {
                self.stats.denials += 1;
                self.stats.denied_port_full += 1;
            }
            PortDecision::DeniedBusBusy => {
                self.stats.denials += 1;
                self.stats.denied_bus_busy += 1;
            }
        }
        decision
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> XconnStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(src: u16, dst: u16) -> WriteReq {
        WriteReq {
            src_cluster: ClusterId(src),
            dst_cluster: ClusterId(dst),
        }
    }

    /// Requests `reqs` in order on `cycle`, returning each decision.
    fn decide(net: &mut Interconnect, cycle: u64, reqs: &[WriteReq]) -> Vec<PortDecision> {
        reqs.iter().map(|r| net.request(cycle, r)).collect()
    }

    /// [`decide`] collapsed to grant flags.
    fn grants(net: &mut Interconnect, cycle: u64, reqs: &[WriteReq]) -> Vec<bool> {
        decide(net, cycle, reqs)
            .iter()
            .map(|d| d.granted())
            .collect()
    }

    #[test]
    fn full_grants_everything() {
        let mut net = Interconnect::new(InterconnectScheme::Full, 4);
        let reqs: Vec<_> = (0..16).map(|i| req(i % 4, (i + 1) % 4)).collect();
        assert!(grants(&mut net, 0, &reqs).into_iter().all(|g| g));
        assert_eq!(net.stats().denials, 0);
        assert_eq!(net.stats().grants, 16);
        assert_eq!(net.stats().remote_grants, 16);
    }

    #[test]
    fn triport_is_three_ports_with_two_bused() {
        let mut net = Interconnect::new(InterconnectScheme::TriPort, 4);
        let reqs = vec![
            req(1, 1), // local on the non-bused port: ok
            req(1, 1), // second local borrows a bused port: ok
            req(0, 1), // remote on the last bused port: ok
            req(2, 1), // no ports left: denied
            req(3, 1), // denied
        ];
        assert_eq!(
            grants(&mut net, 0, &reqs),
            vec![true, true, true, false, false]
        );
        // Remotes can never exceed the bused budget even when the file's
        // total budget is free.
        let reqs = vec![req(0, 1), req(2, 1), req(3, 1)];
        assert_eq!(grants(&mut net, 1, &reqs), vec![true, true, false]);
    }

    #[test]
    fn dualport_allows_one_local_one_remote() {
        let mut net = Interconnect::new(InterconnectScheme::DualPort, 4);
        let reqs = vec![req(1, 1), req(0, 1), req(2, 1)];
        assert_eq!(grants(&mut net, 0, &reqs), vec![true, true, false]);
    }

    #[test]
    fn singleport_contends_local_and_remote() {
        let mut net = Interconnect::new(InterconnectScheme::SinglePort, 4);
        let reqs = vec![req(1, 1), req(0, 1)];
        assert_eq!(grants(&mut net, 0, &reqs), vec![true, false]);
        // Different register files don't interfere.
        let reqs = vec![req(0, 1), req(0, 2), req(0, 3)];
        assert_eq!(grants(&mut net, 1, &reqs), vec![true, true, true]);
    }

    #[test]
    fn shared_bus_is_machine_wide() {
        let mut net = Interconnect::new(InterconnectScheme::SharedBus, 4);
        // Two remote writes to *different* clusters still conflict: one bus.
        let reqs = vec![req(0, 1), req(2, 3)];
        assert_eq!(grants(&mut net, 0, &reqs), vec![true, false]);
        // Locals are unaffected by the bus.
        let reqs = vec![req(0, 0), req(1, 1), req(2, 3)];
        assert_eq!(grants(&mut net, 1, &reqs), vec![true, true, true]);
    }

    #[test]
    fn budgets_reset_each_cycle() {
        let mut net = Interconnect::new(InterconnectScheme::SinglePort, 2);
        // Within a cycle the budget accumulates across requests…
        assert_eq!(net.request(0, &req(0, 0)), PortDecision::Granted);
        assert_eq!(net.request(0, &req(0, 0)), PortDecision::DeniedPortFull);
        // …and a new cycle resets it, the shared bus included.
        assert_eq!(net.request(1, &req(0, 0)), PortDecision::Granted);
        let mut bus = Interconnect::new(InterconnectScheme::SharedBus, 4);
        assert_eq!(
            grants(&mut bus, 5, &[req(0, 1), req(2, 3)]),
            vec![true, false]
        );
        assert_eq!(bus.request(6, &req(2, 3)), PortDecision::Granted);
    }

    #[test]
    fn stats_track_denials_and_remotes() {
        let mut net = Interconnect::new(InterconnectScheme::DualPort, 4);
        decide(&mut net, 0, &[req(0, 1), req(2, 1), req(3, 1)]);
        let s = net.stats();
        assert_eq!(s.grants, 1);
        assert_eq!(s.denials, 2);
        assert_eq!(s.remote_grants, 1);
        assert!((s.denial_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn denials_are_classified_by_port_or_bus() {
        let reqs = vec![
            req(1, 1), // local: non-bused port
            req(0, 1), // remote: the bused port
            req(2, 1), // remote: no ports left
            req(3, 1), // remote: likewise
        ];
        let mut net = Interconnect::new(InterconnectScheme::DualPort, 4);
        let decisions = decide(&mut net, 0, &reqs);
        // All ports taken: denial blames the port budget.
        assert_eq!(decisions[2], PortDecision::DeniedPortFull);
        // Ports free but bused capacity exhausted: denial blames the bus.
        let mut net = Interconnect::new(InterconnectScheme::TriPort, 4);
        let d = decide(&mut net, 0, &[req(0, 1), req(2, 1), req(3, 1)]);
        assert_eq!(d[2], PortDecision::DeniedBusBusy);
        // A third local writer on a saturated file is port contention.
        let mut net = Interconnect::new(InterconnectScheme::DualPort, 4);
        let d = decide(&mut net, 0, &[req(1, 1), req(1, 1), req(1, 1)]);
        assert_eq!(d[2], PortDecision::DeniedPortFull);
        assert_eq!(net.stats().denied_port_full, 1);
    }

    #[test]
    fn shared_bus_denials_blame_the_bus() {
        let mut net = Interconnect::new(InterconnectScheme::SharedBus, 4);
        let d = decide(&mut net, 0, &[req(0, 1), req(2, 3)]);
        assert_eq!(d, vec![PortDecision::Granted, PortDecision::DeniedBusBusy]);
        assert_eq!(net.stats().denied_bus_busy, 1);
        assert_eq!(net.stats().denied_port_full, 0);
    }

    #[test]
    fn denial_rate_empty_is_zero() {
        assert_eq!(XconnStats::default().denial_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_cluster() {
        let mut net = Interconnect::new(InterconnectScheme::Full, 2);
        net.request(0, &req(0, 5));
    }
}
