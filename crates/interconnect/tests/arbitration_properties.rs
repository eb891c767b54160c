//! Property tests of write-port/bus arbitration: budgets are never
//! exceeded, grants are work-conserving, and Full dominates every
//! restricted scheme.

use pc_isa::{ClusterId, InterconnectScheme};
use pc_xconn::{Interconnect, WriteReq};
use proptest::prelude::*;

/// Requests `reqs` in order on `cycle`, returning one grant flag each.
fn arbitrate(net: &mut Interconnect, cycle: u64, reqs: &[WriteReq]) -> Vec<bool> {
    reqs.iter()
        .map(|r| net.request(cycle, r).granted())
        .collect()
}

fn schemes() -> Vec<InterconnectScheme> {
    InterconnectScheme::all().to_vec()
}

fn budget(s: InterconnectScheme) -> Option<(usize, usize)> {
    match s {
        InterconnectScheme::Full => None,
        InterconnectScheme::TriPort => Some((3, 2)),
        InterconnectScheme::DualPort => Some((2, 1)),
        InterconnectScheme::SinglePort => Some((1, 1)),
        InterconnectScheme::SharedBus => Some((2, 1)),
    }
}

proptest! {
    /// Grants never exceed the per-file total or bused budgets, nor the
    /// machine-wide bus for Shared-Bus.
    #[test]
    fn grants_respect_budgets(
        reqs in prop::collection::vec((0u16..4, 0u16..4), 0..24),
        scheme_idx in 0usize..5,
    ) {
        let scheme = schemes()[scheme_idx];
        let mut net = Interconnect::new(scheme, 4);
        let reqs: Vec<WriteReq> = reqs
            .into_iter()
            .map(|(s, d)| WriteReq {
                src_cluster: ClusterId(s),
                dst_cluster: ClusterId(d),
            })
            .collect();
        let grants = arbitrate(&mut net, 0, &reqs);
        prop_assert_eq!(grants.len(), reqs.len());
        if let Some((total, bused)) = budget(scheme) {
            for dst in 0..4u16 {
                let granted: Vec<&WriteReq> = reqs
                    .iter()
                    .zip(&grants)
                    .filter(|(r, &g)| g && r.dst_cluster.0 == dst)
                    .map(|(r, _)| r)
                    .collect();
                prop_assert!(granted.len() <= total, "{scheme}: file {dst} over total");
                let remote = granted.iter().filter(|r| !r.is_local()).count();
                prop_assert!(remote <= bused, "{scheme}: file {dst} over bused");
            }
            if scheme == InterconnectScheme::SharedBus {
                let remote_total = reqs
                    .iter()
                    .zip(&grants)
                    .filter(|(r, &g)| g && !r.is_local())
                    .count();
                prop_assert!(remote_total <= 1, "shared bus over-granted");
            }
        } else {
            prop_assert!(grants.iter().all(|&g| g));
        }
    }

    /// Work conservation: a denied request re-offered alone on a fresh
    /// cycle is granted (ports exist; it was only contention).
    #[test]
    fn denied_requests_succeed_alone(
        reqs in prop::collection::vec((0u16..4, 0u16..4), 1..16),
        scheme_idx in 0usize..5,
    ) {
        let scheme = schemes()[scheme_idx];
        let mut net = Interconnect::new(scheme, 4);
        let reqs: Vec<WriteReq> = reqs
            .into_iter()
            .map(|(s, d)| WriteReq {
                src_cluster: ClusterId(s),
                dst_cluster: ClusterId(d),
            })
            .collect();
        let grants = arbitrate(&mut net, 0, &reqs);
        for (cycle, (r, g)) in (1..).zip(reqs.iter().zip(grants)) {
            if !g {
                prop_assert!(
                    net.request(cycle, r).granted(),
                    "{scheme}: denied request failed alone"
                );
            }
        }
    }

    /// Full grants a superset of every restricted scheme, and grant
    /// counts are monotone in the port budget (Tri ≥ Dual ≥ Single).
    #[test]
    fn grant_counts_are_monotone_in_budget(
        reqs in prop::collection::vec((0u16..4, 0u16..4), 0..24),
    ) {
        let reqs: Vec<WriteReq> = reqs
            .into_iter()
            .map(|(s, d)| WriteReq {
                src_cluster: ClusterId(s),
                dst_cluster: ClusterId(d),
            })
            .collect();
        let count = |scheme| {
            let mut net = Interconnect::new(scheme, 4);
            arbitrate(&mut net, 0, &reqs).into_iter().filter(|&g| g).count()
        };
        let full = count(InterconnectScheme::Full);
        let tri = count(InterconnectScheme::TriPort);
        let dual = count(InterconnectScheme::DualPort);
        let single = count(InterconnectScheme::SinglePort);
        prop_assert_eq!(full, reqs.len());
        prop_assert!(tri >= dual, "tri {tri} < dual {dual}");
        prop_assert!(dual >= single, "dual {dual} < single {single}");
    }

    /// Stats add up: grants + denials == requests, across many cycles.
    #[test]
    fn stats_are_consistent(
        cycles in prop::collection::vec(
            prop::collection::vec((0u16..4, 0u16..4), 0..10),
            1..10,
        ),
        scheme_idx in 0usize..5,
    ) {
        let scheme = schemes()[scheme_idx];
        let mut net = Interconnect::new(scheme, 4);
        let mut total = 0u64;
        for (cycle, batch) in (0..).zip(cycles) {
            let reqs: Vec<WriteReq> = batch
                .into_iter()
                .map(|(s, d)| WriteReq {
                    src_cluster: ClusterId(s),
                    dst_cluster: ClusterId(d),
                })
                .collect();
            total += reqs.len() as u64;
            arbitrate(&mut net, cycle, &reqs);
        }
        let s = net.stats();
        prop_assert_eq!(s.grants + s.denials, total);
        prop_assert!(s.remote_grants <= s.grants);
    }
}
