//! The experimental systems of §5.1 and their ablation chain.
//!
//! The paper evaluates five systems. All but plain Storm run on the RDMA
//! fabric; the chain isolates each technique's contribution:
//!
//! | Mode | fabric | messaging | verbs | multicast |
//! |---|---|---|---|---|
//! | `Storm` | TCP | instance-oriented | — | sequential |
//! | `RdmaStorm` | RDMA | instance-oriented | send/recv | sequential |
//! | `WhaleWoc` | RDMA | worker-oriented | send/recv | sequential |
//! | `WhaleWocRdma` | RDMA | worker-oriented | read + ring MR | sequential |
//! | `WhaleFull` | RDMA | worker-oriented | read + ring MR | non-blocking tree |

use whale_dsps::CommMode;
use whale_multicast::Structure;
use whale_sim::{Transport, VerbPolicy};

/// One of the five evaluated systems.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemMode {
    /// Apache Storm: TCP, instance-oriented, sequential sends.
    Storm,
    /// RDMA-based Storm (Yang et al.): RDMA send/recv, instance-oriented.
    RdmaStorm,
    /// Whale with worker-oriented communication only.
    WhaleWoc,
    /// Whale-WOC plus optimized RDMA primitives (one-sided read, ring MR).
    WhaleWocRdma,
    /// Full Whale: + self-adjusting non-blocking multicast.
    WhaleFull,
}

impl SystemMode {
    /// All modes, in ablation order.
    pub const ALL: [SystemMode; 5] = [
        SystemMode::Storm,
        SystemMode::RdmaStorm,
        SystemMode::WhaleWoc,
        SystemMode::WhaleWocRdma,
        SystemMode::WhaleFull,
    ];

    /// The network transport.
    pub fn transport(self) -> Transport {
        match self {
            SystemMode::Storm => Transport::Tcp,
            _ => Transport::Rdma,
        }
    }

    /// The communication mechanism.
    pub fn comm_mode(self) -> CommMode {
        match self {
            SystemMode::Storm | SystemMode::RdmaStorm => CommMode::InstanceOriented,
            _ => CommMode::WorkerOriented,
        }
    }

    /// The verb policy.
    pub fn verb_policy(self) -> VerbPolicy {
        match self {
            SystemMode::Storm => VerbPolicy::TwoSided, // ignored on TCP
            SystemMode::RdmaStorm | SystemMode::WhaleWoc => VerbPolicy::TwoSided,
            SystemMode::WhaleWocRdma | SystemMode::WhaleFull => VerbPolicy::DiffVerbs,
        }
    }

    /// The default multicast structure (`d_star` filled at runtime for the
    /// non-blocking tree).
    pub fn structure(self, d_star: u32) -> Structure {
        match self {
            SystemMode::WhaleFull => Structure::NonBlocking { d_star },
            _ => Structure::Sequential,
        }
    }

    /// Whether the self-adjusting controller runs.
    pub fn adaptive(self) -> bool {
        matches!(self, SystemMode::WhaleFull)
    }

    /// Display label used in report rows (matches the paper's names).
    pub fn label(self) -> &'static str {
        match self {
            SystemMode::Storm => "Storm",
            SystemMode::RdmaStorm => "RDMA-Storm",
            SystemMode::WhaleWoc => "Whale-WOC",
            SystemMode::WhaleWocRdma => "Whale-WOC-RDMA",
            SystemMode::WhaleFull => "Whale",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_sim::Verb;

    #[test]
    fn storm_is_tcp_everything_else_rdma() {
        assert_eq!(SystemMode::Storm.transport(), Transport::Tcp);
        for m in &SystemMode::ALL[1..] {
            assert_eq!(m.transport(), Transport::Rdma, "{m:?}");
        }
    }

    #[test]
    fn messaging_split() {
        assert_eq!(SystemMode::Storm.comm_mode(), CommMode::InstanceOriented);
        assert_eq!(
            SystemMode::RdmaStorm.comm_mode(),
            CommMode::InstanceOriented
        );
        assert_eq!(SystemMode::WhaleWoc.comm_mode(), CommMode::WorkerOriented);
        assert_eq!(SystemMode::WhaleFull.comm_mode(), CommMode::WorkerOriented);
    }

    #[test]
    fn verb_chain() {
        assert_eq!(
            SystemMode::WhaleWoc.verb_policy().data_verb(),
            Verb::SendRecv
        );
        assert_eq!(
            SystemMode::WhaleWocRdma.verb_policy().data_verb(),
            Verb::Read
        );
        assert_eq!(
            SystemMode::WhaleFull.verb_policy().control_verb(),
            Verb::SendRecv,
            "control messages stay two-sided under DiffVerbs"
        );
    }

    #[test]
    fn only_full_whale_is_adaptive() {
        for m in SystemMode::ALL {
            assert_eq!(m.adaptive(), m == SystemMode::WhaleFull, "{m:?}");
        }
    }

    #[test]
    fn structures() {
        assert_eq!(
            SystemMode::WhaleFull.structure(3),
            Structure::NonBlocking { d_star: 3 }
        );
        assert_eq!(SystemMode::Storm.structure(3), Structure::Sequential);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<&str> =
            SystemMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
