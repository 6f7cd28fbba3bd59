//! NXDomain-stream DGA detection — the FANCI-style baseline (Schüppen et
//! al., USENIX Security 2018; the paper's reference \[83\] and the approach of
//! Antonakakis et al. \[37\]).
//!
//! Where [`crate::detector::DgaDetector`] classifies single names, a stream
//! detector watches the *sequence* of NXDOMAIN responses one client
//! generates: an infected host asking its DGA for today's rendezvous
//! produces a burst of failed lookups whose names share a statistical
//! signature. This module implements the sliding-window client profiler the
//! paper's §7 sinkhole plan would attach to DNS traffic, and doubles as the
//! baseline comparator for the per-name detector.

use std::collections::{HashMap, VecDeque};

use crate::detector::DgaDetector;

/// One client's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientVerdict {
    /// Whether the client's NXDomain stream looks DGA-infected.
    pub infected: bool,
    /// NXDOMAIN responses inside the window.
    pub nx_in_window: usize,
    /// Mean per-name DGA score over the window.
    pub mean_score: f64,
    /// Distinct second-level names in the window (DGAs rarely repeat).
    pub distinct_fraction: f64,
}

/// Minimum NXDOMAIN responses in the window before judging.
const MIN_BURST: usize = 10;
/// Mean per-name score above which a burst is DGA-like.
const SCORE_THRESHOLD: f64 = 2.0;
/// Minimum fraction of distinct names (repeated lookups of one dead name
/// are residual traffic, not a DGA).
const MIN_DISTINCT: f64 = 0.8;

/// Per-client sliding window of NXDOMAIN observations.
#[derive(Debug, Default)]
struct ClientWindow {
    /// `(timestamp, name, score)` in arrival order.
    events: VecDeque<(u64, String, f64)>,
}

/// The stream detector. Clients are identified by an opaque `u64`
/// (source address hash, subscriber id, …).
pub struct StreamDetector {
    /// Sliding-window length in seconds.
    window_secs: u64,
    detector: DgaDetector,
    clients: HashMap<u64, ClientWindow>,
}

impl StreamDetector {
    /// A detector judging each client over a sliding window of
    /// `window_secs` seconds.
    pub fn new(window_secs: u64, detector: DgaDetector) -> Self {
        StreamDetector {
            window_secs,
            detector,
            clients: HashMap::new(),
        }
    }

    /// Feeds one NXDOMAIN response observed for `client` at `now` (Unix
    /// seconds) and returns the client's current verdict.
    pub fn observe_nx(&mut self, client: u64, qname: &str, now: u64) -> ClientVerdict {
        let score = self.detector.score(qname);
        let window = self.clients.entry(client).or_default();
        window.events.push_back((now, qname.to_string(), score));
        let horizon = now.saturating_sub(self.window_secs);
        while window.events.front().is_some_and(|&(t, _, _)| t < horizon) {
            window.events.pop_front();
        }
        self.verdict_for(client)
    }

    /// The current verdict for a client (without feeding a new event).
    pub fn verdict_for(&self, client: u64) -> ClientVerdict {
        let Some(window) = self.clients.get(&client) else {
            return ClientVerdict {
                infected: false,
                nx_in_window: 0,
                mean_score: 0.0,
                distinct_fraction: 0.0,
            };
        };
        let n = window.events.len();
        if n == 0 {
            return ClientVerdict {
                infected: false,
                nx_in_window: 0,
                mean_score: 0.0,
                distinct_fraction: 0.0,
            };
        }
        let mean_score = window.events.iter().map(|&(_, _, s)| s).sum::<f64>() / n as f64;
        let distinct: std::collections::HashSet<&str> = window
            .events
            .iter()
            .map(|(_, name, _)| name.as_str())
            .collect();
        let distinct_fraction = distinct.len() as f64 / n as f64;
        let infected =
            n >= MIN_BURST && mean_score > SCORE_THRESHOLD && distinct_fraction >= MIN_DISTINCT;
        ClientVerdict {
            infected,
            nx_in_window: n,
            mean_score,
            distinct_fraction,
        }
    }

    /// Number of clients currently tracked.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// All currently infected clients.
    pub fn infected_clients(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .clients
            .keys()
            .copied()
            .filter(|&c| self.verdict_for(c).infected)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::all_families;

    fn detector() -> StreamDetector {
        StreamDetector::new(300, DgaDetector::default())
    }

    #[test]
    fn dga_burst_flags_client() {
        let mut d = detector();
        let fam = &all_families()[0]; // LCG family — easy to score
        let names = fam.generate(77, (2022, 5, 5), 30);
        let mut verdict = None;
        for (i, name) in names.iter().enumerate() {
            verdict = Some(d.observe_nx(1, name, 1_000 + i as u64));
        }
        let v = verdict.unwrap();
        assert!(v.infected, "{v:?}");
        assert!(v.mean_score > 2.0);
        assert!(v.distinct_fraction > 0.9);
        assert_eq!(d.infected_clients(), vec![1]);
    }

    #[test]
    fn typo_burst_does_not_flag() {
        // A user fat-fingering real names produces NXDOMAINs with benign
        // character statistics.
        let mut d = detector();
        let typos = [
            "gogle.com",
            "facebok.com",
            "wikipedai.org",
            "amazn.com",
            "youtub.com",
            "redit.com",
            "netflx.com",
            "linkedn.com",
            "twiter.com",
            "githb.com",
            "spotfy.com",
            "microsft.com",
        ];
        let mut verdict = None;
        for (i, name) in typos.iter().enumerate() {
            verdict = Some(d.observe_nx(2, name, 2_000 + i as u64));
        }
        assert!(!verdict.unwrap().infected);
    }

    #[test]
    fn repeated_dead_name_is_residual_not_dga() {
        // Hammering one expired domain (residual trust traffic) must not
        // trip the detector even if the name scores high.
        let mut d = detector();
        let mut verdict = None;
        for i in 0..40u64 {
            verdict = Some(d.observe_nx(3, "xkqzvwpjh.com", 3_000 + i));
        }
        let v = verdict.unwrap();
        assert!(!v.infected, "{v:?}");
        assert!(v.distinct_fraction < 0.1);
    }

    #[test]
    fn window_expires_old_events() {
        let mut d = detector();
        let fam = &all_families()[0];
        let names = fam.generate(5, (2022, 1, 1), 30);
        for (i, name) in names.iter().enumerate() {
            d.observe_nx(4, name, 1_000 + i as u64);
        }
        assert!(d.verdict_for(4).infected);
        // One lone event far in the future: the burst has aged out.
        let v = d.observe_nx(4, &names[0], 10_000);
        assert_eq!(v.nx_in_window, 1);
        assert!(!v.infected);
    }

    #[test]
    fn below_burst_threshold_never_flags() {
        let mut d = detector();
        let fam = &all_families()[0];
        for (i, name) in fam.generate(9, (2022, 2, 2), 5).iter().enumerate() {
            let v = d.observe_nx(5, name, 100 + i as u64);
            assert!(!v.infected, "only {} events", v.nx_in_window);
        }
    }

    #[test]
    fn clients_are_independent() {
        let mut d = detector();
        let fam = &all_families()[1];
        for (i, name) in fam.generate(12, (2022, 3, 3), 30).iter().enumerate() {
            d.observe_nx(10, name, 500 + i as u64);
        }
        d.observe_nx(11, "google.com", 600);
        assert!(d.verdict_for(10).infected);
        assert!(!d.verdict_for(11).infected);
        assert_eq!(d.client_count(), 2);
        assert_eq!(d.infected_clients(), vec![10]);
    }

    #[test]
    fn unknown_client_default_verdict() {
        let d = detector();
        let v = d.verdict_for(999);
        assert!(!v.infected);
        assert_eq!(v.nx_in_window, 0);
    }
}
