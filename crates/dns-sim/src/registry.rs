//! Domain registry: the ICANN Expired Registration Recovery Policy (ERRP)
//! lifecycle described in the paper's §2.
//!
//! A registrable domain moves through:
//!
//! ```text
//! Available --register--> Registered --expiry--> AutoRenewGrace (45 d)
//!      ^                      ^  |                     |
//!      |                renew/restore            RedemptionGrace (30 d)
//!      |                      |                        |
//!      +---- release ---- PendingDelete (5 d) <--------+
//! ```
//!
//! Registrars must notify owners about termination at least three times (two
//! before the expiration date, one after); the registry emits those notices
//! as events. Drop-catching services can watch a domain and re-register it
//! the instant it is released.

use std::collections::{BTreeMap, HashMap};

use nxd_dns_wire::Name;

use crate::time::{SimDuration, SimTime};

/// Length of one registration term.
const TERM: SimDuration = SimDuration::days(365);
/// Auto-renew grace period after expiry, during which a plain renew works.
const AUTO_RENEW_GRACE: SimDuration = SimDuration::days(45);
/// Redemption grace period (restoration fee applies).
const REDEMPTION_GRACE: SimDuration = SimDuration::days(30);
/// Pending-delete window before release.
const PENDING_DELETE: SimDuration = SimDuration::days(5);
/// Days before expiry at which the first and second notices are sent.
const FIRST_NOTICE_DAYS: u64 = 30;
const SECOND_NOTICE_DAYS: u64 = 7;

/// Lifecycle phase of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Available,
    Registered,
    AutoRenewGrace,
    RedemptionGrace,
    PendingDelete,
}

impl Phase {
    /// Whether DNS resolution for the domain still works in this phase.
    ///
    /// During the auto-renew grace period registrars typically park the
    /// domain but the delegation may persist; we model the paper's notion of
    /// "non-existent" conservatively: only `Registered` resolves, so a domain
    /// becomes NXDomain at its expiration instant (matching §4.4's
    /// before/after analysis).
    pub fn resolves(self) -> bool {
        self == Phase::Registered
    }
}

/// A lifecycle event with its subject and timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub at: SimTime,
    pub domain: Name,
    pub kind: EventKind,
}

/// What happened to a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Fresh registration (`years` terms) by `owner` via `registrar`.
    Registered {
        owner: String,
        registrar: String,
        expires: SimTime,
    },
    /// Term extended to `expires`.
    Renewed { expires: SimTime },
    /// Expiration notice n-of-3 (two pre-expiry, one post-expiry).
    ExpirationNotice { number: u8 },
    /// The registration lapsed; the name stops resolving.
    Expired,
    /// Entered the redemption grace period.
    EnteredRedemption,
    /// Owner paid the restoration fee during redemption.
    Restored { expires: SimTime },
    /// Entered pending-delete.
    PendingDelete,
    /// Released back to the available pool.
    Released,
    /// A drop-catch service captured the name at release for `catcher`.
    DropCaught { catcher: String },
}

#[derive(Debug, Clone)]
struct DomainState {
    phase: Phase,
    owner: String,
    registrar: String,
    registered_at: SimTime,
    expires_at: SimTime,
    /// Next scheduled transition (or notice) time.
    next_transition: SimTime,
    notices_sent: u8,
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is already registered (or in a non-available phase).
    NotAvailable(Phase),
    /// The operation requires the domain to exist in the given phase.
    WrongPhase { expected: Phase, actual: Phase },
    /// The domain has no state at all.
    Unknown,
    /// Registrations must be of at least one term.
    BadTerm,
    /// Only two-label registrable names can be registered.
    NotRegistrable,
}

/// The registry for all TLDs in the simulation.
///
/// Time never flows implicitly: callers invoke [`Registry::tick`] to advance
/// to a new instant, which performs every due transition in order and appends
/// the resulting [`Event`]s to the log.
pub struct Registry {
    domains: HashMap<Name, DomainState>,
    /// Transition schedule: time -> domains due at that time.
    schedule: BTreeMap<SimTime, Vec<Name>>,
    /// Drop-catch watchlist: domain -> catcher owner id.
    watchlist: HashMap<Name, String>,
    events: Vec<Event>,
    now: SimTime,
}

impl Registry {
    pub fn new(start: SimTime) -> Self {
        Registry {
            domains: HashMap::new(),
            schedule: BTreeMap::new(),
            watchlist: HashMap::new(),
            events: Vec::new(),
            now: start,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current phase of a name ([`Phase::Available`] if never seen).
    pub fn phase(&self, name: &Name) -> Phase {
        self.domains
            .get(name)
            .map(|d| d.phase)
            .unwrap_or(Phase::Available)
    }

    /// Whether the name currently resolves in DNS.
    pub fn resolves(&self, name: &Name) -> bool {
        self.phase(name).resolves()
    }

    /// Expiration time of a currently registered domain.
    #[cfg(test)]
    fn expires_at(&self, name: &Name) -> Option<SimTime> {
        self.domains
            .get(name)
            .filter(|d| d.phase == Phase::Registered)
            .map(|d| d.expires_at)
    }

    /// Registers an available two-label name for `years` terms.
    pub fn register(
        &mut self,
        name: &Name,
        owner: &str,
        registrar: &str,
        years: u32,
    ) -> Result<SimTime, RegistryError> {
        if years == 0 {
            return Err(RegistryError::BadTerm);
        }
        if name.label_count() != 2 {
            return Err(RegistryError::NotRegistrable);
        }
        let phase = self.phase(name);
        if phase != Phase::Available {
            return Err(RegistryError::NotAvailable(phase));
        }
        let expires = self.now + SimDuration::seconds(TERM.as_seconds() * years as u64);
        let first_notice = expires - SimDuration::days(FIRST_NOTICE_DAYS);
        let state = DomainState {
            phase: Phase::Registered,
            owner: owner.to_string(),
            registrar: registrar.to_string(),
            registered_at: self.now,
            expires_at: expires,
            next_transition: first_notice,
            notices_sent: 0,
        };
        self.schedule
            .entry(first_notice)
            .or_default()
            .push(name.clone());
        self.domains.insert(name.clone(), state);
        self.events.push(Event {
            at: self.now,
            domain: name.clone(),
            kind: EventKind::Registered {
                owner: owner.to_string(),
                registrar: registrar.to_string(),
                expires,
            },
        });
        Ok(expires)
    }

    /// Renews a registered (or auto-renew-grace) domain for `years` more.
    pub fn renew(&mut self, name: &Name, years: u32) -> Result<SimTime, RegistryError> {
        if years == 0 {
            return Err(RegistryError::BadTerm);
        }
        let term = TERM.as_seconds() * years as u64;
        let now = self.now;
        let state = self.domains.get_mut(name).ok_or(RegistryError::Unknown)?;
        match state.phase {
            Phase::Registered | Phase::AutoRenewGrace => {
                let base = state.expires_at.max(now);
                state.expires_at = base + SimDuration::seconds(term);
                state.phase = Phase::Registered;
                state.notices_sent = 0;
                state.next_transition = state.expires_at - SimDuration::days(FIRST_NOTICE_DAYS);
                let expires = state.expires_at;
                let due = state.next_transition;
                self.schedule.entry(due).or_default().push(name.clone());
                self.events.push(Event {
                    at: now,
                    domain: name.clone(),
                    kind: EventKind::Renewed { expires },
                });
                Ok(expires)
            }
            actual => Err(RegistryError::WrongPhase {
                expected: Phase::Registered,
                actual,
            }),
        }
    }

    /// Restores a domain from the redemption grace period (restoration fee
    /// abstracted away), re-registering for one term from now.
    pub fn restore(&mut self, name: &Name) -> Result<SimTime, RegistryError> {
        let term = TERM.as_seconds();
        let now = self.now;
        let state = self.domains.get_mut(name).ok_or(RegistryError::Unknown)?;
        match state.phase {
            Phase::RedemptionGrace => {
                state.phase = Phase::Registered;
                state.expires_at = now + SimDuration::seconds(term);
                state.notices_sent = 0;
                state.next_transition = state.expires_at - SimDuration::days(FIRST_NOTICE_DAYS);
                let expires = state.expires_at;
                let due = state.next_transition;
                self.schedule.entry(due).or_default().push(name.clone());
                self.events.push(Event {
                    at: now,
                    domain: name.clone(),
                    kind: EventKind::Restored { expires },
                });
                Ok(expires)
            }
            actual => Err(RegistryError::WrongPhase {
                expected: Phase::RedemptionGrace,
                actual,
            }),
        }
    }

    /// Registers interest by a drop-catching service: when the name is
    /// released, it is instantly re-registered to `catcher`.
    pub fn drop_catch(&mut self, name: &Name, catcher: &str) {
        self.watchlist.insert(name.clone(), catcher.to_string());
    }

    /// Advances simulated time to `to`, performing all due transitions.
    ///
    /// # Panics
    /// Panics if `to` is earlier than the current time.
    pub fn tick(&mut self, to: SimTime) {
        assert!(to >= self.now, "time cannot flow backwards");
        loop {
            let due = match self.schedule.first_key_value() {
                Some((&t, _)) if t <= to => t,
                _ => break,
            };
            let names = self.schedule.remove(&due).unwrap_or_default();
            for name in names {
                self.transition(&name, due);
            }
        }
        self.now = to;
    }

    fn transition(&mut self, name: &Name, at: SimTime) {
        let Some(state) = self.domains.get_mut(name) else {
            return;
        };
        // Stale schedule entries (from renewals) are filtered by comparing
        // the stored next_transition.
        if state.next_transition != at {
            return;
        }
        match state.phase {
            Phase::Registered => {
                // Notice sequence, then expiry.
                let second_notice = state.expires_at - SimDuration::days(SECOND_NOTICE_DAYS);
                if state.notices_sent == 0 && at < state.expires_at {
                    state.notices_sent = 1;
                    state.next_transition = second_notice.max(at);
                    let due = state.next_transition;
                    self.schedule.entry(due).or_default().push(name.clone());
                    self.events.push(Event {
                        at,
                        domain: name.clone(),
                        kind: EventKind::ExpirationNotice { number: 1 },
                    });
                } else if state.notices_sent == 1 && at < state.expires_at {
                    state.notices_sent = 2;
                    state.next_transition = state.expires_at;
                    let due = state.next_transition;
                    self.schedule.entry(due).or_default().push(name.clone());
                    self.events.push(Event {
                        at,
                        domain: name.clone(),
                        kind: EventKind::ExpirationNotice { number: 2 },
                    });
                } else {
                    // Expiration instant: stop resolving, enter auto-renew
                    // grace, send the post-expiry notice.
                    state.phase = Phase::AutoRenewGrace;
                    state.next_transition = at + AUTO_RENEW_GRACE;
                    let due = state.next_transition;
                    self.schedule.entry(due).or_default().push(name.clone());
                    self.events.push(Event {
                        at,
                        domain: name.clone(),
                        kind: EventKind::Expired,
                    });
                    self.events.push(Event {
                        at,
                        domain: name.clone(),
                        kind: EventKind::ExpirationNotice { number: 3 },
                    });
                }
            }
            Phase::AutoRenewGrace => {
                state.phase = Phase::RedemptionGrace;
                state.next_transition = at + REDEMPTION_GRACE;
                let due = state.next_transition;
                self.schedule.entry(due).or_default().push(name.clone());
                self.events.push(Event {
                    at,
                    domain: name.clone(),
                    kind: EventKind::EnteredRedemption,
                });
            }
            Phase::RedemptionGrace => {
                state.phase = Phase::PendingDelete;
                state.next_transition = at + PENDING_DELETE;
                let due = state.next_transition;
                self.schedule.entry(due).or_default().push(name.clone());
                self.events.push(Event {
                    at,
                    domain: name.clone(),
                    kind: EventKind::PendingDelete,
                });
            }
            Phase::PendingDelete => {
                self.domains.remove(name);
                self.events.push(Event {
                    at,
                    domain: name.clone(),
                    kind: EventKind::Released,
                });
                if let Some(catcher) = self.watchlist.remove(name) {
                    // Drop-catch: immediate re-registration at release time.
                    let saved_now = self.now;
                    self.now = at;
                    let _ = self.register(name, &catcher, "drop-catch", 1);
                    self.now = saved_now;
                    self.events.push(Event {
                        at,
                        domain: name.clone(),
                        kind: EventKind::DropCaught { catcher },
                    });
                }
            }
            Phase::Available => {}
        }
    }

    /// Drains and returns all events accumulated so far.
    pub fn drain_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Read-only view of accumulated events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// All currently registered (resolving) domains.
    #[cfg(test)]
    fn registered_domains(&self) -> impl Iterator<Item = &Name> {
        self.domains
            .iter()
            .filter(|(_, s)| s.phase == Phase::Registered)
            .map(|(n, _)| n)
    }

    /// Registration metadata for WHOIS-style consumers.
    pub fn whois_view(&self, name: &Name) -> Option<(String, String, SimTime, SimTime, Phase)> {
        self.domains.get(name).map(|s| {
            (
                s.owner.clone(),
                s.registrar.clone(),
                s.registered_at,
                s.expires_at,
                s.phase,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn registry() -> Registry {
        Registry::new(SimTime::ERA_START)
    }

    fn kinds_for(reg: &Registry, name: &Name) -> Vec<String> {
        reg.events()
            .iter()
            .filter(|e| &e.domain == name)
            .map(|e| {
                format!("{:?}", e.kind)
                    .split(['{', ' '])
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn register_and_resolve() {
        let mut reg = registry();
        let d = n("example.com");
        let expires = reg.register(&d, "alice", "godaddy", 1).unwrap();
        assert_eq!(reg.phase(&d), Phase::Registered);
        assert!(reg.resolves(&d));
        assert_eq!(expires, SimTime::ERA_START + SimDuration::days(365));
        assert_eq!(reg.expires_at(&d), Some(expires));
    }

    #[test]
    fn double_registration_fails() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        assert_eq!(
            reg.register(&d, "bob", "namecheap", 1),
            Err(RegistryError::NotAvailable(Phase::Registered))
        );
    }

    #[test]
    fn only_registrable_names() {
        let mut reg = registry();
        assert_eq!(
            reg.register(&n("www.example.com"), "a", "r", 1),
            Err(RegistryError::NotRegistrable)
        );
        assert_eq!(
            reg.register(&n("com"), "a", "r", 1),
            Err(RegistryError::NotRegistrable)
        );
        assert_eq!(
            reg.register(&n("x.com"), "a", "r", 0),
            Err(RegistryError::BadTerm)
        );
    }

    #[test]
    fn full_lifecycle_to_release() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        // 365 (term) + 45 (ARGP) + 30 (RGP) + 5 (PD) = 445 days to release.
        reg.tick(SimTime::ERA_START + SimDuration::days(444));
        assert_eq!(reg.phase(&d), Phase::PendingDelete);
        reg.tick(SimTime::ERA_START + SimDuration::days(445));
        assert_eq!(reg.phase(&d), Phase::Available);

        let kinds = kinds_for(&reg, &d);
        assert_eq!(
            kinds,
            vec![
                "Registered",
                "ExpirationNotice", // -30 d
                "ExpirationNotice", // -7 d
                "Expired",
                "ExpirationNotice", // post-expiry
                "EnteredRedemption",
                "PendingDelete",
                "Released",
            ]
        );
    }

    #[test]
    fn resolution_stops_exactly_at_expiry() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        reg.tick(SimTime::ERA_START + SimDuration::days(364));
        assert!(reg.resolves(&d));
        reg.tick(SimTime::ERA_START + SimDuration::days(365));
        assert!(!reg.resolves(&d));
        assert_eq!(reg.phase(&d), Phase::AutoRenewGrace);
    }

    #[test]
    fn renew_extends_term_and_resets_notices() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        // Renew at day 300 for one more year: expiry moves to day 730.
        reg.tick(SimTime::ERA_START + SimDuration::days(300));
        reg.renew(&d, 1).unwrap();
        reg.tick(SimTime::ERA_START + SimDuration::days(729));
        assert!(reg.resolves(&d));
        reg.tick(SimTime::ERA_START + SimDuration::days(731));
        assert!(!reg.resolves(&d));
    }

    #[test]
    fn renew_during_auto_renew_grace() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        reg.tick(SimTime::ERA_START + SimDuration::days(380)); // inside ARGP
        assert_eq!(reg.phase(&d), Phase::AutoRenewGrace);
        reg.renew(&d, 1).unwrap();
        assert_eq!(reg.phase(&d), Phase::Registered);
        assert!(reg.resolves(&d));
    }

    #[test]
    fn restore_during_redemption() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        reg.tick(SimTime::ERA_START + SimDuration::days(365 + 46));
        assert_eq!(reg.phase(&d), Phase::RedemptionGrace);
        // A plain renew is not allowed in RGP.
        assert!(matches!(
            reg.renew(&d, 1),
            Err(RegistryError::WrongPhase { .. })
        ));
        reg.restore(&d).unwrap();
        assert_eq!(reg.phase(&d), Phase::Registered);
    }

    #[test]
    fn drop_catch_captures_at_release() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        reg.drop_catch(&d, "speculator");
        reg.tick(SimTime::ERA_START + SimDuration::days(446));
        assert_eq!(reg.phase(&d), Phase::Registered);
        let (owner, registrar, _, _, _) = reg.whois_view(&d).unwrap();
        assert_eq!(owner, "speculator");
        assert_eq!(registrar, "drop-catch");
        let kinds = kinds_for(&reg, &d);
        assert!(kinds.contains(&"Released".to_string()));
        assert!(kinds.contains(&"DropCaught".to_string()));
    }

    #[test]
    fn reregistration_after_release() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        reg.tick(SimTime::ERA_START + SimDuration::days(500));
        assert_eq!(reg.phase(&d), Phase::Available);
        reg.register(&d, "bob", "namecheap", 2).unwrap();
        assert!(reg.resolves(&d));
    }

    #[test]
    fn tick_is_idempotent_at_same_instant() {
        let mut reg = registry();
        let d = n("example.com");
        reg.register(&d, "alice", "godaddy", 1).unwrap();
        reg.tick(SimTime::ERA_START + SimDuration::days(400));
        let events_before = reg.events().len();
        reg.tick(SimTime::ERA_START + SimDuration::days(400));
        assert_eq!(reg.events().len(), events_before);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_cannot_reverse() {
        let mut reg = registry();
        reg.tick(SimTime::ERA_START + SimDuration::days(10));
        reg.tick(SimTime::ERA_START);
    }

    #[test]
    fn registered_domains_iterator() {
        let mut reg = registry();
        reg.register(&n("a.com"), "x", "r", 1).unwrap();
        reg.register(&n("b.net"), "y", "r", 1).unwrap();
        let mut names: Vec<_> = reg.registered_domains().map(|n| n.to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["a.com", "b.net"]);
    }

    #[test]
    fn drain_events_empties_log() {
        let mut reg = registry();
        reg.register(&n("a.com"), "x", "r", 1).unwrap();
        assert_eq!(reg.drain_events().len(), 1);
        assert!(reg.events().is_empty());
    }
}
