//! Lifecycle watch: a domain's full journey through ICANN's Expired
//! Registration Recovery Policy (paper §2), with every registry event —
//! expiration notices, the auto-renew and redemption grace periods,
//! pending-delete, release, and a drop-catch re-registration.
//!
//! ```text
//! cargo run --example lifecycle_watch
//! ```

use nxdomain::sim::{EventKind, Registry, SimDuration, SimTime};
use nxdomain::wire::Name;

fn main() {
    let start = SimTime::from_ymd(2020, 6, 1);
    let mut registry = Registry::new(start);
    let domain: Name = "beloved-project.com".parse().unwrap();

    registry
        .register(&domain, "original-owner", "namecheap", 1)
        .unwrap();
    // A speculator watches the name with a drop-catching service (§2).
    registry.drop_catch(&domain, "speculator-llc");

    // Walk a day at a time for 500 days and narrate every event.
    for day in 1..=500u64 {
        registry.tick(start + SimDuration::days(day));
        for event in registry.drain_events() {
            let phase = registry.phase(&event.domain);
            let what = match &event.kind {
                EventKind::Registered {
                    owner,
                    registrar,
                    expires,
                } => {
                    format!("registered to {owner} via {registrar}, expires {expires}")
                }
                EventKind::Renewed { expires } => format!("renewed until {expires}"),
                EventKind::ExpirationNotice { number } => {
                    format!("expiration notice {number}/3 sent to owner")
                }
                EventKind::Expired => {
                    "EXPIRED — name stops resolving (NXDomain from now on)".into()
                }
                EventKind::EnteredRedemption => {
                    "entered the 30-day Redemption Grace Period (restore fee applies)".into()
                }
                EventKind::Restored { expires } => format!("restored, expires {expires}"),
                EventKind::PendingDelete => "pending delete (5 days)".into(),
                EventKind::Released => "released to the public pool".into(),
                EventKind::DropCaught { catcher } => {
                    format!("DROP-CAUGHT instantly by {catcher}")
                }
            };
            println!("{}  [{phase:?}] {what}", event.at);
        }
    }

    println!(
        "\nfinal state: {:?}, owner view: {:?}",
        registry.phase(&domain),
        registry
            .whois_view(&domain)
            .map(|(owner, registrar, ..)| (owner, registrar))
    );
    println!(
        "\nThis 445-day arc (365 term + 45 auto-renew grace + 30 redemption + 5\n\
         pending-delete) is why the paper's §3.3 six-months-NX criterion\n\
         guarantees a domain is genuinely abandoned, not accidentally lapsed."
    );
}
