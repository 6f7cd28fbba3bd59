//! Sinkhole watch: the paper's §7 future-work scenario, live.
//!
//! A defender who reverse-engineered a DGA family sinkholes the family's
//! daily candidate list; infected clients polling for their C&C are
//! redirected to the analysis server and identified from the query stream,
//! while clean clients producing ordinary NXDomain noise stay untouched.
//!
//! ```text
//! cargo run --example sinkhole_watch
//! ```

use std::net::Ipv4Addr;

use nxdomain::dga::{all_families, DgaDetector, StreamDetector};
use nxdomain::sim::{Resolver, ResolverConfig, SimDns, SimDuration, SimTime, Sinkhole};
use nxdomain::wire::{Name, RType};

fn main() {
    let start = SimTime::from_ymd(2022, 9, 1);
    let dns = SimDns::new(&["com", "net", "org", "ru", "info"], start);
    let mut resolver = Resolver::new(ResolverConfig::default());
    let mut sinkhole = Sinkhole::new(Ipv4Addr::new(198, 51, 100, 53));

    // The reverse-engineered family: today's candidates go on the watchlist.
    let family = &all_families()[2]; // the date-hash (Locky-like) family
    let candidates = family.generate(0x5EED, (2022, 9, 1), 100);
    sinkhole.watch_all(candidates.iter().filter_map(|c| c.parse::<Name>().ok()));
    println!(
        "sinkholed {} candidates of family '{}' for 2022-09-01; first: {}",
        sinkhole.watchlist_len(),
        family.name(),
        candidates[0]
    );

    // Three infected clients walk the list; one clean client fat-fingers.
    let mut t = start;
    for (client, label) in [(1u64, "bot-1"), (2, "bot-2"), (3, "bot-3")] {
        for candidate in candidates.iter().take(15) {
            t = t + SimDuration::seconds(11);
            let qname: Name = candidate.parse().unwrap();
            let res = resolver.resolve(&dns, &qname, RType::A, t);
            let after = sinkhole.apply(client, &qname, res, t);
            if candidate == &candidates[0] {
                println!(
                    "{label} asked {qname} → {} {}",
                    after.rcode,
                    after
                        .answers
                        .first()
                        .map(|r| r.rdata.to_string())
                        .unwrap_or_default()
                );
            }
        }
    }
    for typo in ["gogle.com", "facebok.com", "wikipedai.org"] {
        t = t + SimDuration::seconds(11);
        let qname: Name = typo.parse().unwrap();
        let res = resolver.resolve(&dns, &qname, RType::A, t);
        let after = sinkhole.apply(99, &qname, res, t);
        println!("clean-user asked {qname} → {} (untouched)", after.rcode);
    }

    // Analysis server: stream detection over the sinkhole log.
    let mut stream = StreamDetector::new(86_400, DgaDetector::default());
    for event in sinkhole.log() {
        stream.observe_nx(event.client, event.qname.as_str(), event.at.as_secs());
    }
    println!(
        "\nsinkhole log: {} redirected queries from {} clients",
        sinkhole.log().len(),
        stream.client_count()
    );
    for client in stream.infected_clients() {
        let v = stream.verdict_for(client);
        println!(
            "client {client}: INFECTED — {} NXDomains in window, mean DGA score {:.2}, {:.0}% distinct",
            v.nx_in_window,
            v.mean_score,
            v.distinct_fraction * 100.0
        );
    }
    assert_eq!(stream.infected_clients(), vec![1, 2, 3]);
    println!("\nclean client 99 never reached the sinkhole; takedown complete.");
}
