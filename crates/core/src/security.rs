//! §6 — the honeypot experiment driver: filter, categorize, and analyze the
//! six-month capture, producing Table 1 and Figs. 10, 12, 13, 14, 15.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use nxd_dns_sim::ReverseDns;
use nxd_honeypot::{
    Categorizer, ControlGroupProfile, FilterStats, NoHostingBaseline, NoiseFilter, TrafficCategory,
};
use nxd_httpsim::{classify_user_agent, UaClass};
use nxd_telemetry::Telemetry;
use nxd_traffic::botnet::COUNTRY_MIX;
use nxd_traffic::{DomainSpec, HoneypotWorld};

/// One Table 1 row as re-derived by the pipeline.
#[derive(Debug, Clone)]
pub struct DomainTally {
    pub spec: DomainSpec,
    pub counts: HashMap<TrafficCategory, u64>,
    pub total: u64,
    pub filter: FilterStats,
}

/// Fig. 14/15 analysis of the gpclick botnet traffic.
#[derive(Debug, Clone, Default)]
pub struct BotnetReport {
    pub total_requests: u64,
    pub distinct_phones: u64,
    /// Country-code request counts (Fig. 14 bars).
    pub countries: Vec<(String, u64)>,
    /// Requests per continent (Fig. 14 legend groups).
    pub continents: Vec<(&'static str, u64)>,
    /// Phone model counts (§6.4: Nexus 5X / Nexus 5 dominate).
    pub models: Vec<(String, u64)>,
    /// Source hostname classes (Fig. 15; `google-proxy` majority).
    pub hostname_classes: Vec<(String, u64)>,
    /// A Fig. 12-style example request URI with identifiers masked.
    pub example_request: String,
}

/// The full §6 result set.
#[derive(Debug, Clone)]
pub struct SecurityReport {
    pub rows: Vec<DomainTally>,
    pub totals: HashMap<TrafficCategory, u64>,
    pub grand_total: u64,
    /// Fig. 10a: destination-port histogram of the filtered NXDomain
    /// traffic.
    pub ports_nxdomain: Vec<(u16, u64)>,
    /// Fig. 10b: destination-port histogram of the control group (raw).
    pub ports_control: Vec<(u16, u64)>,
    /// Fig. 13: in-app browser mix among user visits.
    pub in_app_mix: Vec<(String, u64)>,
    pub botnet: BotnetReport,
}

/// Runs the complete §6 pipeline over a generated honeypot world.
pub fn run(world: &HoneypotWorld) -> SecurityReport {
    run_with(world, &Telemetry::wall())
}

/// Instrumented variant of [`run`]: the noise filter and every per-domain
/// categorizer attach their counters to the telemetry registry
/// (`honeypot_filter_*`, `honeypot_categorized_total{category=...}`), and
/// the two pipeline stages record spans (`security.profiles`,
/// `security.categorize`).
pub fn run_with(world: &HoneypotWorld, telemetry: &Telemetry) -> SecurityReport {
    let span_profiles = telemetry.span("security.profiles");
    let baseline = NoHostingBaseline::from_packets(&world.baseline_packets);
    let control = ControlGroupProfile::from_packets(&world.control_packets);
    let mut filter = NoiseFilter::new(baseline, control);
    filter.attach_metrics(&telemetry.registry);
    telemetry.journal.info(
        "security",
        "noise profiles built",
        &[
            (
                "baseline_packets",
                &world.baseline_packets.len().to_string(),
            ),
            ("control_packets", &world.control_packets.len().to_string()),
        ],
    );
    drop(span_profiles);
    let _span_categorize = telemetry.span("security.categorize");
    let domains_processed = telemetry.registry.gauge("security_domains_processed");

    let mut rows = Vec::new();
    let mut totals: HashMap<TrafficCategory, u64> = HashMap::new();
    let mut grand_total = 0u64;
    let mut port_counts: HashMap<u16, u64> = HashMap::new();
    let mut in_app: HashMap<String, u64> = HashMap::new();
    let mut botnet = BotnetReport::default();
    let mut phones: HashSet<String> = HashSet::new();
    let mut countries: HashMap<String, u64> = HashMap::new();
    let mut continents: HashMap<&'static str, u64> = HashMap::new();
    let mut models: HashMap<String, u64> = HashMap::new();
    let mut hostclasses: HashMap<String, u64> = HashMap::new();

    for (capture_index, capture) in world.captures.iter().enumerate() {
        let mut categorizer = Categorizer::new(
            capture.spec.name,
            world.webfilter.clone(),
            world.reverse_dns.clone(),
        );
        categorizer.attach_metrics(&telemetry.registry);
        let (kept, stats) = filter.apply(capture.packets.clone());

        // Stream counts over the kept packets of this domain.
        let mut streams: HashMap<(Ipv4Addr, String), u64> = HashMap::new();
        for p in &kept {
            if let Some(req) = p.http_request() {
                *streams.entry((p.src_ip, req.uri.path.clone())).or_insert(0) += 1;
            }
        }

        let mut counts: HashMap<TrafficCategory, u64> = HashMap::new();
        for p in &kept {
            *port_counts.entry(p.dst_port).or_insert(0) += 1;
            let Some(req) = p.http_request() else {
                continue;
            };
            let category = categorizer.categorize(p, &streams);
            *counts.entry(category).or_insert(0) += 1;
            *totals.entry(category).or_insert(0) += 1;
            grand_total += 1;

            if category == TrafficCategory::UserInApp {
                if let Some(UaClass::InAppBrowser { app }) =
                    req.user_agent().map(classify_user_agent)
                {
                    let label = match app.as_str() {
                        "WhatsApp" | "Facebook" | "WeChat" | "Twitter" | "Instagram"
                        | "DingTalk" | "QQ" => app,
                        _ => "Others".to_string(),
                    };
                    *in_app.entry(label).or_insert(0) += 1;
                }
            }

            if capture.spec.name == "gpclick.com" && req.uri.file_name() == "getTask.php" {
                botnet.total_requests += 1;
                if let Some(phone) = req.uri.query_value("phone") {
                    phones.insert(phone.to_string());
                    if let Some((code, _, continent, _)) = req
                        .uri
                        .query_value("country")
                        .and_then(|c| COUNTRY_MIX.iter().find(|(cc, _, _, _)| *cc == c))
                    {
                        *countries.entry(code.to_string()).or_insert(0) += 1;
                        *continents.entry(continent.label()).or_insert(0) += 1;
                    }
                }
                if let Some(model) = req.uri.query_value("model") {
                    *models.entry(model.to_string()).or_insert(0) += 1;
                }
                *hostclasses
                    .entry(hostname_class(p.src_ip, &world.reverse_dns))
                    .or_insert(0) += 1;
                if botnet.example_request.is_empty() {
                    botnet.example_request = masked_example(req);
                }
            }
        }
        let total: u64 = counts.values().sum();
        domains_processed.set(capture_index as i64 + 1);
        telemetry.journal.debug(
            "security",
            "domain categorized",
            &[
                ("domain", capture.spec.name),
                ("categorized", &total.to_string()),
            ],
        );
        rows.push(DomainTally {
            spec: capture.spec,
            counts,
            total,
            filter: stats,
        });
    }
    telemetry.journal.info(
        "security",
        "categorization complete",
        &[
            ("domains", &rows.len().to_string()),
            ("packets", &grand_total.to_string()),
        ],
    );

    botnet.distinct_phones = phones.len() as u64;
    botnet.countries = sorted_desc(countries);
    botnet.continents = {
        let mut v: Vec<_> = continents.into_iter().collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    };
    botnet.models = sorted_desc(models);
    botnet.hostname_classes = sorted_desc(hostclasses);

    // Control-group port histogram (unfiltered: its entire point is showing
    // the noise the filter removes, Fig. 10b).
    let mut control_ports: HashMap<u16, u64> = HashMap::new();
    for p in world
        .control_packets
        .iter()
        .chain(world.baseline_packets.iter())
    {
        *control_ports.entry(p.dst_port).or_insert(0) += 1;
    }

    SecurityReport {
        rows,
        totals,
        grand_total,
        ports_nxdomain: sorted_ports(port_counts),
        ports_control: sorted_ports(control_ports),
        in_app_mix: sorted_desc(in_app),
        botnet,
    }
}

fn sorted_desc(map: HashMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<_> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

fn sorted_ports(map: HashMap<u16, u64>) -> Vec<(u16, u64)> {
    let mut v: Vec<_> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The provider class of a source address: its PTR hostname's leading
/// label with trailing address digits removed (`google-proxy-66-102-…` →
/// `google-proxy`), or `unresolved`.
fn hostname_class(ip: Ipv4Addr, rdns: &ReverseDns) -> String {
    match rdns.lookup(ip) {
        Some(host) => {
            // Strip exactly the four dashed address octets the PTR template
            // appends (`ec2-52-40-1-2` → `ec2`), never legitimate digits in
            // the provider prefix itself.
            let mut class = host.label(0);
            for _ in 0..4 {
                if let Some(pos) = class.rfind('-') {
                    if class[pos + 1..].bytes().all(|b| b.is_ascii_digit())
                        && !class[pos + 1..].is_empty()
                    {
                        class = &class[..pos];
                        continue;
                    }
                }
                break;
            }
            if class.is_empty() {
                host.label(0).to_string()
            } else {
                class.to_string()
            }
        }
        None => "unresolved".to_string(),
    }
}

/// Renders a Fig. 12-style example with the IMEI and phone digits masked
/// (the paper does the same for privacy).
fn masked_example(req: &nxd_httpsim::HttpRequest) -> String {
    let mut parts = Vec::new();
    for (k, v) in &req.uri.query {
        let masked = match k.as_str() {
            "imei" => "A-BBBBBB-CCCCCC-D".to_string(),
            "phone" => "+XXXXXXXXXXX".to_string(),
            _ => v.clone(),
        };
        parts.push(format!("{k}={masked}"));
    }
    format!("{}?{}", req.uri.path, parts.join("&"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_traffic::{honeypot_era, HoneypotConfig};

    fn report() -> SecurityReport {
        let world = honeypot_era::generate(HoneypotConfig {
            scale: 1_000,
            ..Default::default()
        });
        run(&world)
    }

    #[test]
    fn instrumented_run_reports_filter_and_categorizer() {
        let world = honeypot_era::generate(HoneypotConfig {
            scale: 1_000,
            ..Default::default()
        });
        let telemetry = Telemetry::wall();
        let r = run_with(&world, &telemetry);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter_total("honeypot_categorized_total"),
            r.grand_total,
            "every HTTP packet that survives the filter is categorized once"
        );
        // The filter also keeps non-HTTP packets, which never reach the
        // categorizer — so kept >= categorized, and input >= kept.
        let kept = snap.counter_total("honeypot_filter_kept_total");
        assert!(kept >= r.grand_total, "kept {kept} < {}", r.grand_total);
        assert!(snap.counter_total("honeypot_filter_input_total") >= kept);
        let spans = telemetry.tracer.spans();
        let names: Vec<String> = spans.iter().map(|s| s.name.clone()).collect();
        assert!(
            names.iter().any(|n| n == "security.profiles"),
            "spans: {names:?}"
        );
        assert!(
            names.iter().any(|n| n == "security.categorize"),
            "spans: {names:?}"
        );
        // Progress heartbeats: the gauge lands on the domain count and the
        // journal narrates the stage boundaries plus one event per domain.
        assert_eq!(
            snap.gauge_value("security_domains_processed"),
            Some(r.rows.len() as i64),
        );
        let events = telemetry.journal.snapshot();
        let messages: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
        assert!(messages.contains(&"noise profiles built"), "{messages:?}");
        assert!(
            messages.contains(&"categorization complete"),
            "{messages:?}"
        );
        assert_eq!(
            messages
                .iter()
                .filter(|m| **m == "domain categorized")
                .count(),
            r.rows.len(),
        );
    }

    #[test]
    fn nineteen_rows_all_nonempty() {
        let r = report();
        assert_eq!(r.rows.len(), 19);
        for row in &r.rows {
            assert!(row.total > 0, "{} empty after filtering", row.spec.name);
        }
        assert_eq!(r.grand_total, r.rows.iter().map(|r| r.total).sum::<u64>());
    }

    #[test]
    fn script_software_dominates_totals() {
        // Paper: Script & Software is the largest category (4.15 M of 5.9 M).
        let r = report();
        let script = r.totals[&TrafficCategory::ScriptSoftware];
        for (cat, count) in &r.totals {
            if *cat != TrafficCategory::ScriptSoftware {
                assert!(script >= *count, "{cat:?} {count} > script {script}");
            }
        }
    }

    #[test]
    fn http_https_dominate_nxdomain_ports() {
        let r = report();
        let total: u64 = r.ports_nxdomain.iter().map(|&(_, n)| n).sum();
        let web: u64 = r
            .ports_nxdomain
            .iter()
            .filter(|&&(p, _)| p == 80 || p == 443)
            .map(|&(_, n)| n)
            .sum();
        assert!(
            web as f64 / total as f64 > 0.9,
            "web share {}",
            web as f64 / total as f64
        );
        // The AWS monitor port must be filtered out of the NXDomain view...
        assert!(r.ports_nxdomain.iter().all(|&(p, _)| p != 52_646));
        // ...while dominating the control view (Fig. 10b).
        assert_eq!(r.ports_control[0].0, 52_646);
    }

    #[test]
    fn botnet_report_shape() {
        let r = report();
        let b = &r.botnet;
        assert!(b.total_requests > 500, "got {}", b.total_requests);
        assert!(b.distinct_phones > 100);
        // google-proxy carries the majority of requests (Fig. 15).
        assert_eq!(
            b.hostname_classes[0].0,
            "google-proxy",
            "classes: {:?}",
            &b.hostname_classes[..3.min(b.hostname_classes.len())]
        );
        let gp_share = b.hostname_classes[0].1 as f64 / b.total_requests as f64;
        assert!(
            (0.45..0.68).contains(&gp_share),
            "paper 56.1%, got {gp_share}"
        );
        // All four continents appear (Fig. 14).
        assert_eq!(b.continents.len(), 4);
        // Nexus models dominate.
        assert!(b.models[0].0.starts_with("Nexus"));
        assert!(b.example_request.contains("imei=A-BBBBBB-CCCCCC-D"));
        assert!(b.example_request.contains("phone=+XXXXXXXXXXX"));
    }

    #[test]
    fn in_app_mix_whatsapp_leads() {
        // Needs a larger sample than the other tests: Fig. 13's mix only
        // stabilizes with a few hundred in-app visits.
        let world = honeypot_era::generate(HoneypotConfig {
            scale: 50,
            ..Default::default()
        });
        let r = run(&world);
        assert!(!r.in_app_mix.is_empty());
        // Fig. 13: WhatsApp is the largest in-app source (26%).
        assert_eq!(r.in_app_mix[0].0, "WhatsApp", "mix: {:?}", r.in_app_mix);
        let total: u64 = r.in_app_mix.iter().map(|&(_, n)| n).sum();
        let whatsapp = r.in_app_mix[0].1;
        let share = whatsapp as f64 / total as f64;
        assert!((0.18..0.36).contains(&share), "paper 26%, got {share}");
    }

    #[test]
    fn filter_dropped_noise_everywhere() {
        let r = report();
        for row in &r.rows {
            assert!(
                row.filter.dropped_no_hosting + row.filter.dropped_control > 0,
                "{} saw no noise at all",
                row.spec.name
            );
        }
    }
}
