//! The traffic categorizer of §6.2 / Fig. 11, producing exactly Table 1's
//! ten columns.
//!
//! Decision order follows the paper: ① Referer, ② User-Agent, ③ requested
//! URI, ④ source IP (reverse lookup). Repetitive single-URI streams from
//! browser User-Agents are classified as automated — this is what moves
//! `1x-sport-bk7.com`'s Chrome-labelled `status.json` storm into
//! *Script & Software* rather than *User Visit*.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use nxd_telemetry::{Counter, Registry};

use nxd_dns_sim::ReverseDns;
use nxd_httpsim::{classify_user_agent, HttpRequest, UaClass};

use crate::packet::Packet;
use crate::vulndb;
use crate::webfilter::{ReferralKind, WebFilter};

/// Table 1's traffic categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficCategory {
    /// Web Crawler → Search Engine.
    SearchEngineCrawler,
    /// Web Crawler → File Grabber (includes e-mail image crawlers).
    FileGrabber,
    /// Automated Process → Script & Software.
    ScriptSoftware,
    /// Automated Process → Malicious Request (vulnerability probes).
    MaliciousRequest,
    /// Referral → Search Engine.
    ReferralSearchEngine,
    /// Referral → Embedded URL/URI.
    ReferralEmbedded,
    /// Referral → Malicious Link (crafted/invalid referers).
    ReferralMalicious,
    /// User Visit → PC & Mobile browsers.
    UserPcMobile,
    /// User Visit → In-App browsers.
    UserInApp,
    /// Everything else (non-HTTP probes, anonymous connectivity checks).
    Other,
}

impl TrafficCategory {
    pub const ALL: [TrafficCategory; 10] = [
        TrafficCategory::SearchEngineCrawler,
        TrafficCategory::FileGrabber,
        TrafficCategory::ScriptSoftware,
        TrafficCategory::MaliciousRequest,
        TrafficCategory::ReferralSearchEngine,
        TrafficCategory::ReferralEmbedded,
        TrafficCategory::ReferralMalicious,
        TrafficCategory::UserPcMobile,
        TrafficCategory::UserInApp,
        TrafficCategory::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TrafficCategory::SearchEngineCrawler => "Search Engine",
            TrafficCategory::FileGrabber => "File Grabber",
            TrafficCategory::ScriptSoftware => "Script & Software",
            TrafficCategory::MaliciousRequest => "Malicious Request",
            TrafficCategory::ReferralSearchEngine => "Referral: Search Engine",
            TrafficCategory::ReferralEmbedded => "Referral: Embedded URL",
            TrafficCategory::ReferralMalicious => "Referral: Malicious Link",
            TrafficCategory::UserPcMobile => "User: PC & Mobile",
            TrafficCategory::UserInApp => "User: In-App Browser",
            TrafficCategory::Other => "Others",
        }
    }

    /// Machine-friendly identifier, used as the `category` label value on
    /// `honeypot_categorized_total`.
    fn slug(self) -> &'static str {
        match self {
            TrafficCategory::SearchEngineCrawler => "search_engine_crawler",
            TrafficCategory::FileGrabber => "file_grabber",
            TrafficCategory::ScriptSoftware => "script_software",
            TrafficCategory::MaliciousRequest => "malicious_request",
            TrafficCategory::ReferralSearchEngine => "referral_search_engine",
            TrafficCategory::ReferralEmbedded => "referral_embedded",
            TrafficCategory::ReferralMalicious => "referral_malicious",
            TrafficCategory::UserPcMobile => "user_pc_mobile",
            TrafficCategory::UserInApp => "user_in_app",
            TrafficCategory::Other => "other",
        }
    }
}

/// Reverse-DNS providers trusted as crawler infrastructure (§6.2 ④: "if the
/// reverse IP lookup results in a hostname that belongs to a popular
/// service, such as Google or Yahoo crawler").
const CRAWLER_PROVIDERS: &[&str] = &[
    "googlebot.com",
    "google.com",
    "yahoo.com",
    "msn.com",
    "yandex.ru",
    "mail.ru",
    "baidu.com",
];

/// Extensions a search-engine crawler fetches (HTML pages); anything else a
/// crawler requests makes it a file grabber.
fn is_page_fetch(req: &HttpRequest) -> bool {
    match req.uri.extension() {
        None => true,
        Some(ext) => matches!(
            ext.as_str(),
            "html" | "htm" | "xhtml" | "php" | "asp" | "aspx"
        ),
    }
}

/// The categorizer, bound to one registered domain.
#[derive(Debug, Clone)]
pub struct Categorizer {
    /// The registered domain whose traffic is being analyzed.
    pub domain: String,
    pub webfilter: WebFilter,
    pub reverse_dns: ReverseDns,
    /// Requests from one `(ip, path)` at or above this count are streams.
    pub stream_threshold: u64,
    /// One counter per category, keyed by [`TrafficCategory::ALL`] order.
    /// Detached cells until [`Categorizer::attach_metrics`].
    categorized: Vec<Counter>,
}

impl Categorizer {
    pub fn new(domain: &str, webfilter: WebFilter, reverse_dns: ReverseDns) -> Self {
        Categorizer {
            domain: domain.to_string(),
            webfilter,
            reverse_dns,
            stream_threshold: 5,
            categorized: TrafficCategory::ALL
                .iter()
                .map(|_| Counter::new())
                .collect(),
        }
    }

    /// Re-homes the per-category decision counters onto `registry` (as
    /// `honeypot_categorized_total{category=<slug>}`), carrying current
    /// values over.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let next: Vec<Counter> = TrafficCategory::ALL
            .iter()
            .map(|cat| {
                registry.counter_with("honeypot_categorized_total", &[("category", cat.slug())])
            })
            .collect();
        for (counter, old) in next.iter().zip(&self.categorized) {
            counter.add(old.get());
        }
        self.categorized = next;
    }

    fn count_decision(&self, category: TrafficCategory) {
        let idx = TrafficCategory::ALL
            .iter()
            .position(|&c| c == category)
            .expect("category in ALL");
        self.categorized[idx].inc();
    }

    /// Categorizes one packet. `streams` are the per-`(ip, path)` request
    /// counts from [`crate::recorder::TrafficRecorder::stream_counts`].
    pub fn categorize(
        &self,
        packet: &Packet,
        streams: &HashMap<(Ipv4Addr, String), u64>,
    ) -> TrafficCategory {
        let category = self.categorize_inner(packet, streams);
        self.count_decision(category);
        category
    }

    fn categorize_inner(
        &self,
        packet: &Packet,
        streams: &HashMap<(Ipv4Addr, String), u64>,
    ) -> TrafficCategory {
        let Some(req) = packet.http_request() else {
            return TrafficCategory::Other;
        };

        // ① Referer.
        if let Some(referer) = req.referer() {
            return match self.webfilter.classify(referer, &self.domain) {
                ReferralKind::SearchEngine => TrafficCategory::ReferralSearchEngine,
                ReferralKind::EmbeddedUrl => TrafficCategory::ReferralEmbedded,
                ReferralKind::MaliciousLink => TrafficCategory::ReferralMalicious,
            };
        }

        let ua = req.user_agent();
        let repetitive = streams
            .get(&(packet.src_ip, req.uri.path.clone()))
            .is_some_and(|&c| c >= self.stream_threshold);

        // ② User-Agent.
        match ua.map(classify_user_agent) {
            Some(UaClass::Crawler { .. }) => {
                if is_page_fetch(req) {
                    TrafficCategory::SearchEngineCrawler
                } else {
                    TrafficCategory::FileGrabber
                }
            }
            Some(UaClass::EmailCrawler { .. }) => TrafficCategory::FileGrabber,
            Some(UaClass::ScriptTool { .. }) => self.automated(req),
            Some(UaClass::InAppBrowser { app: _ }) => {
                if repetitive {
                    self.automated(req)
                } else {
                    TrafficCategory::UserInApp
                }
            }
            Some(UaClass::Browser { .. }) => {
                if repetitive {
                    // Identical URI hammered from one address is a bot
                    // wearing a browser User-Agent.
                    self.automated(req)
                } else {
                    TrafficCategory::UserPcMobile
                }
            }
            Some(UaClass::Unknown) => {
                // ④ Source IP: a trusted crawler PTR rescues UA-less
                // fetches; otherwise it is an automated process.
                if let Some(provider) = self.reverse_dns.provider(packet.src_ip) {
                    if CRAWLER_PROVIDERS.contains(&provider.as_str()) {
                        return if is_page_fetch(req) {
                            TrafficCategory::SearchEngineCrawler
                        } else {
                            TrafficCategory::FileGrabber
                        };
                    }
                }
                self.automated(req)
            }
            None => {
                // No User-Agent at all: bare "/" fetches are anonymous
                // connectivity probes (Others); anything more specific is an
                // automated process.
                if req.uri.path == "/" && !req.uri.has_query() {
                    TrafficCategory::Other
                } else {
                    self.automated(req)
                }
            }
        }
    }

    /// ③ Requested URI: sensitive file names are vulnerability probes, and
    /// query strings carrying PII-style parameters (Fig. 12's
    /// `imei`/`phone`/`balance`) are exfiltration or tasking traffic.
    fn automated(&self, req: &HttpRequest) -> TrafficCategory {
        const SENSITIVE_PARAMS: &[&str] = &[
            "imei",
            "imsi",
            "phone",
            "msisdn",
            "password",
            "passwd",
            "pwd",
            "token",
            "card",
            "cvv",
            "ssn",
            "balance",
            "account",
            "pin",
            "creditcard",
        ];
        let pii_query = req
            .uri
            .query
            .iter()
            .any(|(k, _)| SENSITIVE_PARAMS.contains(&k.to_ascii_lowercase().as_str()));
        if vulndb::is_sensitive(&req.uri.path) || pii_query {
            TrafficCategory::MaliciousRequest
        } else {
            TrafficCategory::ScriptSoftware
        }
    }

    /// Categorizes a whole capture, returning per-category counts.
    pub fn tally(&self, packets: &[Packet]) -> HashMap<TrafficCategory, u64> {
        let mut streams: HashMap<(Ipv4Addr, String), u64> = HashMap::new();
        for p in packets {
            if let Some(req) = p.http_request() {
                *streams.entry((p.src_ip, req.uri.path.clone())).or_insert(0) += 1;
            }
        }
        let mut tally = HashMap::new();
        for p in packets {
            *tally.entry(self.categorize(p, &streams)).or_insert(0) += 1;
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Transport;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, n)
    }

    fn cat() -> Categorizer {
        let mut wf = WebFilter::new();
        wf.add_page("https://forum.example/t/1", ["resheba.online"]);
        wf.add_page("https://blog.example/p", ["unrelated.com"]);
        let mut rdns = ReverseDns::new();
        rdns.insert_range(
            "66.249.64.0".parse().unwrap(),
            19,
            "crawl-{ip}.googlebot.com",
        );
        Categorizer::new("resheba.online", wf, rdns)
    }

    fn pkt(req: HttpRequest) -> Packet {
        Packet::http(req)
    }

    fn one(c: &Categorizer, p: &Packet) -> TrafficCategory {
        c.categorize(p, &HashMap::new())
    }

    #[test]
    fn referral_branches() {
        let c = cat();
        let se = pkt(HttpRequest::get("/x")
            .with_src(ip(1))
            .with_header("Referer", "https://www.google.com/search?q=resheba"));
        assert_eq!(one(&c, &se), TrafficCategory::ReferralSearchEngine);

        let emb = pkt(HttpRequest::get("/x")
            .with_src(ip(1))
            .with_header("Referer", "https://forum.example/t/1"));
        assert_eq!(one(&c, &emb), TrafficCategory::ReferralEmbedded);

        let bad = pkt(HttpRequest::get("/x")
            .with_src(ip(1))
            .with_header("Referer", "https://blog.example/p"));
        assert_eq!(one(&c, &bad), TrafficCategory::ReferralMalicious);
    }

    #[test]
    fn crawler_split_by_requested_file() {
        let c = cat();
        let page = pkt(HttpRequest::get("/lesson.html")
            .with_src(ip(2))
            .with_header("User-Agent", "Mozilla/5.0 (compatible; Googlebot/2.1)"));
        assert_eq!(one(&c, &page), TrafficCategory::SearchEngineCrawler);

        let file = pkt(HttpRequest::get("/photo.jpeg")
            .with_src(ip(2))
            .with_header("User-Agent", "Mozilla/5.0 (compatible; Googlebot/2.1)"));
        assert_eq!(one(&c, &file), TrafficCategory::FileGrabber);
    }

    #[test]
    fn email_crawler_is_file_grabber() {
        let c = cat();
        let p = pkt(HttpRequest::get("/banner.png")
            .with_src(ip(3))
            .with_header("User-Agent", "Mozilla/5.0 (via ggpht.com GoogleImageProxy)"));
        assert_eq!(one(&c, &p), TrafficCategory::FileGrabber);
    }

    #[test]
    fn script_tools_split_by_sensitivity() {
        let c = cat();
        let ok = pkt(HttpRequest::get("/data.json")
            .with_src(ip(4))
            .with_header("User-Agent", "curl/8.0"));
        assert_eq!(one(&c, &ok), TrafficCategory::ScriptSoftware);

        let probe = pkt(HttpRequest::get("/wp-login.php")
            .with_src(ip(4))
            .with_header("User-Agent", "python-requests/2.28"));
        assert_eq!(one(&c, &probe), TrafficCategory::MaliciousRequest);
    }

    #[test]
    fn gettask_botnet_is_malicious_request() {
        // Fig. 12: Apache-HttpClient hitting getTask.php. The file name is
        // not in the NVD table, but the query string carries IMEI/phone
        // exfiltration parameters — the query-string rule flags it.
        let c = cat();
        let p = pkt(
            HttpRequest::get("/getTask.php?imei=1&phone=%2B1555&country=us")
                .with_src(ip(5))
                .with_header("User-Agent", "Apache-HttpClient/UNAVAILABLE (java 1.4)"),
        );
        // PII-bearing query strings from script tools are malicious requests.
        assert_eq!(one(&c, &p), TrafficCategory::MaliciousRequest);
    }

    #[test]
    fn user_visits() {
        let c = cat();
        let pc = pkt(HttpRequest::get("/komiks/12").with_src(ip(6)).with_header(
            "User-Agent",
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) Chrome/112",
        ));
        assert_eq!(one(&c, &pc), TrafficCategory::UserPcMobile);

        let inapp = pkt(HttpRequest::get("/komiks/12")
            .with_src(ip(7))
            .with_header("User-Agent", "Mozilla/5.0 (iPhone) WhatsApp/2.21"));
        assert_eq!(one(&c, &inapp), TrafficCategory::UserInApp);
    }

    #[test]
    fn repetitive_browser_stream_is_automated() {
        let c = cat();
        let req = HttpRequest::get("/status.json")
            .with_src(ip(8))
            .with_header(
                "User-Agent",
                "Mozilla/5.0 (Windows NT 6.3; WOW64) Chrome/41.0.2272.118",
            );
        let packets: Vec<Packet> = (0..10).map(|_| pkt(req.clone())).collect();
        let tally = c.tally(&packets);
        assert_eq!(tally[&TrafficCategory::ScriptSoftware], 10);
        assert!(!tally.contains_key(&TrafficCategory::UserPcMobile));
    }

    #[test]
    fn single_browser_request_stays_user() {
        let c = cat();
        let req = HttpRequest::get("/status.json")
            .with_src(ip(8))
            .with_header("User-Agent", "Mozilla/5.0 (Windows NT 6.3) Chrome/41");
        let tally = c.tally(&[pkt(req)]);
        assert_eq!(tally[&TrafficCategory::UserPcMobile], 1);
    }

    #[test]
    fn unknown_ua_with_crawler_ptr_is_crawler() {
        let c = cat();
        let p = pkt(HttpRequest::get("/page.html")
            .with_src("66.249.66.1".parse().unwrap())
            .with_header("User-Agent", "unrecognized-fetcher/0.1"));
        assert_eq!(one(&c, &p), TrafficCategory::SearchEngineCrawler);
    }

    #[test]
    fn unknown_ua_without_ptr_is_automated() {
        let c = cat();
        let p = pkt(HttpRequest::get("/page.html")
            .with_src(ip(9))
            .with_header("User-Agent", "unrecognized-fetcher/0.1"));
        assert_eq!(one(&c, &p), TrafficCategory::ScriptSoftware);
    }

    #[test]
    fn missing_ua_root_probe_is_other() {
        let c = cat();
        let p = pkt(HttpRequest::get("/").with_src(ip(10)));
        assert_eq!(one(&c, &p), TrafficCategory::Other);
        let deeper = pkt(HttpRequest::get("/admin.php").with_src(ip(10)));
        assert_eq!(one(&c, &deeper), TrafficCategory::MaliciousRequest);
    }

    #[test]
    fn non_http_is_other() {
        let c = cat();
        let p = Packet::raw(ip(11), 22, Transport::Tcp, 0, b"SSH-2.0");
        assert_eq!(one(&c, &p), TrafficCategory::Other);
    }

    #[test]
    fn all_categories_have_labels() {
        for cat in TrafficCategory::ALL {
            assert!(!cat.label().is_empty());
            assert!(!cat.slug().is_empty());
        }
    }

    #[test]
    fn attach_metrics_counts_decisions_by_category() {
        use nxd_telemetry::Registry;
        let mut c = cat();
        let registry = Registry::new();
        // One decision before attaching carries over.
        let p = pkt(HttpRequest::get("/data.json")
            .with_src(ip(4))
            .with_header("User-Agent", "curl/8.0"));
        one(&c, &p);
        c.attach_metrics(&registry);
        one(&c, &p);
        let user = pkt(HttpRequest::get("/komiks/12").with_src(ip(6)).with_header(
            "User-Agent",
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) Chrome/112",
        ));
        one(&c, &user);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("honeypot_categorized_total"), 3);
        let script = snap
            .counters
            .iter()
            .find(|(id, _)| {
                id.name() == "honeypot_categorized_total"
                    && id.labels() == [("category".to_string(), "script_software".to_string())]
            })
            .map(|&(_, v)| v);
        assert_eq!(script, Some(2));
    }
}
