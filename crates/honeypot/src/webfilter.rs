//! Referrer classification — the FortiGuard Web Filter substitute (§6.3,
//! "Referral").
//!
//! The paper classifies Referer URLs three ways: search-engine pages,
//! benign pages that genuinely embed a link to the registered domain, and
//! malicious links (the referer is invalid or does not contain the link —
//! "intentionally crafted with false information").

use std::collections::{HashMap, HashSet};

/// Outcome of referrer classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferralKind {
    SearchEngine,
    EmbeddedUrl,
    MaliciousLink,
}

/// Search-engine referrer hosts (registrable domains).
const SEARCH_ENGINES: &[&str] = &[
    "google.com",
    "bing.com",
    "yahoo.com",
    "duckduckgo.com",
    "yandex.ru",
    "baidu.com",
    "mail.ru",
    "sogou.com",
    "naver.com",
    "seznam.cz",
    "qwant.com",
    "ecosia.org",
];

/// The web-of-pages model: which referer URLs exist, and which domains each
/// page links to. The §6.3 procedure ("we obtain the redirecting web page
/// using cURL and check if the URLs associated with our registered domains
/// are embedded") becomes a lookup here.
#[derive(Debug, Default, Clone)]
pub struct WebFilter {
    /// Referer URL → set of registrable domains hyperlinked on that page.
    /// A URL absent from the map does not resolve (invalid page).
    pages: HashMap<String, HashSet<String>>,
}

impl WebFilter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fetchable page and the domains it links to.
    pub fn add_page<'a, I: IntoIterator<Item = &'a str>>(&mut self, url: &str, links_to: I) {
        self.pages.insert(
            url.to_string(),
            links_to.into_iter().map(str::to_string).collect(),
        );
    }

    /// Whether `url`'s host is a known search engine.
    fn is_search_engine(url: &str) -> bool {
        let host = host_of(url);
        SEARCH_ENGINES
            .iter()
            .any(|se| host == *se || host.ends_with(&format!(".{se}")))
    }

    /// Classifies a Referer URL with respect to `our_domain`.
    pub fn classify(&self, referer: &str, our_domain: &str) -> ReferralKind {
        if Self::is_search_engine(referer) {
            return ReferralKind::SearchEngine;
        }
        match self.pages.get(referer) {
            Some(links) if links.contains(our_domain) => ReferralKind::EmbeddedUrl,
            // Page exists but carries no hyperlink to us, or does not
            // resolve at all: a crafted referer.
            _ => ReferralKind::MaliciousLink,
        }
    }
}

/// Extracts the registrable host of a URL-ish string (scheme optional).
fn host_of(url: &str) -> String {
    let no_scheme = url.split("://").nth(1).unwrap_or(url);
    let host = no_scheme.split(['/', '?', '#']).next().unwrap_or("");
    let host = host.split('@').next_back().unwrap_or(host); // strip userinfo
    let host = host.split(':').next().unwrap_or(host); // strip port
    let labels: Vec<&str> = host.split('.').filter(|l| !l.is_empty()).collect();
    if labels.len() >= 2 {
        format!("{}.{}", labels[labels.len() - 2], labels[labels.len() - 1])
    } else {
        host.to_string()
    }
    .to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_engines_detected() {
        assert!(WebFilter::is_search_engine(
            "https://www.google.com/search?q=resheba"
        ));
        assert!(WebFilter::is_search_engine("https://go.mail.ru/search?q=x"));
        assert!(WebFilter::is_search_engine("http://yandex.ru/yandsearch"));
        assert!(!WebFilter::is_search_engine(
            "https://someforum.example/thread/1"
        ));
    }

    #[test]
    fn embedded_link_detected() {
        let mut wf = WebFilter::new();
        wf.add_page(
            "https://forum.example/thread/42",
            ["resheba.online", "other.com"],
        );
        assert_eq!(
            wf.classify("https://forum.example/thread/42", "resheba.online"),
            ReferralKind::EmbeddedUrl
        );
    }

    #[test]
    fn missing_link_is_malicious() {
        let mut wf = WebFilter::new();
        wf.add_page("https://blog.example/post", ["unrelated.com"]);
        assert_eq!(
            wf.classify("https://blog.example/post", "resheba.online"),
            ReferralKind::MaliciousLink
        );
    }

    #[test]
    fn invalid_page_is_malicious() {
        let wf = WebFilter::new();
        assert_eq!(
            wf.classify("https://no-such-page.example/x", "resheba.online"),
            ReferralKind::MaliciousLink
        );
    }

    #[test]
    fn search_engine_beats_page_lookup() {
        let mut wf = WebFilter::new();
        wf.add_page("https://www.google.com/search?q=x", ["resheba.online"]);
        assert_eq!(
            wf.classify("https://www.google.com/search?q=x", "resheba.online"),
            ReferralKind::SearchEngine
        );
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("https://a.b.example.com:8080/p?q#f"), "example.com");
        assert_eq!(host_of("example.com/path"), "example.com");
        assert_eq!(host_of("https://user@site.org/"), "site.org");
        assert_eq!(host_of("localhost"), "localhost");
    }
}
