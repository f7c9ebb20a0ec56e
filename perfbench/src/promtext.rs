//! Parsing `/metrics` scrapes and differencing them.
//!
//! Every server-side number the benchmark reports is the difference of
//! two scrapes taken just before and just after the window it describes,
//! never a process-cumulative value: the benchmark process runs set-up,
//! warm-up and other phases through the same registry.

use std::collections::BTreeMap;

/// A parsed scrape: sample name (labels included, as printed) → value.
pub type Scrape = BTreeMap<String, f64>;

/// Parses Prometheus text exposition. Comment lines and lines whose
/// value does not parse as a number are skipped.
pub fn parse(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.trim().rsplit_once(' ')?;
            Some((name.trim().to_string(), value.parse::<f64>().ok()?))
        })
        .collect()
}

/// `after - before` for every sample in `after`; a sample missing from
/// `before` counts from zero.
pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
    after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// A sample of a delta, zero when absent.
pub fn get(scrape: &Scrape, name: &str) -> f64 {
    scrape.get(name).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE http_requests_total counter\n\
        http_requests_total 100\n\
        # TYPE http_request_us histogram\n\
        http_request_us_bucket{le=\"50\"} 90\n\
        http_request_us_bucket{le=\"+Inf\"} 100\n\
        http_request_us_sum 4000\n\
        http_request_us_count 100\n\
        process_uptime_seconds 1.500\n";

    const AFTER: &str = "http_requests_total 350\n\
        http_request_us_bucket{le=\"50\"} 300\n\
        http_request_us_bucket{le=\"+Inf\"} 350\n\
        http_request_us_sum 14000\n\
        http_request_us_count 350\n\
        http_cache_hit_total 20\n\
        process_uptime_seconds 3.250\n";

    #[test]
    fn parses_counters_histograms_and_labels() {
        let s = parse(BEFORE);
        assert_eq!(get(&s, "http_requests_total"), 100.0);
        assert_eq!(get(&s, "http_request_us_bucket{le=\"+Inf\"}"), 100.0);
        assert_eq!(get(&s, "process_uptime_seconds"), 1.5);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn delta_is_window_local() {
        let d = delta(&parse(BEFORE), &parse(AFTER));
        assert_eq!(get(&d, "http_requests_total"), 250.0);
        assert_eq!(get(&d, "http_request_us_sum"), 10_000.0);
        assert_eq!(get(&d, "http_request_us_count"), 250.0);
        // Registered after the first scrape: counts from zero.
        assert_eq!(get(&d, "http_cache_hit_total"), 20.0);
        assert_eq!(get(&d, "process_uptime_seconds"), 1.75);
        assert_eq!(get(&d, "missing_total"), 0.0);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let s = parse("good 1\nnovalue\nbad abc\n\n");
        assert_eq!(s.len(), 1);
    }
}
