//! The benchmark's own arithmetic: nearest-rank percentiles, medians,
//! guarded ratios, the report digest, metric naming rules and the result
//! line.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `fraction` of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile<T: Copy>(sorted: &[T], fraction: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (fraction.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted `values`; 0 when empty.
pub fn percentile_of(values: &[f64], fraction: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, fraction).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a of `bytes`: the `report_digest` of a report's JSON.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether `name` is a valid metric name: 1 to 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, e.g. `s`, `cycles/s`, `count`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The final result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; the arithmetic above never
            // produces them, so this only guards the output format.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, v, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 0.999), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&s, 1.0), Some(100));
        // A single sample is every percentile; no samples is none.
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[7], 0.999), Some(7));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        // With fewer than 1000 samples p999 is the maximum.
        let s: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&s, 0.999), Some(998));
        let s: Vec<u64> = (0..2000).collect();
        assert_eq!(percentile(&s, 0.999), Some(1997));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_of_sorts_its_input() {
        // Of twelve repetitions, p5 is the lowest, p10 the second lowest
        // and p25 the third; of forty, p5 is the second lowest.
        let v = [
            9.0, 1.0, 11.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0,
        ];
        assert_eq!(percentile_of(&v, 0.05), 1.0);
        assert_eq!(percentile_of(&v, 0.10), 2.0);
        assert_eq!(percentile_of(&v, 0.25), 3.0);
        let v: Vec<f64> = (0..40).rev().map(f64::from).collect();
        assert_eq!(percentile_of(&v, 0.05), 1.0);
        assert_eq!(percentile_of(&[4.0, 2.0, 3.0], 0.10), 2.0);
        assert_eq!(percentile_of(&[7.5], 0.10), 7.5);
        assert_eq!(percentile_of(&[], 0.10), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(5, 0), 0.0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"{\"x\":1}"), digest(b"{\"x\":2}"));
    }

    #[test]
    fn names_are_limited_to_the_allowed_alphabet() {
        assert!(valid_name("core.step_ns_p50"));
        assert!(valid_name("kilocore-burst.setup_s"));
        assert!(valid_name("0abc"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("cycles/s"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        let nan = result_line(false, 1, 1, &[Metric::new("x", "s", f64::NAN)]);
        assert!(nan.contains(r#""value": 0,"#));
    }
}
