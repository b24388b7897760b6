//! Terminal visualisation of velocity maps and shot gathers.
//!
//! The paper's figures are image plots; experiment binaries and examples
//! render the same content as ASCII intensity maps so results can be
//! inspected without a plotting stack.

use qugeo_tensor::Array2;

/// Characters from dark/low to bright/high.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders an array as an ASCII intensity image, one character per cell,
/// scaled to the array's own min–max range.
///
/// Constant arrays render as all-minimum characters.
///
/// # Examples
///
/// ```
/// use qugeo::viz::ascii_map;
/// use qugeo_tensor::Array2;
///
/// let map = Array2::from_fn(2, 4, |r, _| r as f64);
/// let art = ascii_map(&map);
/// assert_eq!(art.lines().count(), 2);
/// ```
pub fn ascii_map(map: &Array2) -> String {
    let lo = map.min();
    let hi = map.max();
    let span = hi - lo;
    let mut out = String::with_capacity((map.cols() + 1) * map.rows());
    for r in 0..map.rows() {
        for c in 0..map.cols() {
            let v = map[(r, c)];
            let t = if span > 0.0 { (v - lo) / span } else { 0.0 };
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Renders a vertical profile as a horizontal bar chart, one row per
/// depth cell.
pub fn profile_bars(profile: &[f64], width: usize) -> String {
    let lo = profile.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = profile.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut out = String::new();
    for (i, &v) in profile.iter().enumerate() {
        let filled = (((v - lo) / span) * width as f64).round() as usize;
        out.push_str(&format!(
            "{i:>3} |{}{}| {v:.0}\n",
            "#".repeat(filled.min(width)),
            " ".repeat(width.saturating_sub(filled))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_map_shape_and_extremes() {
        let map = Array2::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let art = ascii_map(&map);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == 5));
        // Minimum renders as the first ramp char, maximum as the last.
        assert!(lines[0].starts_with(' '));
        assert!(lines[2].ends_with('@'));
    }

    #[test]
    fn constant_map_renders_uniformly() {
        let map = Array2::filled(2, 3, 5.0);
        let art = ascii_map(&map);
        assert!(art.lines().all(|l| l == "   "));
    }

    #[test]
    fn profile_bars_monotone_fill() {
        let p = vec![1500.0, 2500.0, 4000.0];
        let bars = profile_bars(&p, 10);
        let widths: Vec<usize> = bars
            .lines()
            .map(|l| l.chars().filter(|&c| c == '#').count())
            .collect();
        assert!(widths[0] < widths[1] && widths[1] < widths[2]);
        assert_eq!(widths[2], 10);
    }

    #[test]
    fn profile_bars_handles_constant() {
        let bars = profile_bars(&[2.0, 2.0], 8);
        assert_eq!(bars.lines().count(), 2);
    }
}
