//! Shared reporting helpers for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the experiment index); this crate provides
//! the statistics and ASCII rendering they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation of a sample.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Renders one horizontal ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled.min(width) { '#' } else { ' ' });
    }
    s
}

/// Prints a day-series "figure": one bar per day plus summary stats and
/// the paper's reference values.
pub fn print_series(
    title: &str,
    unit: &str,
    series: &[(u32, f64)],
    paper_mean: f64,
    paper_std: Option<f64>,
) {
    println!("=== {title} ===");
    let values: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    for (day, value) in series {
        println!(
            "  day {day:>3} | {} {value:>10.2} {unit}",
            bar(*value, max, 40)
        );
    }
    let (m, s) = (mean(&values), std_dev(&values));
    match paper_std {
        Some(ps) => println!(
            "  measured: mean {m:.2} std {s:.2} {unit}   |   paper: mean {paper_mean:.2} std {ps:.2} {unit}"
        ),
        None => println!("  measured: mean {m:.2} {unit}   |   paper: mean {paper_mean:.2} {unit}"),
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn bars() {
        assert_eq!(bar(5.0, 10.0, 10), "#####     ");
        assert_eq!(bar(0.0, 10.0, 4), "    ");
        assert_eq!(bar(10.0, 0.0, 4), "    ");
        assert_eq!(bar(20.0, 10.0, 4), "####", "clamped at width");
    }
}
