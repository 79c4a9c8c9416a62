//! Synthetic Pl@ntNet user-growth trace (the shape of the paper's Fig. 2).
//!
//! The figure shows new users per month from 2017 to 2021 with exponential
//! year-over-year growth and sharp peaks every May–June (the Northern
//! spring, when people photograph plants). We generate a deterministic
//! trace with exactly those two components; the `fig2_user_growth` exhibit prints it as
//! the Fig. 2 series.

/// One month of the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthSample {
    /// Calendar year.
    pub year: u32,
    /// Month 1–12.
    pub month: u32,
    /// Synthetic new-user count.
    pub new_users: f64,
}

/// Parameters of the synthetic growth model.
#[derive(Debug, Clone, Copy)]
pub struct GrowthModel {
    /// New users in January of the first year.
    pub base: f64,
    /// Year-over-year multiplicative growth.
    pub yearly_growth: f64,
    /// Peak amplification at the May–June maximum (e.g. 3.0 = 3× base).
    pub spring_peak: f64,
}

impl Default for GrowthModel {
    fn default() -> Self {
        // Calibrated to the figure's reading: ~100K new users in spring
        // 2017 rising to ~500K by spring 2021.
        GrowthModel {
            base: 40_000.0,
            yearly_growth: 1.5,
            spring_peak: 3.0,
        }
    }
}

impl GrowthModel {
    /// Seasonal multiplier for a month (1.0 off-season, `spring_peak` at
    /// the May–June center). A raised-cosine bump spanning April–July.
    pub fn seasonal_factor(&self, month: u32) -> f64 {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        // Bump centered between May (5) and June (6), half-width 1.5 months.
        let center = 5.5;
        let half_width = 1.5;
        let d = (month as f64 - center).abs();
        if d >= half_width {
            1.0
        } else {
            let bump = 0.5 * (1.0 + (std::f64::consts::PI * d / half_width).cos());
            1.0 + (self.spring_peak - 1.0) * bump
        }
    }

    /// New users in a given month.
    pub fn new_users(&self, first_year: u32, year: u32, month: u32) -> f64 {
        assert!(year >= first_year, "year precedes trace start");
        let years = (year - first_year) as f64 + (month as f64 - 1.0) / 12.0;
        self.base * self.yearly_growth.powf(years) * self.seasonal_factor(month)
    }

    /// The full monthly trace over `[first_year, last_year]`.
    pub fn trace(&self, first_year: u32, last_year: u32) -> Vec<MonthSample> {
        assert!(last_year >= first_year);
        let mut out = Vec::new();
        for year in first_year..=last_year {
            for month in 1..=12 {
                out.push(MonthSample {
                    year,
                    month,
                    new_users: self.new_users(first_year, year, month),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_fall_in_may_june() {
        let m = GrowthModel::default();
        let trace = m.trace(2020, 2020);
        let peak = trace
            .iter()
            .max_by(|a, b| a.new_users.partial_cmp(&b.new_users).unwrap())
            .unwrap();
        assert!(peak.month == 5 || peak.month == 6, "peak at {}", peak.month);
    }

    #[test]
    fn growth_is_exponential_across_years() {
        let m = GrowthModel::default();
        let y0 = m.new_users(2017, 2017, 1);
        let y1 = m.new_users(2017, 2018, 1);
        let y2 = m.new_users(2017, 2019, 1);
        assert!((y1 / y0 - 1.5).abs() < 1e-9);
        assert!((y2 / y1 - 1.5).abs() < 1e-9);
    }

    #[test]
    fn off_season_has_no_bump() {
        let m = GrowthModel::default();
        assert_eq!(m.seasonal_factor(1), 1.0);
        assert_eq!(m.seasonal_factor(11), 1.0);
        assert!(m.seasonal_factor(5) > 2.0);
        assert!(m.seasonal_factor(6) > 2.0);
    }

    #[test]
    fn trace_covers_every_month() {
        let trace = GrowthModel::default().trace(2017, 2021);
        assert_eq!(trace.len(), 60);
        assert_eq!(trace[0].year, 2017);
        assert_eq!(trace[0].month, 1);
        assert_eq!(trace[59].year, 2021);
        assert_eq!(trace[59].month, 12);
    }

    #[test]
    fn each_spring_peak_exceeds_previous() {
        let trace = GrowthModel::default().trace(2017, 2021);
        let peaks: Vec<f64> = (0..5)
            .map(|y| {
                trace
                    .iter()
                    .filter(|s| s.year == 2017 + y)
                    .map(|s| s.new_users)
                    .fold(0.0, f64::max)
            })
            .collect();
        for pair in peaks.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn bad_month_panics() {
        GrowthModel::default().seasonal_factor(13);
    }
}
