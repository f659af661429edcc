//! Answer oracles. They run outside every timed phase; a disagreement is
//! a failed request.

use trl_engine::QueryAnswer;

/// Relative tolerance of every numeric oracle.
pub const REL_TOL: f64 = 1e-9;

/// `|a - b| <= REL_TOL * max(|a|, |b|)`, with `scale` as a floor on the
/// magnitude (1.0 for probabilities normalized to unit mass, 0.0 for a
/// purely relative comparison).
pub fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(scale)
}

/// Checks a relative agreement, naming the quantity on failure.
pub fn expect_close(what: &str, got: f64, want: f64, scale: f64) -> Result<(), String> {
    if close(got, want, scale) {
        Ok(())
    } else {
        Err(format!("{what}: got {got:e}, oracle {want:e}"))
    }
}

/// Bit-identity of two answers: every float compared by its bit pattern.
pub fn identical(a: &QueryAnswer, b: &QueryAnswer) -> bool {
    use QueryAnswer::*;
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    match (a, b) {
        (Wmc(x), Wmc(y))
        | (LogLikelihood(x), LogLikelihood(y))
        | (Probability(x), Probability(y)) => same(*x, *y),
        (
            Marginals {
                wmc: w1,
                marginals: m1,
            },
            Marginals {
                wmc: w2,
                marginals: m2,
            },
        ) => {
            same(*w1, *w2)
                && m1.len() == m2.len()
                && m1
                    .iter()
                    .zip(m2)
                    .all(|(p, q)| same(p.0, q.0) && same(p.1, q.1))
        }
        (MaxWeight(x), MaxWeight(y)) => match (x, y) {
            (Some((v1, a1)), Some((v2, a2))) => same(*v1, *v2) && a1 == a2,
            (None, None) => true,
            _ => false,
        },
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closeness_is_relative_with_a_floor() {
        assert!(close(1.0, 1.0 + 1e-12, 0.0));
        assert!(!close(1e-20, 2e-20, 0.0));
        assert!(close(1e-20, 2e-20, 1.0));
    }
}
