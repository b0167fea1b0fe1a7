//! The workspace-wide total order over `f32` scores.
//!
//! Every ranking, retrieval and matching path (top-k selection, argsort,
//! Gale–Shapley preferences) compares scores through
//! [`desc_nan_last`] so that NaN — from upstream numerical blow-ups or
//! degenerate embeddings — can never panic a `partial_cmp().unwrap()` or
//! silently outrank a real score. Defined here at the bottom of the crate
//! graph so `sdea-index` and `sdea-eval` share one definition
//! (`sdea_eval::desc_nan_last` re-exports it for existing call sites).

use std::cmp::Ordering;

/// Total descending order over similarity scores with **NaN ranked last**
/// (worst), the workspace-wide comparison convention for ranking and
/// matching.
///
/// `Less` means `a` ranks strictly before (better than) `b`. Unlike
/// `partial_cmp(..).unwrap()` this never panics, and unlike raw
/// [`f32::total_cmp`] it does not let `+NaN` outrank every real score: any
/// NaN compares worse than every finite or infinite value, and equal to
/// every other NaN (callers tie-break equal scores by index).
pub fn desc_nan_last(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Ordering::*;

    #[test]
    fn total_order_over_scores() {
        assert_eq!(desc_nan_last(1.0, 0.5), Less); // higher score ranks first
        assert_eq!(desc_nan_last(0.5, 1.0), Greater);
        assert_eq!(desc_nan_last(0.5, 0.5), Equal);
        assert_eq!(desc_nan_last(f32::NAN, -1e30), Greater); // NaN worst
        assert_eq!(desc_nan_last(f32::NEG_INFINITY, f32::NAN), Less);
        assert_eq!(desc_nan_last(f32::NAN, f32::NAN), Equal);
        assert_eq!(desc_nan_last(f32::INFINITY, f32::MAX), Less);
        // -0.0 vs +0.0: total_cmp puts +0.0 first in descending order.
        assert_eq!(desc_nan_last(0.0, -0.0), Less);
    }
}
