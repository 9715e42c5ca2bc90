//! Minimal enclosing circle (Welzl's algorithm).
//!
//! The paper's d-safety property (Definition 6) asks whether "there exists a
//! circle with radius d that contains all the functional neighbors" of a
//! compromised node. Checking it therefore reduces to computing the minimal
//! enclosing circle of those neighbors' deployment points and comparing its
//! radius to `d`. Welzl's randomized incremental algorithm gives the exact
//! answer in expected linear time.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::point::{Circle, Point};

/// Computes the minimal enclosing circle of `points`.
///
/// Returns a zero-radius circle for a single point and `None` for an empty
/// slice. The result contains every input point (within floating-point
/// tolerance) and no smaller circle does.
///
/// # Examples
///
/// ```
/// use snd_topology::{enclosing::min_enclosing_circle, Point};
///
/// let pts = [
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 0.0),
///     Point::new(1.0, 1.0),
/// ];
/// let c = min_enclosing_circle(&pts).unwrap();
/// assert!((c.radius - 1.0).abs() < 1e-9);
/// ```
pub fn min_enclosing_circle(points: &[Point]) -> Option<Circle> {
    if points.is_empty() {
        return None;
    }
    // Deterministic shuffle: Welzl's expected-linear bound needs random
    // order, but reproducibility matters for simulations, so seed fixedly.
    let mut pts: Vec<Point> = points.to_vec();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    pts.shuffle(&mut rng);

    let mut circle = Circle::new(pts[0], 0.0);
    for i in 1..pts.len() {
        if circle.contains(&pts[i]) {
            continue;
        }
        // p_i must be on the boundary.
        circle = Circle::new(pts[i], 0.0);
        for j in 0..i {
            if circle.contains(&pts[j]) {
                continue;
            }
            // p_i and p_j on the boundary.
            circle = Circle::from_diameter(pts[i], pts[j]);
            for k in 0..j {
                if circle.contains(&pts[k]) {
                    continue;
                }
                // Three boundary points determine the circle.
                circle = Circle::circumscribe(pts[i], pts[j], pts[k])
                    .unwrap_or_else(|| widest_pair_circle(&[pts[i], pts[j], pts[k]]));
            }
        }
    }
    Some(circle)
}

/// Fallback for (near-)collinear triples: the diameter circle of the two
/// farthest-apart points.
fn widest_pair_circle(pts: &[Point]) -> Circle {
    let mut best = Circle::new(pts[0], 0.0);
    let mut best_d = -1.0f64;
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let d = pts[i].distance(&pts[j]);
            if d > best_d {
                best_d = d;
                best = Circle::from_diameter(pts[i], pts[j]);
            }
        }
    }
    best
}

/// The diameter of a point set: the largest distance between two points.
///
/// Used to express safety violations in the paper's terms ("two benign nodes
/// at least d away from each other"). O(n^2); fine at sensor-network sizes.
pub fn point_set_diameter(points: &[Point]) -> f64 {
    let mut best = 0.0f64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            best = best.max(points[i].distance(&points[j]));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_radius(points: &[Point]) -> f64 {
        // The minimal enclosing circle is determined by 2 or 3 points on its
        // boundary; try all pairs and triples.
        let mut best = f64::INFINITY;
        let contains_all = |c: &Circle| points.iter().all(|p| c.contains(p));
        if points.len() == 1 {
            return 0.0;
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let c = Circle::from_diameter(points[i], points[j]);
                if contains_all(&c) {
                    best = best.min(c.radius);
                }
                for k in (j + 1)..points.len() {
                    if let Some(c) = Circle::circumscribe(points[i], points[j], points[k]) {
                        if contains_all(&c) {
                            best = best.min(c.radius);
                        }
                    }
                }
            }
        }
        best
    }

    #[test]
    fn empty_is_none() {
        assert!(min_enclosing_circle(&[]).is_none());
    }

    #[test]
    fn single_point_zero_radius() {
        let c = min_enclosing_circle(&[Point::new(3.0, 4.0)]).unwrap();
        assert_eq!(c.radius, 0.0);
        assert_eq!(c.center, Point::new(3.0, 4.0));
    }

    #[test]
    fn two_points_diameter() {
        let c = min_enclosing_circle(&[Point::new(0.0, 0.0), Point::new(0.0, 2.0)]).unwrap();
        assert!((c.radius - 1.0).abs() < 1e-9);
    }

    #[test]
    fn square_corners() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 2.0),
        ];
        let c = min_enclosing_circle(&pts).unwrap();
        assert!((c.radius - 2.0f64.sqrt()).abs() < 1e-9);
        assert!((c.center.x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let c = min_enclosing_circle(&pts).unwrap();
        assert!((c.radius - 5.0).abs() < 1e-9);
        for p in &pts {
            assert!(c.contains(p));
        }
    }

    #[test]
    fn duplicated_points() {
        let pts = vec![Point::new(1.0, 1.0); 10];
        let c = min_enclosing_circle(&pts).unwrap();
        assert_eq!(c.radius, 0.0);
    }

    #[test]
    fn matches_brute_force_on_random_sets() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for trial in 0..30 {
            let n = rng.gen_range(2..12);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let welzl = min_enclosing_circle(&pts).unwrap();
            let brute = brute_force_radius(&pts);
            assert!(
                (welzl.radius - brute).abs() < 1e-6,
                "trial {trial}: welzl {} vs brute {brute}",
                welzl.radius
            );
            for p in &pts {
                assert!(welzl.contains(p), "trial {trial}: point {p} escaped");
            }
        }
    }

    #[test]
    fn diameter_of_point_set() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(1.0, 1.0),
        ];
        assert_eq!(point_set_diameter(&pts), 5.0);
        assert_eq!(point_set_diameter(&[]), 0.0);
        assert_eq!(point_set_diameter(&pts[..1]), 0.0);
    }
}
