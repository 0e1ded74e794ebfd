//! Property-based tests for the polyhedral substrate.
//!
//! The central invariant: point enumeration agrees exactly with brute-force
//! membership scans, for arbitrary small constraint systems.

use ctam_poly::{generate_loop_nest, AffineExpr, Constraint, IntegerSet};
use proptest::prelude::*;

const BOX_LO: i64 = -4;
const BOX_HI: i64 = 5;

/// A random affine constraint over `dim` dims with small coefficients.
fn arb_constraint(dim: usize) -> impl Strategy<Value = Constraint> {
    (
        proptest::collection::vec(-3i64..=3, dim),
        -10i64..=10,
        prop::bool::ANY,
    )
        .prop_map(move |(coeffs, k, is_eq)| {
            let e = AffineExpr::new(coeffs, k);
            if is_eq {
                Constraint::eq(e)
            } else {
                Constraint::ge(e)
            }
        })
}

/// A random bounded set: a bounding box plus 0..4 extra constraints.
fn arb_set(dim: usize) -> impl Strategy<Value = IntegerSet> {
    proptest::collection::vec(arb_constraint(dim), 0..4).prop_map(move |cs| {
        let mut b = IntegerSet::builder(dim);
        for d in 0..dim {
            b = b.bounds(d, BOX_LO, BOX_HI);
        }
        let mut set = b.build();
        for c in cs {
            set = set.with_constraint(c);
        }
        set
    })
}

fn brute_force(set: &IntegerSet) -> Vec<Vec<i64>> {
    let dim = set.dim();
    let mut out = Vec::new();
    let mut p = vec![BOX_LO; dim];
    loop {
        if set.contains(&p) {
            out.push(p.clone());
        }
        // odometer over the box
        let mut d = dim;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            if p[d] < BOX_HI {
                p[d] += 1;
                for x in &mut p[d + 1..] {
                    *x = BOX_LO;
                }
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn enumeration_matches_brute_force_2d(set in arb_set(2)) {
        let mut brute = brute_force(&set);
        brute.sort();
        let enumerated: Vec<_> = set.iter().collect();
        // lexicographic iteration implies sorted output
        let mut sorted = enumerated.clone();
        sorted.sort();
        prop_assert_eq!(&enumerated, &sorted);
        prop_assert_eq!(enumerated, brute);
    }

    #[test]
    fn enumeration_matches_brute_force_3d(set in arb_set(3)) {
        let brute = brute_force(&set);
        let enumerated: Vec<_> = set.iter().collect();
        prop_assert_eq!(enumerated, brute);
    }

    #[test]
    fn is_empty_agrees_with_brute_force(set in arb_set(2)) {
        prop_assert_eq!(set.is_empty(), brute_force(&set).is_empty());
    }

    #[test]
    fn intersection_is_subset_of_both(a in arb_set(2), b in arb_set(2)) {
        let i = a.intersect(&b);
        for p in i.iter() {
            prop_assert!(a.contains(&p));
            prop_assert!(b.contains(&p));
        }
    }

    #[test]
    fn bounding_box_contains_all_points(set in arb_set(2)) {
        if let Some(bb) = set.bounding_box().unwrap() {
            for p in set.iter() {
                for (d, &(lo, hi)) in bb.iter().enumerate() {
                    prop_assert!(lo <= p[d] && p[d] <= hi);
                }
            }
        }
    }

    #[test]
    fn codegen_succeeds_on_nonempty_boxed_sets(set in arb_set(2)) {
        // Any non-empty subset of a finite box must yield a loop nest.
        if !set.is_empty() {
            let code = generate_loop_nest(&set);
            prop_assert!(code.is_some());
        }
    }
}
