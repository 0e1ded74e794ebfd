//! Property tests for the DSL frontend: generated programs parse, and the
//! parsed IR agrees with a directly constructed equivalent.

use ctam_loopir::parse::parse_program;
use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use proptest::prelude::*;

/// Parameters of a generated single-nest program.
#[derive(Debug, Clone)]
struct Gen {
    extent: i64,
    offsets: Vec<i64>,
    scale: i64,
}

fn arb_gen() -> impl Strategy<Value = Gen> {
    (
        8i64..64,
        proptest::collection::vec(-4i64..=4, 1..4),
        1i64..=3,
    )
        .prop_map(|(extent, offsets, scale)| Gen {
            extent,
            offsets,
            scale,
        })
}

/// Renders the generated program as DSL source.
fn render(g: &Gen) -> String {
    let n = g.extent;
    let span = n * g.scale + 16;
    let mut body = String::new();
    body.push_str("OUT[i] = 0");
    for off in &g.offsets {
        // Keep subscripts in-bounds via the +8 shift.
        body.push_str(&format!(" + A[{} * i + {}]", g.scale, off + 8));
    }
    body.push(';');
    format!(
        "program gen {{
            array A[{span}] : 8;
            array OUT[{n}] : 8;
            for nest (i = 0 .. {}) {{ {body} }}
        }}",
        n - 1
    )
}

/// Builds the same program through the API.
fn build(g: &Gen) -> Program {
    let n = g.extent;
    let span = (n * g.scale + 16) as u64;
    let mut p = Program::new("gen");
    let a = p.add_array("A", &[span], 8);
    let out = p.add_array("OUT", &[n as u64], 8);
    let d = IntegerSet::builder(1)
        .names(["i"])
        .bounds(0, 0, n - 1)
        .build();
    let mut nest = LoopNest::new("nest", d).with_ref(ArrayRef::write(out, AffineMap::identity(1)));
    for off in &g.offsets {
        nest = nest.with_ref(ArrayRef::read(
            a,
            AffineMap::new(
                1,
                vec![AffineExpr::var(1, 0) * g.scale + AffineExpr::constant(1, off + 8)],
            ),
        ));
    }
    p.add_nest(nest);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parsed_and_built_programs_access_identically(g in arb_gen()) {
        let parsed = parse_program(&render(&g)).expect("generated source is valid");
        let built = build(&g);
        let (pid, pnest) = parsed.nests().next().unwrap();
        let (bid, bnest) = built.nests().next().unwrap();
        prop_assert_eq!(pnest.n_iterations(), bnest.n_iterations());
        prop_assert_eq!(pnest.refs().len(), bnest.refs().len());
        for i in [0, (g.extent / 2).max(0), g.extent - 1] {
            prop_assert_eq!(
                parsed.nest_accesses(pid, &[i]).collect::<Vec<_>>(),
                built.nest_accesses(bid, &[i]).collect::<Vec<_>>(),
                "iteration {}", i
            );
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[a-z0-9\\[\\]{}();:=+*., ]{0,120}") {
        // Junk must produce Err, never a panic.
        let _ = parse_program(&s);
    }
}
