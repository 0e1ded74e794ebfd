//! A whole program: arrays plus loop nests, with a flat data layout.

use crate::array::{checked_size_bytes, ArrayDecl, ArrayId};
use crate::nest::{ElementAccess, LoopNest, NestId, Subscript};

/// Alignment of each array's base address (one cache line, so arrays never
/// share a line — matching the paper's rule that data blocks do not cross
/// array boundaries).
const ARRAY_ALIGN: u64 = 64;

/// A program: declared arrays (laid out consecutively in one byte address
/// space) and loop nests over them.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    arrays: Vec<ArrayDecl>,
    /// Base byte address of each array.
    bases: Vec<u64>,
    nests: Vec<LoopNest>,
}

impl Program {
    /// An empty program.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            arrays: Vec::new(),
            bases: Vec::new(),
            nests: Vec::new(),
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares an array and returns its id. Arrays are laid out in
    /// declaration order, each base aligned to a cache line.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrayDecl::new`] rejects the declaration, or if the end of
    /// the data layout, aligned to a cache line, would overflow `u64`.
    pub fn add_array(&mut self, name: &str, dims: &[u64], elem_bytes: u32) -> ArrayId {
        let decl = ArrayDecl::new(name, dims, elem_bytes);
        assert!(self.fits(dims, elem_bytes), "data layout overflows u64");
        self.bases
            .push(self.total_data_bytes().next_multiple_of(ARRAY_ALIGN));
        self.arrays.push(decl);
        ArrayId(self.arrays.len() - 1)
    }

    /// Adds a loop nest and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the nest references an array this program does not declare.
    pub fn add_nest(&mut self, nest: LoopNest) -> NestId {
        for r in nest.refs() {
            assert!(
                r.array().index() < self.arrays.len(),
                "nest references undeclared {}",
                r.array()
            );
        }
        self.nests.push(nest);
        NestId(self.nests.len() - 1)
    }

    /// The declaration of `array`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, array: ArrayId) -> &ArrayDecl {
        &self.arrays[array.0]
    }

    /// All arrays in declaration order.
    pub fn arrays(&self) -> impl Iterator<Item = (ArrayId, &ArrayDecl)> {
        self.arrays.iter().enumerate().map(|(i, a)| (ArrayId(i), a))
    }

    /// The nest with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn nest(&self, nest: NestId) -> &LoopNest {
        &self.nests[nest.0]
    }

    /// All nests in insertion order.
    pub fn nests(&self) -> impl Iterator<Item = (NestId, &LoopNest)> {
        self.nests.iter().enumerate().map(|(i, n)| (NestId(i), n))
    }

    /// Base byte address of `array` in the program's flat data space.
    pub fn array_base(&self, array: ArrayId) -> u64 {
        self.bases[array.0]
    }

    /// True if an array of `dims` and `elem_bytes`-byte elements, declared
    /// next, keeps the cache-line-aligned end of the layout within `u64`.
    pub(crate) fn fits(&self, dims: &[u64], elem_bytes: u32) -> bool {
        let base = self.total_data_bytes().next_multiple_of(ARRAY_ALIGN);
        let end = checked_size_bytes(dims, elem_bytes).and_then(|size| base.checked_add(size));
        end.and_then(|end| end.checked_next_multiple_of(ARRAY_ALIGN))
            .is_some()
    }

    /// Total extent of the data space in bytes (including alignment gaps).
    pub fn total_data_bytes(&self) -> u64 {
        self.bases
            .last()
            .zip(self.arrays.last())
            .map(|(&b, a)| b + a.size_bytes())
            .unwrap_or(0)
    }

    /// Byte address of flat element `element` of `array`.
    pub fn address_of(&self, array: ArrayId, element: u64) -> u64 {
        self.array_base(array) + element * u64::from(self.array(array).elem_bytes())
    }

    /// Evaluates every reference of `nest` at iteration `point`, yielding
    /// concrete element accesses in body order without allocating.
    ///
    /// # Panics
    ///
    /// The iterator panics if `point`'s arity differs from the nest depth.
    pub fn nest_accesses<'a>(
        &'a self,
        nest: NestId,
        point: &'a [i64],
    ) -> impl Iterator<Item = ElementAccess> + 'a {
        self.nest(nest).refs().iter().map(move |r| {
            let array = self.array(r.array());
            let element = match r.subscript() {
                Subscript::Affine(m) => array.flatten(m.exprs().iter().map(|e| e.eval(point))),
                Subscript::Indirect { selector, table } => {
                    let sel = selector.eval(point).rem_euclid(table.len() as i64);
                    table[sel as usize] % array.n_elements()
                }
            };
            ElementAccess {
                array: r.array(),
                element,
                kind: r.kind(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{AccessKind, ArrayRef};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

    #[test]
    fn layout_is_aligned_and_sequential() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[10], 8); // 80 bytes
        let b = p.add_array("B", &[4], 8); // starts at 128
        assert_eq!(p.array_base(a), 0);
        assert_eq!(p.array_base(b), 128);
        assert_eq!(p.total_data_bytes(), 128 + 32);
        assert_eq!(p.address_of(b, 2), 128 + 16);
    }

    #[test]
    fn affine_accesses_resolve() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[8, 8], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, 5)
            .bounds(1, 0, 5)
            .build();
        let m = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0) + AffineExpr::constant(2, 1),
                AffineExpr::var(2, 1),
            ],
        );
        let nest = LoopNest::new("n", d).with_ref(ArrayRef::read(a, m));
        let id = p.add_nest(nest);
        let acc: Vec<_> = p.nest_accesses(id, &[2, 3]).collect();
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].element, 3 * 8 + 3); // A[3][3]
        assert_eq!(acc[0].kind, AccessKind::Read);
    }

    #[test]
    fn indirect_accesses_use_table() {
        let mut p = Program::new("t");
        let x = p.add_array("x", &[100], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 3).build();
        let nest = LoopNest::new("g", d).with_ref(ArrayRef::new(
            x,
            Subscript::Indirect {
                selector: AffineExpr::var(1, 0),
                table: vec![7u64, 42, 7, 99].into(),
            },
            AccessKind::Read,
        ));
        let id = p.add_nest(nest);
        let element = |i| p.nest_accesses(id, &[i]).next().unwrap().element;
        assert_eq!(element(1), 42);
        assert_eq!(element(2), 7);
    }

    #[test]
    #[should_panic(expected = "data layout overflows u64")]
    fn layout_past_u64_rejected() {
        let mut p = Program::new("t");
        let _ = p.add_array("A", &[1 << 60], 8);
        let _ = p.add_array("B", &[1 << 60], 8);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_array_rejected() {
        let mut p = Program::new("t");
        let d = IntegerSet::builder(1).bounds(0, 0, 3).build();
        let nest =
            LoopNest::new("n", d).with_ref(ArrayRef::read(ArrayId(5), AffineMap::identity(1)));
        let _ = p.add_nest(nest);
    }
}
