//! Mergeable aggregate values.

use std::collections::BTreeMap;

use ifi_sim::{PeerId, PeerMap};
use ifi_workload::ItemId;

use crate::wire::WireSizes;

/// A value that can be merged bottom-up along the hierarchy and has a
/// defined wire encoding size.
///
/// Merging must be **commutative**, and associative either exactly or up
/// to an error bound the type documents; [`Fold`](Aggregate::Fold) says
/// which, and with it how a convergecast may combine child reports. The
/// exact case is property-tested in the `netfilter` integration suite for
/// the three implementations below.
pub trait Aggregate: Clone + std::fmt::Debug {
    /// The merge discipline this algebra allows: [`OnArrival`] when
    /// `merge` is exactly associative (children fold in any order, nothing
    /// is buffered), [`Ascending`] when it is associative only up to an
    /// error bound, so the result depends on the order and a schedule-
    /// independent answer needs a canonical one.
    type Fold: Fold<Self>;

    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Folds an **owned** `other` into `self`. Must compute exactly the
    /// same value as [`merge`](Aggregate::merge); implementations may
    /// exploit ownership (e.g. keeping the larger of two containers) to
    /// avoid re-inserting the bigger side. The default delegates to
    /// `merge`, so overriding is purely an optimization.
    fn merge_owned(&mut self, other: Self) {
        self.merge(&other);
    }

    /// Bytes needed to transmit this value under the given size model.
    fn encoded_bytes(&self, sizes: &WireSizes) -> u64;
}

/// What a convergecast does with a child's report between its arrival and
/// the completion of the phase — chosen by the payload type through
/// [`Aggregate::Fold`], so it costs nothing where it is not needed.
pub trait Fold<A>: Default + Clone + std::fmt::Debug {
    /// Takes the report `from` sent, for `acc` (this node's own value so
    /// far).
    fn arrive(&mut self, acc: &mut A, from: PeerId, report: A);
    /// Every child has reported: leaves the subtree's value in `acc`.
    fn finish(self, acc: &mut A);
}

/// Folds each report into the accumulator as it arrives; holds nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnArrival;

impl<A: Aggregate> Fold<A> for OnArrival {
    fn arrive(&mut self, acc: &mut A, _from: PeerId, report: A) {
        acc.merge_owned(report);
    }

    fn finish(self, _acc: &mut A) {}
}

/// Buffers the reports and folds them in ascending [`PeerId`] at
/// completion, whatever order they arrived in.
#[derive(Debug, Clone)]
pub struct Ascending<A>(PeerMap<A>);

impl<A> Default for Ascending<A> {
    fn default() -> Self {
        Ascending(PeerMap::new())
    }
}

impl<A: Aggregate> Fold<A> for Ascending<A> {
    fn arrive(&mut self, _acc: &mut A, from: PeerId, report: A) {
        self.0.insert(from, report);
    }

    fn finish(self, acc: &mut A) {
        self.0.values().for_each(|report| acc.merge(report));
    }
}

/// A single summed counter — used for `v` (total mass) and `N` (peer
/// count), which the paper obtains "through simple aggregate computation"
/// (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScalarSum(pub u64);

impl Aggregate for ScalarSum {
    type Fold = OnArrival;

    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }

    fn encoded_bytes(&self, sizes: &WireSizes) -> u64 {
        sizes.sa
    }
}

/// A fixed-width vector of summed counters — the item-group aggregate
/// vector of candidate filtering (`f·g` slots, `s_a` bytes each).
///
/// Peers always transmit the full vector ("all these peers need to
/// propagate the aggregates for all the item groups", §IV-A), so the
/// encoded size is `s_a · len` regardless of how many slots are zero.
/// That is a rule about *charged* bytes, not about stored ones: in memory
/// the vector is **sparse until dense** — a run of `(slot, addend)`
/// updates while that run is smaller than the dense array, the dense
/// array from then on. The switch is derived from the two byte sizes
/// ([`VecSum::add_rows`], [`VecSum::add`], the merges), never configured,
/// and never observable: equality, [`VecSum::to_dense`] and
/// `encoded_bytes` see the logical vector only.
#[derive(Debug, Clone)]
pub struct VecSum {
    /// Logical slot count (`f·g`).
    len: usize,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Pending updates in arrival order; a slot may repeat. Invariant:
    /// `run_bytes(run.len()) < dense_bytes(len)` and every slot is `< len`.
    Run(Vec<Update>),
    /// One counter per slot; `len` of them.
    Dense(Vec<u64>),
}

/// One `(slot, addend)` update of a run, in 12 bytes where a `(u32, u64)`
/// takes 16. Packed, so its fields are only ever read by value.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Update(u32, u64);
const _: () = assert!(std::mem::size_of::<Update>() == 12);

const fn run_bytes(updates: usize) -> usize {
    updates.saturating_mul(std::mem::size_of::<Update>())
}

const fn dense_bytes(len: usize) -> usize {
    len.saturating_mul(std::mem::size_of::<u64>())
}

fn scatter(dense: &mut [u64], run: &[Update]) {
    for u in run {
        dense[u.0 as usize] += u.1;
    }
}

impl VecSum {
    /// A zeroed vector of `len` slots; allocates nothing if a run can name them.
    pub fn zeros(len: usize) -> Self {
        if len == 0 || u32::try_from(len).is_err() {
            return VecSum::from(vec![0; len]);
        }
        VecSum {
            len,
            repr: Repr::Run(Vec::new()),
        }
    }

    /// Adds one pass over `items` per row, each row mapping an item to the
    /// `(slot, addend)` it adds. The update count is known up front, so the
    /// choice is made once: the run grows once, to exactly the updates it
    /// then holds, or the array takes them all.
    ///
    /// # Panics
    ///
    /// Panics if a slot is `>= len`.
    pub fn add_rows<T, R: Fn(&T) -> (usize, u64)>(
        &mut self,
        items: &[T],
        rows: impl ExactSizeIterator<Item = R>,
    ) {
        let (len, count) = (self.len, rows.len().saturating_mul(items.len()));
        match &mut self.repr {
            Repr::Run(run) if run_bytes(run.len().saturating_add(count)) < dense_bytes(len) => {
                run.reserve_exact(count);
                for row in rows {
                    run.extend(items.iter().map(|item| {
                        let (slot, addend) = row(item);
                        assert!(slot < len, "slot {slot} out of {len} slots");
                        Update(slot as u32, addend)
                    }));
                }
            }
            _ => {
                let dense = self.densify();
                for row in rows {
                    items
                        .iter()
                        .map(&row)
                        .for_each(|(slot, addend)| dense[slot] += addend);
                }
            }
        }
    }

    /// Logical slot count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the dense array is what is stored (diagnostics and tests;
    /// no behaviour depends on it).
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Adds `value` to slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len`.
    pub fn add(&mut self, slot: usize, value: u64) {
        assert!(slot < self.len, "slot {slot} out of {} slots", self.len);
        match &mut self.repr {
            Repr::Dense(dense) => dense[slot] += value,
            Repr::Run(run) if run_bytes(run.len() + 1) < dense_bytes(self.len) => {
                run.push(Update(slot as u32, value));
            }
            Repr::Run(_) => self.densify()[slot] += value,
        }
    }

    /// The logical vector, slot by slot — borrowed when it is what is
    /// stored, materialized from the run otherwise.
    pub fn to_dense(&self) -> std::borrow::Cow<'_, [u64]> {
        match &self.repr {
            Repr::Dense(dense) => dense.into(),
            Repr::Run(run) => {
                let mut dense = vec![0; self.len];
                scatter(&mut dense, run);
                dense.into()
            }
        }
    }

    /// Switches to the dense array (no-op if already there).
    fn densify(&mut self) -> &mut Vec<u64> {
        if !self.is_dense() {
            self.repr = Repr::Dense(self.to_dense().into_owned());
        }
        match &mut self.repr {
            Repr::Dense(dense) => dense,
            Repr::Run(_) => unreachable!("densified above"),
        }
    }

    /// Folds a run in: appended, the run growing to exactly the combined
    /// length, while that is still smaller than the dense array;
    /// scatter-added into the array otherwise.
    fn add_run(&mut self, other: &[Update]) {
        match &mut self.repr {
            Repr::Run(run) if run_bytes(run.len() + other.len()) < dense_bytes(self.len) => {
                run.reserve_exact(other.len());
                run.extend_from_slice(other);
            }
            _ => scatter(self.densify(), other),
        }
    }

    fn assert_same_len(&self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "merging group vectors of different filter dimensions"
        );
    }
}

/// The vector `slots` spells out, stored densely.
impl From<Vec<u64>> for VecSum {
    fn from(slots: Vec<u64>) -> Self {
        VecSum {
            len: slots.len(),
            repr: Repr::Dense(slots),
        }
    }
}

/// Equality of the logical vectors, whatever each side stores.
impl PartialEq for VecSum {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.to_dense() == other.to_dense()
    }
}

impl Eq for VecSum {}

impl Default for VecSum {
    fn default() -> Self {
        VecSum::zeros(0)
    }
}

impl Aggregate for VecSum {
    type Fold = OnArrival;

    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    fn merge(&mut self, other: &Self) {
        self.assert_same_len(other);
        match (&mut self.repr, &other.repr) {
            (_, Repr::Run(b)) => self.add_run(b),
            (Repr::Dense(a), Repr::Dense(b)) => {
                for (a, b) in a.iter_mut().zip(b) {
                    *a += b;
                }
            }
            (Repr::Run(a), Repr::Dense(b)) => {
                let mut dense = b.clone();
                scatter(&mut dense, a);
                self.repr = Repr::Dense(dense);
            }
        }
    }

    /// A run that holds no updates takes `other`'s storage over, whatever
    /// its form; otherwise a run scatter-adds into whichever side is
    /// already dense, keeping that side's allocation.
    fn merge_owned(&mut self, other: Self) {
        self.assert_same_len(&other);
        match (&self.repr, other.repr) {
            (Repr::Run(a), repr) if a.is_empty() => self.repr = repr,
            (Repr::Run(a), Repr::Dense(mut b)) => {
                scatter(&mut b, a);
                self.repr = Repr::Dense(b);
            }
            (_, repr) => self.merge(&VecSum {
                len: self.len,
                repr,
            }),
        }
    }

    fn encoded_bytes(&self, sizes: &WireSizes) -> u64 {
        sizes.sa * self.len as u64
    }
}

/// A sparse `item → summed value` map — the partial candidate sets of
/// candidate verification (Alg. 2) and the full item maps of the naive
/// approach. Encodes as one `(s_i + s_a)` pair per entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapSum(pub BTreeMap<ItemId, u64>);

impl MapSum {
    /// Builds from `(item, value)` pairs, summing duplicates.
    ///
    /// Folds duplicate keys in the collected buffer itself, so the map is
    /// built from a sorted deduplicated run — `BTreeMap::from_iter`
    /// bulk-loads sorted input in linear time, vs one `O(log n)`
    /// rebalancing insert per pair — and no pairs means no allocation.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ItemId, u64)>) -> Self {
        let mut v: Vec<(ItemId, u64)> = pairs.into_iter().collect();
        // A filtered local item set, the common caller, is already one.
        if !v.windows(2).all(|w| w[0].0 < w[1].0) {
            v.sort_unstable_by_key(|&(k, _)| k);
            sum_adjacent(&mut v);
        }
        MapSum(v.into_iter().collect())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The summed value for `item`, 0 if absent.
    pub fn value(&self, item: ItemId) -> u64 {
        self.0.get(&item).copied().unwrap_or(0)
    }
}

impl Aggregate for MapSum {
    type Fold = OnArrival;

    fn merge(&mut self, other: &Self) {
        for (&k, &v) in &other.0 {
            *self.0.entry(k).or_insert(0) += v;
        }
    }

    /// Union-by-size: keeps the larger map and re-inserts only the smaller
    /// side. Addition is commutative, so the result (and therefore
    /// [`encoded_bytes`](Aggregate::encoded_bytes) of the merged value) is
    /// identical to [`merge`](Aggregate::merge) — only the insert count
    /// changes, which is what makes deep naive-approach unions cheap.
    fn merge_owned(&mut self, mut other: Self) {
        if other.0.len() > self.0.len() {
            std::mem::swap(&mut self.0, &mut other.0);
        }
        for (k, v) in other.0 {
            *self.0.entry(k).or_insert(0) += v;
        }
    }

    fn encoded_bytes(&self, sizes: &WireSizes) -> u64 {
        sizes.pair() * self.0.len() as u64
    }
}

/// Whether `pairs` is a **run**: strictly ascending by item (so
/// duplicate-free) with no zero value — the shape sparse item sums have on
/// the wire, and the one [`fold_run`] produces and [`merge_join`] consumes.
/// Pairs from outside are checked with this before they are trusted.
pub fn is_run<V: Default + PartialEq>(pairs: &[(ItemId, V)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0) && pairs.iter().all(|p| p.1 != V::default())
}

/// Folds arbitrary `(item, value)` pairs into a run in place: equal items
/// are summed, zero sums dropped. For input that is not already runs; two
/// runs sum in one pass with [`merge_runs`].
pub fn fold_run<V>(pairs: &mut Vec<(ItemId, V)>)
where
    V: Copy + Default + PartialEq + std::ops::AddAssign,
{
    pairs.sort_by_key(|&(k, _)| k);
    sum_adjacent(pairs);
    pairs.retain(|p| p.1 != V::default());
}

/// Sums each stretch of adjacent pairs for one item into its first pair.
fn sum_adjacent<V: Copy + std::ops::AddAssign>(pairs: &mut Vec<(ItemId, V)>) {
    pairs.dedup_by(|later, kept| {
        later.0 == kept.0 && {
            kept.1 += later.1;
            true
        }
    });
}

/// A sum that does not fit its value type: refused whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow;

/// Adds run `run` into run `acc` in one pass: equal items summed with the
/// overflow checked, zero sums dropped. An empty side costs nothing — an
/// empty `acc` takes `run`'s storage over — and otherwise the sum is
/// written to one buffer sized for both sides. On [`Overflow`] that buffer
/// is dropped and `acc` is exactly as it was.
pub fn merge_runs<V>(acc: &mut Vec<(ItemId, V)>, run: Vec<(ItemId, V)>) -> Result<(), Overflow>
where
    V: Copy + Default + PartialEq + Into<i128> + TryFrom<i128>,
{
    if acc.is_empty() || run.is_empty() {
        if acc.is_empty() {
            *acc = run;
        }
        return Ok(());
    }
    let (a, b) = (&acc[..], &run[..]);
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        let (lt, gt) = (x.0 < y.0, y.0 < x.0);
        let v = match (lt, gt) {
            (true, _) => Ok(x.1),
            (_, true) => Ok(y.1),
            _ => V::try_from(x.1.into() + y.1.into()).map_err(|_| Overflow),
        }?;
        if v != V::default() {
            out.push((if gt { y.0 } else { x.0 }, v));
        }
        i += usize::from(!gt);
        j += usize::from(!lt);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    *acc = out;
    Ok(())
}

/// Walks two runs in step: one `(item, a, b)` per item present in either,
/// ascending, with `None` for a side that lacks the item.
pub fn merge_join<'a, A: Copy, B: Copy>(
    a: &'a [(ItemId, A)],
    b: &'a [(ItemId, B)],
) -> impl Iterator<Item = (ItemId, Option<A>, Option<B>)> + 'a {
    let (mut a, mut b) = (a, b);
    std::iter::from_fn(move || {
        let (x, y) = (a.first().copied(), b.first().copied());
        let item = match (x, y) {
            (None, None) => return None,
            (Some(x), None) => x.0,
            (None, Some(y)) => y.0,
            (Some(x), Some(y)) => x.0.min(y.0),
        };
        let (x, y) = (x.filter(|x| x.0 == item), y.filter(|y| y.0 == item));
        a = &a[usize::from(x.is_some())..];
        b = &b[usize::from(y.is_some())..];
        Some((item, x.map(|x| x.1), y.map(|y| y.1)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sum_merges_and_sizes() {
        let mut a = ScalarSum(3);
        a.merge(&ScalarSum(4));
        assert_eq!(a, ScalarSum(7));
        assert_eq!(a.encoded_bytes(&WireSizes::default()), 4);
    }

    #[test]
    fn vec_sum_elementwise() {
        let mut a = VecSum::from(vec![1, 2, 3]);
        a.merge(&VecSum::from(vec![10, 0, 5]));
        assert_eq!(*a.to_dense(), [11, 2, 8]);
        assert_eq!(a.encoded_bytes(&WireSizes::default()), 12);
        assert_eq!(*VecSum::zeros(4).to_dense(), [0; 4]);
    }

    #[test]
    #[should_panic(expected = "different filter dimensions")]
    fn vec_sum_dimension_mismatch_panics() {
        let mut a = VecSum::from(vec![1]);
        a.merge(&VecSum::from(vec![1, 2]));
    }

    /// Where `v`'s updates or counters live, and how many fit there.
    fn storage(v: &VecSum) -> (*const u8, usize) {
        match &v.repr {
            Repr::Run(run) => (run.as_ptr().cast(), run.capacity()),
            Repr::Dense(dense) => (dense.as_ptr().cast(), dense.capacity()),
        }
    }

    /// `rows` passes of `n` updates over 8 slots, slot `k` of the flat
    /// sequence landing in `k % 8`.
    fn add_ones(v: &mut VecSum, rows: usize, n: usize) {
        let items: Vec<usize> = (0..n).collect();
        v.add_rows(
            &items,
            (0..rows).map(|r| move |&i: &usize| ((r * n + i) % 8, 1)),
        );
    }

    #[test]
    fn vec_sum_is_a_run_exactly_while_that_is_smaller_than_the_array() {
        // 8 slots are 64 dense bytes; a 12-byte update fits five times.
        let mut v = VecSum::zeros(8);
        assert_eq!(storage(&v).1, 0, "a fresh vector allocates nothing");
        for i in 0..5 {
            v.add(i, 1);
            assert!(!v.is_dense(), "{} updates", i + 1);
        }
        v.add(0, 1);
        assert!(v.is_dense());
        assert_eq!(*v.to_dense(), [2, 1, 1, 1, 1, 0, 0, 0]);
        // A known update count picks the final representation up front,
        // and a run is grown once, to exactly what it holds.
        let ones = |rows, n| {
            let mut v = VecSum::zeros(8);
            add_ones(&mut v, rows, n);
            v
        };
        assert!(!ones(1, 5).is_dense() && storage(&ones(1, 5)).1 == 5);
        assert!(!ones(0, 9).is_dense() && storage(&ones(0, 9)).1 == 0);
        assert!(ones(1, 6).is_dense());
        assert_eq!(*ones(3, 3).to_dense(), [2, 1, 1, 1, 1, 1, 1, 1]);
        // Onto a run that holds some already: the sum decides.
        let mut v = ones(1, 2);
        add_ones(&mut v, 1, 3);
        assert!(!v.is_dense() && storage(&v).1 == 5);
        add_ones(&mut v, 1, 1);
        assert!(v.is_dense());
        assert_eq!(*v.to_dense(), [3, 2, 1, 0, 0, 0, 0, 0]);
        assert!(VecSum::zeros(0).is_dense() && VecSum::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "slot 8 out of 8 slots")]
    fn add_rows_checks_every_slot_of_a_run() {
        VecSum::zeros(8).add_rows(&[1, 8], std::iter::once(|&slot: &usize| (slot, 1)));
    }

    #[test]
    fn an_empty_run_adopts_an_owned_report_in_the_form_it_came() {
        let mut run = VecSum::zeros(16);
        run.add(3, 4);
        for report in [run, VecSum::from(vec![1; 16])] {
            let (form, at) = (report.is_dense(), storage(&report));
            let mut acc = VecSum::zeros(16);
            acc.merge_owned(report.clone());
            assert_eq!(acc, report);
            let mut acc = VecSum::zeros(16);
            acc.merge_owned(report);
            assert_eq!(
                (acc.is_dense(), storage(&acc)),
                (form, at),
                "moved, not copied"
            );
        }
    }

    #[test]
    fn vec_sum_merges_agree_across_representations() {
        let mut slots = vec![0; 16];
        (slots[1], slots[6]) = (5, 7);
        let dense = VecSum::from(slots.clone());
        let mut run = VecSum::zeros(16);
        run.add(6, 7);
        run.add(1, 5);
        assert!(!run.is_dense());
        assert_eq!(run, dense);
        let sizes = WireSizes::default();
        assert_eq!(run.encoded_bytes(&sizes), dense.encoded_bytes(&sizes));
        (slots[1], slots[6]) = (10, 14);
        let want = VecSum::from(slots);
        for (a, b) in [
            (&run, &run),
            (&run, &dense),
            (&dense, &run),
            (&dense, &dense),
        ] {
            let mut by_ref = a.clone();
            by_ref.merge(b);
            let mut by_own = a.clone();
            by_own.merge_owned(b.clone());
            assert_eq!(by_ref, want);
            assert_eq!(by_own, want);
            // Only run + run may stay a run.
            assert_eq!(by_own.is_dense(), a.is_dense() || b.is_dense());
        }
    }

    /// One merge operand as generated: its updates (slots taken modulo
    /// the vector length), whether it is built as the dense array or fed
    /// update by update, and whether it is merged owned or by reference.
    type Operand = (Vec<(usize, u64)>, bool, bool);

    fn arb_operand() -> impl proptest::strategy::Strategy<Value = Operand> {
        use proptest::prelude::*;
        (
            prop::collection::vec((0usize..1 << 16, 0u64..1 << 40), 0..12),
            prop::bool::weighted(0.3),
            prop::bool::weighted(0.5),
        )
    }

    /// Folds `operands` left to right, each in its own stored form and
    /// merge flavour — into the first, or, as an interior peer does, into
    /// a `zeros(len)` that takes the first over — and then `own`, as two
    /// passes of `add_rows` (the second shifted one slot).
    fn fold(len: usize, interior: bool, operands: &[Operand], own: &[(usize, u64)]) -> VecSum {
        let mut acc = interior.then(|| VecSum::zeros(len));
        for (updates, dense, owned) in operands {
            let mut v = if *dense {
                VecSum::from(vec![0; len])
            } else {
                VecSum::zeros(len)
            };
            for &(slot, value) in updates {
                v.add(slot % len, value);
            }
            match &mut acc {
                None => acc = Some(v),
                Some(acc) if *owned => acc.merge_owned(v),
                Some(acc) => acc.merge(&v),
            }
        }
        let mut acc = acc.expect("at least one operand");
        let shifted = |r| move |&(slot, value): &(usize, u64)| ((slot + r) % len, value);
        acc.add_rows(own, (0..2).map(shifted));
        acc
    }

    proptest::proptest! {
        /// Any interleaving of run and dense operands, merged by reference
        /// or owned, in either order, into an operand or into an empty
        /// accumulator, with own updates added last, is the slot-wise sum —
        /// and what is stored shows in neither equality nor the charged
        /// bytes.
        #[test]
        fn vec_sum_fold_equals_the_dense_reference(
            len in 1usize..48,
            interior in proptest::bool::weighted(0.5),
            operands in proptest::collection::vec(arb_operand(), 1..8),
            own in proptest::collection::vec((0usize..1 << 16, 0u64..1 << 40), 0..12),
        ) {
            let mut reference = vec![0u64; len];
            for &(slot, value) in operands.iter().flat_map(|(updates, ..)| updates) {
                reference[slot % len] += value;
            }
            for &(slot, value) in &own {
                reference[slot % len] += value;
                reference[(slot + 1) % len] += value;
            }
            let forward = fold(len, interior, &operands, &own);
            proptest::prop_assert_eq!(&*forward.to_dense(), &reference[..]);

            let mut reversed = operands.clone();
            reversed.reverse();
            let backward = fold(len, interior, &reversed, &own);
            let dense = VecSum::from(reference);
            proptest::prop_assert_eq!(&forward, &backward);
            proptest::prop_assert_eq!(&forward, &dense);

            let sizes = WireSizes::default();
            for v in [&forward, &backward, &dense] {
                proptest::prop_assert_eq!(v.encoded_bytes(&sizes), sizes.sa * len as u64);
            }
        }
    }

    #[test]
    fn map_sum_union_with_addition() {
        let mut a = MapSum::from_pairs([(ItemId(1), 5), (ItemId(2), 1)]);
        let b = MapSum::from_pairs([(ItemId(2), 2), (ItemId(9), 7)]);
        a.merge(&b);
        assert_eq!(a.value(ItemId(1)), 5);
        assert_eq!(a.value(ItemId(2)), 3);
        assert_eq!(a.value(ItemId(9)), 7);
        assert_eq!(a.value(ItemId(0)), 0);
        assert_eq!(a.len(), 3);
        // 3 entries × (4 + 4) bytes.
        assert_eq!(a.encoded_bytes(&WireSizes::default()), 24);
    }

    #[test]
    fn from_pairs_sums_duplicates() {
        let m = MapSum::from_pairs([(ItemId(1), 2), (ItemId(1), 3)]);
        assert_eq!(m.value(ItemId(1)), 5);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn from_pairs_of_nothing_and_of_a_run() {
        assert!(MapSum::from_pairs([]).is_empty());
        // Strictly ascending input is kept as given — zero values too:
        // only `fold_run` drops those.
        let run = [(ItemId(2), 7), (ItemId(5), 0), (ItemId(9), 1)];
        let m = MapSum::from_pairs(run);
        assert_eq!(m.0.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(), run);
        let mut shuffled = run.to_vec();
        shuffled.rotate_left(1);
        shuffled.push((ItemId(5), 0));
        assert_eq!(MapSum::from_pairs(shuffled), m);
    }

    #[test]
    fn merge_owned_matches_merge_in_both_directions() {
        // The swap-to-larger fast path must be observationally identical
        // to the by-reference merge, whichever side is bigger.
        let small = MapSum::from_pairs([(ItemId(2), 2), (ItemId(9), 7)]);
        let big = MapSum::from_pairs([(ItemId(1), 5), (ItemId(2), 1), (ItemId(3), 3)]);
        for (a, b) in [(small.clone(), big.clone()), (big, small)] {
            let mut by_ref = a.clone();
            by_ref.merge(&b);
            let mut by_own = a;
            by_own.merge_owned(b);
            assert_eq!(by_own, by_ref);
            assert_eq!(
                by_own.encoded_bytes(&WireSizes::default()),
                by_ref.encoded_bytes(&WireSizes::default())
            );
        }
        // Default delegation path (no override).
        let mut s = ScalarSum(1);
        s.merge_owned(ScalarSum(2));
        assert_eq!(s, ScalarSum(3));
        let mut v = VecSum::from(vec![1, 2]);
        v.merge_owned(VecSum::from(vec![3, 4]));
        assert_eq!(*v.to_dense(), [4, 6]);
    }

    #[test]
    fn merge_is_commutative_on_samples() {
        let a = MapSum::from_pairs([(ItemId(1), 1), (ItemId(3), 9)]);
        let b = MapSum::from_pairs([(ItemId(3), 2), (ItemId(4), 4)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    /// The reference the run helpers are held to: a tree sum, zeros dropped.
    fn tree_sum(pairs: &[(ItemId, i64)]) -> Vec<(ItemId, i64)> {
        let mut sum: BTreeMap<ItemId, i64> = BTreeMap::new();
        for &(k, v) in pairs {
            *sum.entry(k).or_insert(0) += v;
        }
        sum.into_iter().filter(|&(_, v)| v != 0).collect()
    }

    /// Pairs over a small item space, so duplicates are common; values in
    /// ±3 including 0, so `+v/−v` cancellations and explicit zeros are too.
    fn arb_pairs() -> impl proptest::strategy::Strategy<Value = Vec<(ItemId, i64)>> {
        use proptest::prelude::*;
        prop::collection::vec((0u64..12, -3i64..4), 0..40)
            .prop_map(|v| v.into_iter().map(|(k, v)| (ItemId(k), v)).collect())
    }

    proptest::proptest! {
        /// `fold_run` of any pair list, and a `merge_join` sum of two
        /// folded runs, equal the tree sum of the same pairs — duplicates,
        /// cancelling pairs and empty sides included.
        #[test]
        fn fold_and_merge_join_equal_the_tree_sum(a in arb_pairs(), b in arb_pairs()) {
            let (mut ra, mut rb) = (a.clone(), b.clone());
            fold_run(&mut ra);
            fold_run(&mut rb);
            proptest::prop_assert!(is_run(&ra) && is_run(&rb));
            proptest::prop_assert_eq!(&ra, &tree_sum(&a));
            proptest::prop_assert_eq!(&rb, &tree_sum(&b));

            let joined: Vec<(ItemId, Option<i64>, Option<i64>)> = merge_join(&ra, &rb).collect();
            // Every item of either side exactly once, ascending, each side's
            // value where it has one.
            proptest::prop_assert!(joined.windows(2).all(|w| w[0].0 < w[1].0));
            let left: Vec<_> = joined.iter().filter_map(|&(k, x, _)| Some((k, x?))).collect();
            let right: Vec<_> = joined.iter().filter_map(|&(k, _, y)| Some((k, y?))).collect();
            proptest::prop_assert_eq!(&left, &ra);
            proptest::prop_assert_eq!(&right, &rb);
            let summed: Vec<(ItemId, i64)> = joined
                .iter()
                .map(|&(k, x, y)| (k, x.unwrap_or(0) + y.unwrap_or(0)))
                .filter(|&(_, v)| v != 0)
                .collect();
            let both: Vec<(ItemId, i64)> = a.iter().chain(&b).copied().collect();
            proptest::prop_assert_eq!(summed, tree_sum(&both));
        }
    }

    proptest::proptest! {
        /// Runs summed on arrival with `merge_runs`, in any order, equal
        /// `fold_run` of their concatenation — cancellations to zero, empty
        /// runs and the first run adopted by an empty accumulator included.
        #[test]
        fn merging_runs_on_arrival_equals_folding_their_concatenation(
            lists in proptest::collection::vec(arb_pairs(), 0..6),
            keys in proptest::collection::vec(0u64..1_000, 6),
        ) {
            let mut runs: Vec<(u64, Vec<(ItemId, i64)>)> = lists
                .into_iter()
                .zip(keys)
                .map(|(mut pairs, key)| {
                    fold_run(&mut pairs);
                    (key, pairs)
                })
                .collect();
            let mut want: Vec<_> = runs.iter().flat_map(|r| r.1.clone()).collect();
            fold_run(&mut want);
            // The generated order, then an arbitrary one.
            for pass in 0..2 {
                if pass == 1 {
                    runs.sort_by_key(|r| r.0);
                }
                let mut acc = Vec::new();
                for (_, run) in runs.clone() {
                    let adopted = (acc.is_empty() && !run.is_empty()).then_some(run.as_ptr());
                    proptest::prop_assert_eq!(merge_runs(&mut acc, run), Ok(()));
                    proptest::prop_assert!(is_run(&acc));
                    if let Some(at) = adopted {
                        proptest::prop_assert_eq!(acc.as_ptr(), at, "adopted, not copied");
                    }
                }
                proptest::prop_assert_eq!(&acc, &want);
            }
        }
    }

    #[test]
    fn merge_runs_refuses_an_overflowing_sum_whole() {
        let p = |k, v: i64| (ItemId(k), v);
        let mut acc = vec![p(0, 2), p(5, 1)];
        let before = (acc.clone(), acc.as_ptr());
        for run in [vec![p(0, i64::MAX)], vec![p(3, 1), p(5, i64::MAX)]] {
            assert_eq!(merge_runs(&mut acc, run), Err(Overflow));
            assert_eq!((acc.clone(), acc.as_ptr()), before, "untouched");
        }
        let mut low = vec![(ItemId(1), u64::MAX)];
        assert_eq!(merge_runs(&mut low, vec![(ItemId(1), 1)]), Err(Overflow));
        assert_eq!(merge_runs(&mut acc, vec![p(0, -2), p(5, i64::MIN)]), Ok(()));
        assert_eq!(acc, [p(5, i64::MIN + 1)], "a cancelled item is dropped");
        // An empty side keeps the other side's storage.
        let at = acc.as_ptr();
        assert_eq!(merge_runs(&mut acc, Vec::new()), Ok(()));
        assert_eq!(acc.as_ptr(), at);
    }

    #[test]
    fn is_run_rejects_duplicates_disorder_and_zeros() {
        let p = |k, v: i64| (ItemId(k), v);
        assert!(is_run::<i64>(&[]));
        assert!(is_run(&[p(1, -2), p(4, 7)]));
        assert!(!is_run(&[p(1, 2), p(1, 3)]), "duplicate item");
        assert!(!is_run(&[p(4, 2), p(1, 3)]), "descending");
        assert!(!is_run(&[p(1, 2), p(4, 0)]), "zero value");
    }
}
