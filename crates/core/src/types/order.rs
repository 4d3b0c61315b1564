//! Id lookups over slices kept in their own order.

/// The id order of a slice whose items each carry an id (as a raw index),
/// for binary search by id without reordering the slice.
///
/// When the ids strictly ascend — the served case: rounds list bidders
/// and publish tasks in id order — the slice is its own sorted index and
/// nothing is stored. Otherwise the order keeps the positions stably
/// sorted by id, so equal ids stay in slice order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IdOrder {
    /// Positions sorted by id; empty when the ids strictly ascend.
    sorted: Vec<u32>,
}

impl IdOrder {
    /// The order of the `len` ids `id(0), …, id(len - 1)`.
    pub(crate) fn new(len: usize, id: impl Fn(usize) -> usize) -> Self {
        let mut order = IdOrder::default();
        order.rebuild(len, id);
        order
    }

    /// Recomputes the order in place, reusing its buffer.
    pub(crate) fn rebuild(&mut self, len: usize, id: impl Fn(usize) -> usize) {
        debug_assert!(u32::try_from(len).is_ok(), "positions fit in u32");
        self.sorted.clear();
        if (1..len).any(|i| id(i - 1) >= id(i)) {
            self.sorted.extend(0..len as u32);
            // Ties broken by position: the order of a stable sort,
            // without its scratch buffer.
            self.sorted
                .sort_unstable_by_key(|&position| (id(position as usize), position));
        }
    }

    /// The first position, in slice order, whose id repeats an earlier
    /// one's.
    pub(crate) fn first_repeat(&self, id: impl Fn(usize) -> usize) -> Option<usize> {
        self.sorted
            .windows(2)
            .filter(|pair| id(pair[0] as usize) == id(pair[1] as usize))
            .map(|pair| pair[1] as usize)
            .min()
    }

    /// Heap bytes the order holds on to.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.sorted.capacity() * std::mem::size_of::<u32>()
    }

    /// The position of the item whose id is `key`, if any.
    pub(crate) fn find(
        &self,
        len: usize,
        key: usize,
        id: impl Fn(usize) -> usize,
    ) -> Option<usize> {
        let at = |rank: usize| {
            if self.sorted.is_empty() {
                rank
            } else {
                self.sorted[rank] as usize
            }
        };
        if len == 0 {
            return None;
        }
        // Consecutive ids (tasks 0..t, say) hold `key` at rank
        // `key - first`: one probe instead of a search.
        let guess = key.wrapping_sub(id(at(0)));
        if guess < len && id(at(guess)) == key {
            return Some(at(guess));
        }
        let (mut low, mut high) = (0, len);
        while low < high {
            let mid = low + (high - low) / 2;
            match id(at(mid)).cmp(&key) {
                std::cmp::Ordering::Less => low = mid + 1,
                std::cmp::Ordering::Greater => high = mid,
                std::cmp::Ordering::Equal => return Some(at(mid)),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(ids: &[usize]) -> IdOrder {
        IdOrder::new(ids.len(), |i| ids[i])
    }

    #[test]
    fn ascending_ids_store_nothing() {
        let ids = [3, 4, 9, 12];
        let order = order(&ids);
        assert_eq!(order, IdOrder::default());
        for (position, &id) in ids.iter().enumerate() {
            assert_eq!(order.find(ids.len(), id, |i| ids[i]), Some(position));
        }
        assert_eq!(order.find(ids.len(), 5, |i| ids[i]), None);
        assert_eq!(order.find(ids.len(), 13, |i| ids[i]), None);
        assert_eq!(order.first_repeat(|i| ids[i]), None);
        assert_eq!(IdOrder::new(0, |_| 0).find(0, 0, |_| 0), None);
    }

    #[test]
    fn shuffled_ids_search_through_sorted_positions() {
        let ids = [9, 2, 7, 2, 9, 4];
        let order = order(&ids);
        assert_eq!(order.sorted, [1, 3, 5, 2, 0, 4]);
        assert_eq!(order.first_repeat(|i| ids[i]), Some(3));
        assert_eq!(order.find(ids.len(), 7, |i| ids[i]), Some(2));
        assert_eq!(order.find(ids.len(), 4, |i| ids[i]), Some(5));
        assert_eq!(order.find(ids.len(), 8, |i| ids[i]), None);
        assert_eq!(order.find(ids.len(), usize::MAX, |i| ids[i]), None);
    }
}
