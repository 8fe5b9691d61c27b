//! The access history's position word.
//!
//! Every engine has a rich strand position — [`StrandPos`] (English and
//! Hebrew handles plus the owning future) for SF-Order and F-Order,
//! [`MbPos`] (union-find element plus future) for MultiBags — and the
//! access history stores one per reader and writer. What the history's hot
//! path asks of a stored position is only *"is this the same position?"*,
//! so it stores a [`Pos`]: one word, minted by the engine where the rich
//! position is created, from which the engine recovers the rich position
//! when a query needs it.
//!
//! An engine mints an id only where its position *value* changes, so two
//! strands hold equal `Pos` exactly when they hold equal rich positions:
//!
//! * SF-Order and F-Order: the id is the English order-maintenance handle
//!   (+ 1). Every [`SpPos`] is born with a fresh English handle, which no
//!   other `SpPos` shares, and every `SpPos` belongs to one future. The
//!   English item's `aux` word holds the Hebrew handle and the Hebrew
//!   item's holds the future ([`SpOrder::resolve`]).
//! * MultiBags: the id is the task's union-find element (+ 1); the
//!   element's future sits next to its parent, rank and bag kind
//!   ([`MbReach::resolve`]).
//!
//! [`StrandPos`]: crate::StrandPos
//! [`SpPos`]: crate::SpPos
//! [`SpOrder::resolve`]: crate::SpOrder::resolve
//! [`MbPos`]: crate::MbPos
//! [`MbReach::resolve`]: crate::MbReach::resolve

use std::num::NonZeroU32;

/// A strand position interned as one word (see the module docs). Non-zero,
/// so `Option<Pos>` is 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pos(NonZeroU32);

impl Pos {
    /// The id of entry `index` of an engine's position table.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        debug_assert!(index < u32::MAX, "position table is out of ids");
        Pos(NonZeroU32::MIN.saturating_add(index))
    }

    /// The position-table entry this id names.
    #[inline]
    pub fn index(self) -> u32 {
        self.0.get() - 1
    }
}

/// The id as the access history stores it: one nonzero word.
impl From<Pos> for u32 {
    #[inline]
    fn from(p: Pos) -> u32 {
        p.0.get()
    }
}

/// The id a stored word holds; 0 holds none.
impl TryFrom<u32> for Pos {
    type Error = std::num::TryFromIntError;

    #[inline]
    fn try_from(w: u32) -> Result<Pos, Self::Error> {
        NonZeroU32::try_from(w).map(Pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_optional_position_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<Pos>>(), 4);
        for i in [0, 1, 7, u32::MAX - 1] {
            assert_eq!(Pos::from_index(i).index(), i);
            let w = u32::from(Pos::from_index(i));
            assert_eq!((w, Pos::try_from(w)), (i + 1, Ok(Pos::from_index(i))));
        }
        assert!(Pos::try_from(0).is_err());
    }
}
