//! A bounded log of records packed into fixed slots: the one ring type
//! behind the AM's audit stripes and the Host's access log (DESIGN.md
//! §13).
//!
//! Every record is a small typed part beside a few text fields. A slot
//! holds both: the typed part as it is, and the fields back to back in
//! `BYTES` bytes of its own with their ends beside them, so the ring's
//! records sit in one contiguous run of slots. At the cap a record
//! overwrites the oldest slot in place and allocates nothing. Only a
//! record whose text does not fit (more than `BYTES` bytes or `FIELDS`
//! fields) keeps it on the heap, and that block goes with the record.
//! The slots grow as records arrive: nothing is reserved up to the cap.
//!
//! # Example
//!
//! ```
//! use ucam_webenv::RecordRing;
//!
//! let mut ring: RecordRing<u64, 32, 2> = RecordRing::new();
//! for at in 0..5 {
//!     ring.push(3, at, ["alice", "photo-1"]);
//! }
//! let kept: Vec<u64> = ring.iter().map(|(at, _)| *at).collect();
//! assert_eq!(kept, [2, 3, 4]);
//! let (_, mut fields) = ring.iter().next().unwrap();
//! assert_eq!((fields.next(), fields.next()), (Some("alice"), Some("photo-1")));
//! ```

/// One record's text fields, back to back.
#[derive(Debug)]
enum Text<const BYTES: usize, const FIELDS: usize> {
    /// Up to `FIELDS` fields in up to `BYTES` bytes, with each field's end.
    Inline {
        count: u8,
        ends: [u8; FIELDS],
        bytes: [u8; BYTES],
    },
    /// Text that does not fit, with each field's end.
    Heap { text: Box<str>, ends: Box<[usize]> },
}

impl<const BYTES: usize, const FIELDS: usize> Text<BYTES, FIELDS> {
    const EMPTY: Self = Text::Inline {
        count: 0,
        ends: [0; FIELDS],
        bytes: [0; BYTES],
    };

    /// Overwrites the text with `fields`: in place when they fit, else on
    /// the heap. A heap block an earlier record left is freed.
    fn fill<'a>(&mut self, fields: impl Iterator<Item = &'a str> + Clone) {
        const { assert!(BYTES <= u8::MAX as usize && FIELDS <= u8::MAX as usize) };
        let (len, count) = fields
            .clone()
            .fold((0, 0), |(len, n), f| (len + f.len(), n + 1));
        if len > BYTES || count > FIELDS {
            let mut text = String::with_capacity(len);
            let ends = fields.map(|field| {
                text.push_str(field);
                text.len()
            });
            let ends = ends.collect();
            *self = Text::Heap {
                text: text.into_boxed_str(),
                ends,
            };
            return;
        }
        if let Text::Heap { .. } = self {
            *self = Text::EMPTY;
        }
        if let Text::Inline {
            count: n,
            ends,
            bytes,
        } = self
        {
            let mut at = 0;
            for (end, field) in ends.iter_mut().zip(fields) {
                bytes[at..at + field.len()].copy_from_slice(field.as_bytes());
                at += field.len();
                *end = at as u8;
            }
            *n = count as u8;
        }
    }

    fn fields(&self) -> RecordFields<'_> {
        let (text, ends) = match self {
            Text::Inline { count, ends, bytes } => {
                let ends = &ends[..usize::from(*count)];
                let len = ends.last().map_or(0, |&end| usize::from(end));
                (&bytes[..len], Ends::Inline(ends.iter()))
            }
            Text::Heap { text, ends } => (text.as_bytes(), Ends::Heap(ends.iter())),
        };
        RecordFields {
            text,
            ends,
            start: 0,
        }
    }
}

/// A record's field ends, as its slot keeps them.
#[derive(Debug, Clone)]
enum Ends<'a> {
    Inline(std::slice::Iter<'a, u8>),
    Heap(std::slice::Iter<'a, usize>),
}

/// The text fields of one record, in the order they were pushed.
#[derive(Debug, Clone)]
pub struct RecordFields<'a> {
    text: &'a [u8],
    ends: Ends<'a>,
    start: usize,
}

impl<'a> Iterator for RecordFields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = match &mut self.ends {
            Ends::Inline(ends) => usize::from(*ends.next()?),
            Ends::Heap(ends) => *ends.next()?,
        };
        let field = &self.text[self.start..end];
        self.start = end;
        // Each field was pushed as a whole `str`.
        Some(std::str::from_utf8(field).expect("a field is whole UTF-8"))
    }
}

/// One record: its typed part and its text, starting on a cache line of
/// its own, so a slot of 64 or 128 bytes is written in one or two lines.
#[derive(Debug)]
#[repr(align(64))]
struct Slot<M, const BYTES: usize, const FIELDS: usize> {
    meta: M,
    text: Text<BYTES, FIELDS>,
}

/// A bounded log of records, each a typed part `M` beside its text
/// fields, packed into fixed slots of `BYTES` text bytes and `FIELDS`
/// field ends. See the [module documentation](self).
#[derive(Debug)]
pub struct RecordRing<M, const BYTES: usize, const FIELDS: usize> {
    slots: Vec<Slot<M, BYTES, FIELDS>>,
    /// The oldest slot, once the ring has wrapped; 0 before.
    head: usize,
}

impl<M, const BYTES: usize, const FIELDS: usize> Default for RecordRing<M, BYTES, FIELDS> {
    fn default() -> Self {
        RecordRing::new()
    }
}

impl<M, const BYTES: usize, const FIELDS: usize> RecordRing<M, BYTES, FIELDS> {
    /// An empty ring; allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        RecordRing {
            slots: Vec::new(),
            head: 0,
        }
    }

    /// The number of records held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a record, `meta` beside `fields`, keeping the newest `cap`
    /// records: at the cap it overwrites the oldest in place, and a cap
    /// below the records held first drops the oldest past it. A cap of 0
    /// keeps nothing.
    pub fn push<'a, I>(&mut self, cap: usize, meta: M, fields: I)
    where
        I: IntoIterator<Item = &'a str>,
        I::IntoIter: Clone,
    {
        if self.slots.len() != cap && self.head != 0 {
            // The cap moved after the ring wrapped: oldest first again.
            self.slots.rotate_left(self.head);
            self.head = 0;
        }
        if self.slots.len() > cap {
            self.slots.drain(..self.slots.len() - cap);
        }
        if cap == 0 {
            return;
        }
        if self.slots.len() < cap {
            let mut text = Text::EMPTY;
            text.fill(fields.into_iter());
            self.slots.push(Slot { meta, text });
            return;
        }
        let slot = &mut self.slots[self.head];
        slot.meta = meta;
        slot.text.fill(fields.into_iter());
        self.head = (self.head + 1) % cap;
    }

    /// The records, oldest first: each one's typed part and text fields.
    pub fn iter(&self) -> impl Iterator<Item = (&M, RecordFields<'_>)> + '_ {
        let (newer, older) = self.slots.split_at(self.head);
        older
            .iter()
            .chain(newer)
            .map(|slot| (&slot.meta, slot.text.fields()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    type Ring = RecordRing<u64, 16, 3>;

    fn held(ring: &Ring) -> Vec<(u64, Vec<String>)> {
        let own = |fields: RecordFields<'_>| fields.map(str::to_owned).collect();
        ring.iter()
            .map(|(meta, fields)| (*meta, own(fields)))
            .collect()
    }

    /// A record's text is inline exactly when it fits both budgets.
    fn inline(ring: &Ring) -> Vec<bool> {
        let (newer, older) = ring.slots.split_at(ring.head);
        let slots = older.iter().chain(newer);
        slots
            .map(|slot| matches!(slot.text, Text::Inline { .. }))
            .collect()
    }

    proptest! {
        /// The ring keeps what a queue of whole records keeps: the newest
        /// `cap` of them, oldest first, under caps that rise and fall,
        /// with fields empty, short, at the inline budgets and past them.
        #[test]
        fn the_ring_returns_the_newest_records_it_was_given(
            ops in proptest::collection::vec(
                (0usize..12, proptest::collection::vec("[a-z\u{e9}\u{1F600}]{0,20}", 0..6)),
                1..120,
            ),
        ) {
            let mut ring = Ring::new();
            let mut model: VecDeque<(u64, Vec<String>)> = VecDeque::new();
            for (seq, (cap, fields)) in (0..).zip(ops) {
                ring.push(cap, seq, fields.iter().map(String::as_str));
                if cap == 0 {
                    model.clear();
                } else {
                    while model.len() >= cap {
                        model.pop_front();
                    }
                    model.push_back((seq, fields.clone()));
                }
                prop_assert_eq!(held(&ring), Vec::from(model.clone()));
                prop_assert_eq!(ring.len(), model.len());
            }
            for ((_, fields), inline) in held(&ring).iter().zip(inline(&ring)) {
                let len: usize = fields.iter().map(String::len).sum();
                prop_assert_eq!(inline, len <= 16 && fields.len() <= 3);
            }
        }
    }

    /// A record too long for its slot keeps its text on the heap only
    /// while it is held: the record that overwrites it frees the block.
    #[test]
    fn a_long_record_gives_its_heap_block_back_when_overwritten() {
        let mut ring = Ring::new();
        let long = "x".repeat(64 * 1024);
        for at in 0..4 {
            ring.push(4, at, [long.as_str(), "a"]);
            ring.push(4, at, ["a", "b", "c", "d"]);
        }
        assert_eq!(inline(&ring), [false, false, false, false]);
        for at in 0..4 {
            ring.push(4, at, ["req", "r1"]);
        }
        assert_eq!(inline(&ring), [true, true, true, true]);
        assert!(held(&ring).iter().all(|(_, f)| f == &["req", "r1"]));
    }

    /// At the cap a record overwrites the oldest slot, so the slots stay
    /// where they were.
    #[test]
    fn at_the_cap_records_overwrite_the_oldest_slot_in_place() {
        let mut ring = Ring::new();
        for at in 0..8 {
            ring.push(8, at, ["req", "r1"]);
        }
        let slots = ring.slots.as_ptr();
        for at in 8..100 {
            ring.push(8, at, ["req", "r1"]);
        }
        assert_eq!(ring.slots.as_ptr(), slots);
        assert_eq!(ring.iter().next().map(|(at, _)| *at), Some(92));
    }
}
