//! Packed field lists: the one buffer behind each part of a message.
//!
//! A request's headers, its form and its URL's query, and a response's
//! headers, are each one [`Fields`]: every name and value back to back in
//! one `String`, in name order, with each pair's end offsets in an index
//! beside it. Building a message part costs one allocation for its text
//! (the index holds up to six pairs inline), and the part behaves like
//! the sorted map it replaces:
//!
//! * iteration runs in name order, so every encoder emits its pairs in a
//!   fixed order;
//! * [`Fields::insert`] replaces the value of an equal name, so of
//!   duplicates the last one inserted wins;
//! * the buffer holds exactly the live pairs, so two lists holding the
//!   same pairs are equal however they were built;
//! * nothing separates the fields in band: a value holding `&`, `=`,
//!   `\0`, CR or LF stays inside its field, and no byte of one field can
//!   answer for another name.
//!
//! A [`Url`](crate::Url) keeps its authority and path in the same buffer,
//! ahead of its query pairs (the buffer's *head*); a plain field list has
//! an empty head.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use crate::url::decode_into;

/// Pairs the index holds inline before it spills to the heap: enough for
/// the decision query's form and the Fig. 5 authorize URL, while a
/// `Response` (status, headers, body) stays under 128 bytes to move.
const INLINE: usize = 6;

/// One pair's ends, relative to the start of the pairs: where its name
/// ends and where its value ends. A name starts where the previous
/// pair's value ends (the first one at 0).
type Ends = (u32, u32);

/// The pairs' end offsets, inline up to [`INLINE`] pairs.
#[derive(Clone)]
enum Index {
    Inline { len: u8, ends: [Ends; INLINE] },
    Spilled(Vec<Ends>),
}

impl Index {
    const EMPTY: Index = Index::Inline {
        len: 0,
        ends: [(0, 0); INLINE],
    };

    fn as_slice(&self) -> &[Ends] {
        match self {
            Index::Inline { len, ends } => &ends[..usize::from(*len)],
            Index::Spilled(ends) => ends,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Ends] {
        match self {
            Index::Inline { len, ends } => &mut ends[..usize::from(*len)],
            Index::Spilled(ends) => ends,
        }
    }

    fn push(&mut self, end: Ends) {
        let at = self.as_slice().len();
        self.insert(at, end);
    }

    fn insert(&mut self, at: usize, end: Ends) {
        match self {
            Index::Inline { len, ends } if usize::from(*len) < INLINE => {
                ends.copy_within(at..usize::from(*len), at + 1);
                ends[at] = end;
                *len += 1;
            }
            Index::Inline { ends, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(ends);
                spilled.insert(at, end);
                *self = Index::Spilled(spilled);
            }
            Index::Spilled(ends) => ends.insert(at, end),
        }
    }
}

/// An offset into a field list's text, which stays under 4 GiB (a wire
/// message is capped at [`MAX_MESSAGE_BYTES`](crate::codec::MAX_MESSAGE_BYTES)).
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a field list stays under 4 GiB")
}

/// Moves every end in `ends` by the change from `old` to `new` bytes.
fn shift(ends: &mut [Ends], old: usize, new: usize) {
    let (old, new) = (offset(old), offset(new));
    for end in ends {
        end.0 = end.0 - old + new;
        end.1 = end.1 - old + new;
    }
}

/// Name/value pairs in one buffer, sorted by name, each name at most once.
///
/// # Example
///
/// ```
/// use ucam_webenv::Fields;
///
/// let mut form = Fields::new();
/// form.insert("token", "t.1");
/// form.insert("owner", "bob");
/// form.insert("token", "t.2");
/// assert_eq!(form.get("token"), Some("t.2"));
/// assert_eq!(form.iter().collect::<Vec<_>>(), [("owner", "bob"), ("token", "t.2")]);
/// ```
#[derive(Clone)]
pub struct Fields {
    /// The head (empty, or a URL's authority and path), then each pair's
    /// name and value.
    buf: String,
    /// Where the head ends and the pairs start.
    head: u32,
    index: Index,
}

impl Fields {
    /// An empty list; allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        Fields {
            buf: String::new(),
            head: 0,
            index: Index::EMPTY,
        }
    }

    /// An empty list with room for `bytes` of names and values.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Fields {
            buf: String::with_capacity(bytes),
            ..Fields::new()
        }
    }

    /// An empty list whose buffer starts with the `head` parts, with room
    /// for `bytes` in all.
    pub(crate) fn with_head(head: &[&str], bytes: usize) -> Self {
        let mut buf = String::with_capacity(bytes);
        for part in head {
            buf.push_str(part);
        }
        Fields {
            head: offset(buf.len()),
            buf,
            index: Index::EMPTY,
        }
    }

    /// The buffer's head.
    pub(crate) fn head(&self) -> &str {
        &self.buf[..self.head as usize]
    }

    /// Replaces `range` of the head with `with`.
    pub(crate) fn replace_head(&mut self, range: Range<usize>, with: &str) {
        let removed = range.len();
        self.buf.replace_range(range, with);
        self.head = offset(self.head as usize - removed + with.len());
    }

    /// Makes room for `additional` more bytes of names and values.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.as_slice().len()
    }

    /// Whether the list holds no pair.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of `name`, if present. A scan over the index that
    /// compares a name's bytes only where its length matches: a message
    /// part holds a handful of pairs.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        let head = self.head as usize;
        let mut start = head;
        for &(name_end, value_end) in self.index.as_slice() {
            let (name_end, value_end) = (head + name_end as usize, head + value_end as usize);
            if name_end - start == name.len()
                && &self.buf.as_bytes()[start..name_end] == name.as_bytes()
            {
                return Some(&self.buf[name_end..value_end]);
            }
            start = value_end;
        }
        None
    }

    /// The pairs in name order.
    #[must_use]
    pub fn iter(&self) -> Pairs<'_> {
        Pairs {
            text: self.text(),
            ends: self.index.as_slice().iter(),
            start: 0,
        }
    }

    /// The bytes of all values together, read off the index alone.
    pub(crate) fn value_bytes(&self) -> usize {
        let ends = self.index.as_slice().iter();
        ends.map(|&(name_end, value_end)| (value_end - name_end) as usize)
            .sum()
    }

    /// Sets `name` to `value`, replacing the value of an equal name.
    pub fn insert(&mut self, name: &str, value: &str) {
        self.insert_parts(name, &[value]);
    }

    /// Sets `name` to the concatenation of `parts`, replacing the value
    /// of an equal name.
    pub(crate) fn insert_parts(&mut self, name: &str, parts: &[&str]) {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        self.buf.reserve(name.len() + len);
        let mut pos = match self.find(name) {
            Ok(at) => {
                let (name_end, value_end) = self.index.as_slice()[at];
                let value = self.abs(name_end)..self.abs(value_end);
                self.buf.replace_range(value.clone(), "");
                let ends = self.index.as_mut_slice();
                ends[at].1 = name_end + offset(len);
                shift(&mut ends[at + 1..], value.len(), len);
                value.start
            }
            Err(at) => {
                let start = self.abs(self.start_of(at));
                self.buf.insert_str(start, name);
                let name_end = self.rel(start + name.len());
                self.index.insert(at, (name_end, name_end + offset(len)));
                shift(
                    &mut self.index.as_mut_slice()[at + 1..],
                    0,
                    name.len() + len,
                );
                start + name.len()
            }
        };
        for part in parts {
            self.buf.insert_str(pos, part);
            pos += part.len();
        }
    }

    /// Sets `name` to the value `write` appends to the buffer it is given:
    /// the buffer's own end when `name` sorts after every held name (a
    /// new list's first field among them), else a temporary string.
    pub(crate) fn insert_with(&mut self, name: &str, write: impl FnOnce(&mut String)) {
        if self.find(name) != Err(self.len()) {
            let mut value = String::new();
            write(&mut value);
            self.insert(name, &value);
            return;
        }
        self.buf.push_str(name);
        let name_end = self.rel(self.buf.len());
        write(&mut self.buf);
        let ends = (name_end, self.rel(self.buf.len()));
        self.index.push(ends);
    }

    /// Appends one pair per item, each as `write` writes it to the
    /// buffer's end (the name, then the value; it returns the name's
    /// length), then restores name order. Pairs that arrive in name order
    /// (as every encoder emits them) are written in place and kept as
    /// they are; any other order costs one sort and one rebuilt buffer,
    /// never a move per pair, and of equal names the last to arrive wins.
    pub(crate) fn extend_with<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut String, T) -> usize,
    ) {
        let mut ordered = true;
        for item in items {
            let start = self.buf.len();
            let name_end = start + write(&mut self.buf, item);
            if let Some(last) = self.len().checked_sub(1) {
                ordered &= self.pair(last).0 < &self.buf[start..name_end];
            }
            let ends = (self.rel(name_end), self.rel(self.buf.len()));
            self.index.push(ends);
        }
        if !ordered {
            self.restore_order();
        }
    }

    /// Appends the pairs of a percent-encoded `k=v&...` string (a query
    /// string, an `x-ucam-form` value), decoded; see [`Fields::extend_with`].
    /// An empty pair is skipped and a pair without `=` has an empty value.
    pub(crate) fn extend_decoded(&mut self, encoded: &str) {
        let pairs = encoded.split('&').filter(|pair| !pair.is_empty());
        self.extend_with(pairs, |buf, pair| {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
            let start = buf.len();
            decode_into(buf, name);
            let name_len = buf.len() - start;
            decode_into(buf, value);
            name_len
        });
    }

    /// Sorts the pairs by name, keeping of equal names only the last to
    /// arrive, into a rebuilt buffer.
    fn restore_order(&mut self) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        // A stable sort: equal names keep their arrival order.
        order.sort_by(|&a, &b| self.pair(a).0.cmp(self.pair(b).0));
        let mut sorted = Fields::with_head(&[self.head()], self.buf.len());
        for (i, &at) in order.iter().enumerate() {
            let (name, value) = self.pair(at);
            // Of equal names, only the last to arrive is kept.
            let later = order.get(i + 1).map(|&next| self.pair(next).0);
            if later == Some(name) {
                continue;
            }
            sorted.buf.push_str(name);
            let name_end = sorted.rel(sorted.buf.len());
            sorted.buf.push_str(value);
            let ends = (name_end, sorted.rel(sorted.buf.len()));
            sorted.index.push(ends);
        }
        *self = sorted;
    }

    /// Every name and value back to back, in name order: the buffer
    /// after its head.
    pub(crate) fn text(&self) -> &str {
        &self.buf[self.head as usize..]
    }

    /// A buffer position from an offset relative to the pairs.
    fn abs(&self, rel: u32) -> usize {
        self.head as usize + rel as usize
    }

    /// An offset relative to the pairs from a buffer position.
    fn rel(&self, abs: usize) -> u32 {
        offset(abs - self.head as usize)
    }

    /// Where pair `at` starts, relative to the pairs.
    fn start_of(&self, at: usize) -> u32 {
        at.checked_sub(1)
            .map_or(0, |prev| self.index.as_slice()[prev].1)
    }

    /// Pair `at`'s name and value.
    fn pair(&self, at: usize) -> (&str, &str) {
        let (name_end, value_end) = self.index.as_slice()[at];
        let text = self.text();
        let start = self.start_of(at) as usize;
        (
            &text[start..name_end as usize],
            &text[name_end as usize..value_end as usize],
        )
    }

    /// The position of `name` (`Ok`), or where it would be inserted
    /// (`Err`). A name after every held one is found without a search.
    fn find(&self, name: &str) -> Result<usize, usize> {
        let len = self.len();
        if len == 0 || self.pair(len - 1).0 < name {
            return Err(len);
        }
        let (mut lo, mut hi) = (0, len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.pair(mid).0.cmp(name) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }
}

impl Default for Fields {
    fn default() -> Self {
        Fields::new()
    }
}

impl PartialEq for Fields {
    /// Equal when they hold the same pairs (each list holds exactly its
    /// live pairs, in name order, so this compares two buffers).
    fn eq(&self, other: &Self) -> bool {
        self.text() == other.text() && self.index.as_slice() == other.index.as_slice()
    }
}

impl Eq for Fields {}

impl fmt::Debug for Fields {
    /// A map: `{"name": "value", ...}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The pairs of a [`Fields`] (or of a [`Url`](crate::Url)'s query) in
/// name order.
#[derive(Clone, Debug)]
pub struct Pairs<'a> {
    text: &'a str,
    ends: std::slice::Iter<'a, Ends>,
    start: u32,
}

impl<'a> Iterator for Pairs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let &(name_end, value_end) = self.ends.next()?;
        let name = &self.text[self.start as usize..name_end as usize];
        let value = &self.text[name_end as usize..value_end as usize];
        self.start = value_end;
        Some((name, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn names_are_compared_by_their_bytes_not_their_lengths() {
        let mut form = Fields::new();
        for (name, value) in [("token", "t"), ("owner", "bob"), ("realm", "r")] {
            form.insert(name, value);
        }
        assert_eq!(form.get("token"), Some("t"));
        assert_eq!(form.get("owner"), Some("bob"));
        assert_eq!(form.get("realm"), Some("r"));
        assert_eq!(form.get("tokeN"), None);
        assert_eq!(form.get("scope"), None);
    }

    #[test]
    fn values_hold_separators_and_control_bytes_inside_their_field() {
        let mut fields = Fields::new();
        fields.insert("a", "x&b=evil\r\n\0");
        fields.insert("b", "real");
        assert_eq!(fields.get("a"), Some("x&b=evil\r\n\0"));
        assert_eq!(fields.get("b"), Some("real"));
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn the_index_spills_past_its_inline_pairs() {
        let mut fields = Fields::new();
        for i in (0..3 * INLINE).rev() {
            fields.insert(&format!("k{i:02}"), &i.to_string());
        }
        assert_eq!(fields.len(), 3 * INLINE);
        for i in 0..3 * INLINE {
            assert_eq!(
                fields.get(&format!("k{i:02}")),
                Some(i.to_string().as_str())
            );
        }
        let names: Vec<_> = fields.iter().map(|(k, _)| k).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_decoded_duplicate_keeps_the_last_value() {
        let mut fields = Fields::new();
        fields.extend_decoded("a=1&b=2&b=3%264&a=5&c=6&a=7&b");
        let want = [("a", "7"), ("b", ""), ("c", "6")];
        assert!(fields.iter().eq(want), "{fields:?}");
        // In name order, a repeated name is replaced in place.
        let mut ordered = Fields::new();
        ordered.extend_decoded("a=1&b=2&b=3%264");
        assert!(ordered.iter().eq([("a", "1"), ("b", "3&4")]), "{ordered:?}");
    }

    #[test]
    fn any_arrival_order_decodes_to_the_same_fields() {
        let forward = "a=1&b=2&c=3&d=4&e=5&f=6&g=7&h=8&i=9&j=10";
        let backward: Vec<&str> = forward.split('&').rev().collect();
        let mut sorted = Fields::new();
        sorted.extend_decoded(forward);
        let mut reversed = Fields::new();
        reversed.extend_decoded(&backward.join("&"));
        assert_eq!(sorted, reversed);
        assert_eq!(reversed.get("j"), Some("10"));
        assert_eq!(reversed.len(), 10);
    }

    #[test]
    fn debug_prints_a_map() {
        let mut fields = Fields::new();
        fields.insert("b", "2");
        fields.insert("a", "1");
        let map = BTreeMap::from([("a", "1"), ("b", "2")]);
        assert_eq!(format!("{fields:?}"), format!("{map:?}"));
    }

    /// One step of the model test.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(String, String),
        Get(String),
    }

    /// Names and values: empty, short (so they repeat), non-ASCII,
    /// separators and control bytes, and 1 KiB.
    struct Text;

    impl Strategy for Text {
        type Value = String;

        fn sample(&self, rng: &mut proptest::TestRng) -> String {
            match (0u8..5).sample(rng) {
                0 => String::new(),
                1 => "[a-c]{1,2}".sample(rng),
                2 => "[a-c\\u{e9}\\u{20ac}\\u{1F600}]{0,3}".sample(rng),
                3 => "[a&=\\u{0}\r\n%]{0,4}".sample(rng),
                _ => "[a-z]{1024}".sample(rng),
            }
        }
    }

    struct Step;

    impl Strategy for Step {
        type Value = Op;

        fn sample(&self, rng: &mut proptest::TestRng) -> Op {
            match (0u8..4).sample(rng) {
                0 => Op::Get(Text.sample(rng)),
                _ => Op::Insert(Text.sample(rng), Text.sample(rng)),
            }
        }
    }

    proptest! {
        #[test]
        fn fields_behave_like_a_sorted_map(ops in proptest::collection::vec(Step, 0..40)) {
            let mut fields = Fields::new();
            let mut model = BTreeMap::new();
            for op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        fields.insert(k, v);
                        model.insert(k.clone(), v.clone());
                    }
                    Op::Get(k) => prop_assert_eq!(fields.get(k), model.get(k).map(String::as_str)),
                }
                prop_assert_eq!(fields.len(), model.len());
                prop_assert_eq!(fields.is_empty(), model.is_empty());
                prop_assert!(fields.iter().eq(model.iter().map(|(k, v)| (k.as_str(), v.as_str()))));
                prop_assert_eq!(fields.value_bytes(), model.values().map(String::len).sum::<usize>());
            }
            // The same pairs inserted in another order (last value per
            // name only) compare equal, and so does a clone.
            let mut rebuilt = Fields::new();
            for (k, v) in model.iter().rev() {
                rebuilt.insert(k, v);
            }
            prop_assert_eq!(&rebuilt, &fields);
            prop_assert_eq!(&fields.clone(), &fields);
            let mut other = fields.clone();
            other.insert("\u{10FFFF}", "");
            prop_assert_ne!(&other, &fields);
        }

        #[test]
        fn decoding_matches_decoded_inserts(
            pairs in proptest::collection::vec(("[a-c%2]{0,4}", "[a-c%26]{0,4}"), 0..12),
        ) {
            let mut pushed = Fields::new();
            let encoded: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            pushed.extend_decoded(&encoded.join("&"));
            let mut inserted = Fields::new();
            for (k, v) in &pairs {
                let (mut dk, mut dv) = (String::new(), String::new());
                decode_into(&mut dk, k);
                decode_into(&mut dv, v);
                inserted.insert(&dk, &dv);
            }
            prop_assert_eq!(pushed, inserted);
        }
    }
}
