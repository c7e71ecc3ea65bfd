//! Packed validity bitmaps: one bit per row, `1` = valid (non-null).
//!
//! Every column stores its missingness here instead of wrapping each cell
//! in `Option`. Bits are packed into `u64` words so null counting is a
//! popcount sweep and mask combination is word-at-a-time. The invariant
//! maintained throughout: **trailing bits past `len` are always zero**, so
//! word-level operations never need a per-call cleanup pass before
//! counting.

/// A packed bitmap over `len` rows. Bit `i` of word `i / 64` is row `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

fn n_words(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl Bitmap {
    /// A bitmap of `len` rows, all set (all valid).
    pub fn new_set(len: usize) -> Bitmap {
        let mut bm = Bitmap {
            words: vec![u64::MAX; n_words(len)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// A bitmap of `len` rows, all clear (all null).
    pub fn new_clear(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; n_words(len)],
            len,
        }
    }

    /// Builds from a bool slice (`true` = set).
    pub fn from_bools(bits: &[bool]) -> Bitmap {
        let mut bm = Bitmap::new_clear(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        bm
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`. Out-of-range reads return `false`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`. Panics in debug builds when out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// The bits at `indices`, in that order (duplicates allowed; every
    /// index must be in range). An all-set source gathers to an all-set
    /// map without reading a bit.
    pub fn gather(&self, indices: &[usize]) -> Bitmap {
        if self.all_set() {
            return Bitmap::new_set(indices.len());
        }
        let words = indices
            .chunks(WORD_BITS)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |word, (bit, &i)| word | u64::from(self.get(i)) << bit)
            })
            .collect();
        Bitmap {
            words,
            len: indices.len(),
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        if value {
            *self.words.last_mut().expect("just ensured") |= 1u64 << (self.len % WORD_BITS);
        }
        self.len += 1;
    }

    /// Appends all bits of `other`.
    pub fn extend(&mut self, other: &Bitmap) {
        if self.len.is_multiple_of(WORD_BITS) {
            // Word-aligned: splice the words straight in.
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Number of set bits (popcount over words; the tail invariant makes
    /// this exact without masking).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Whether every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Word-wise AND. Lengths must match (callers check).
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise OR.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise XOR.
    pub fn xor(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise NOT (tail bits re-cleared to keep the invariant).
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// The backing words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates bits in row order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Clears bits past `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_and_counts() {
        let bm = Bitmap::new_set(70);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.all_set());
        let bm = Bitmap::new_clear(70);
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.count_zeros(), 70);
    }

    #[test]
    fn get_set_roundtrip_across_word_boundary() {
        let mut bm = Bitmap::new_clear(130);
        bm.set(0, true);
        bm.set(63, true);
        bm.set(64, true);
        bm.set(129, true);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(65));
        assert_eq!(bm.count_ones(), 4);
        bm.set(64, false);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn push_and_extend() {
        let mut bm = Bitmap::new_clear(0);
        for i in 0..100 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 34);
        let mut a = Bitmap::from_bools(&[true, false, true]);
        let b = Bitmap::from_bools(&[false, true]);
        a.extend(&b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![true, false, true, false, true]
        );
        // Word-aligned extend path.
        let mut c = Bitmap::new_set(64);
        c.extend(&b);
        assert_eq!(c.len(), 66);
        assert_eq!(c.count_ones(), 65);
    }

    #[test]
    fn logic_keeps_tail_invariant() {
        let a = Bitmap::from_bools(&[true, true, false]);
        let b = Bitmap::from_bools(&[true, false, true]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![true, false, false]);
        assert_eq!(a.or(&b).iter().collect::<Vec<_>>(), vec![true, true, true]);
        assert_eq!(a.xor(&b).iter().collect::<Vec<_>>(), vec![false, true, true]);
        let n = a.not();
        assert_eq!(n.iter().collect::<Vec<_>>(), vec![false, false, true]);
        // NOT of a 3-row map must not set the 61 tail bits.
        assert_eq!(n.count_ones(), 1);
    }

    #[test]
    fn from_bools_matches_iter() {
        let bits = vec![true, false, true, true, false];
        let bm = Bitmap::from_bools(&bits);
        assert_eq!(bm.iter().collect::<Vec<_>>(), bits);
        assert!(!bm.get(99));
    }
}
