//! LZ77 match finding over a sliding window.
//!
//! A hash-chain matcher in the zlib/LZMA lineage: positions are indexed by
//! a hash of their 3-byte prefix; candidate matches are walked newest-first
//! up to a bounded chain depth. Greedy parsing with a one-step lazy
//! heuristic (defer a match if the next position matches longer).
//!
//! The chain tables live in a per-thread scratch that outlasts a call:
//! a 2^15-entry `u32` head (128 KiB) that each call first restores to
//! empty through the list of buckets the previous call set, and a `prev`
//! array sized to `min(len, WINDOW)`. A 1 KB keypoint frame therefore
//! neither allocates nor fills the tables; a thread's scratch tops out at
//! 512 KiB after the largest input it has compressed.

use visionsim_core::SimError;

/// Smallest useful match.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match.
pub const MAX_MATCH: usize = 273;
/// Sliding window (maximum match distance).
pub const WINDOW: usize = 1 << 16;

const HASH_BITS: u32 = 15;
const CHAIN_DEPTH: usize = 64;

/// One parsed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Copy length, in `[MIN_MATCH, MAX_MATCH]`.
        len: usize,
        /// Distance back, in `[1, WINDOW]`.
        dist: usize,
    },
}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(0x0185));
    (h >> (16 - HASH_BITS) & ((1 << HASH_BITS) - 1)) as usize
}

fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Hash-chain tables, kept per thread and reused across calls: a keypoint
/// frame is ~1 KB, so allocating and clearing full-window tables on every
/// call would cost far more than the match search itself.
///
/// Positions are stored as `pos + 1`, with 0 for "none".
struct Chains {
    /// Newest position of each hash bucket.
    head: Vec<u32>,
    /// Buckets set since `head` was last all zero, so the next call clears
    /// them without clearing the other ~32k entries. Clearing at the start
    /// rather than the end keeps a call that unwound out of `emit` from
    /// leaving stale chains behind.
    touched: Vec<u32>,
    /// Next-older position in the same bucket, indexed by position modulo
    /// [`WINDOW`] and sized `min(len, WINDOW)`. Never cleared: a slot is
    /// only read for a position this call inserted, which wrote it first.
    prev: Vec<u32>,
}

thread_local! {
    static CHAINS: std::cell::RefCell<Chains> = const {
        std::cell::RefCell::new(Chains {
            head: Vec::new(),
            touched: Vec::new(),
            prev: Vec::new(),
        })
    };
}

impl Chains {
    fn prepare(&mut self, n: usize) {
        if self.head.is_empty() {
            self.head = vec![0; 1 << HASH_BITS];
        }
        for &h in &self.touched {
            self.head[h as usize] = 0;
        }
        self.touched.clear();
        let slots = n.min(WINDOW);
        if self.prev.len() < slots {
            self.prev.resize(slots, 0);
        }
    }

    fn insert(&mut self, data: &[u8], i: usize) {
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let old = self.head[h];
            if old == 0 {
                self.touched.push(h as u32);
            }
            self.prev[i % WINDOW] = old;
            self.head[h] = i as u32 + 1;
        }
    }

    /// Find the best match for position `i`.
    fn best_match(&self, data: &[u8], i: usize) -> Option<(usize, usize)> {
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = MAX_MATCH.min(data.len() - i);
        let mut best: Option<(usize, usize)> = None;
        let mut cand = self.head[hash3(data, i)];
        let mut depth = 0;
        while cand != 0 && depth < CHAIN_DEPTH {
            let c = cand as usize - 1;
            if i - c > WINDOW {
                break;
            }
            // Fast reject: to beat the current best, the candidate must
            // agree at the byte one past the best length (in-bounds: best
            // < max_len, else we would have broken out below). Skips the
            // O(len) walk for most chain entries.
            let plausible = match best {
                Some((bl, _)) => data[c + bl] == data[i + bl],
                None => true,
            };
            if plausible {
                let len = match_len(data, c, i, max_len);
                if len >= MIN_MATCH && best.is_none_or(|(bl, _)| len > bl) {
                    best = Some((len, i - c));
                    if len == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[c % WINDOW];
            depth += 1;
        }
        best
    }

    /// Greedy parse with the one-step lazy heuristic, handing each token
    /// to `emit` in order.
    fn parse(&mut self, data: &[u8], emit: &mut impl FnMut(Token)) {
        let n = data.len();
        let mut i = 0;
        while i < n {
            let Some((len, dist)) = self.best_match(data, i) else {
                self.insert(data, i);
                emit(Token::Literal(data[i]));
                i += 1;
                continue;
            };
            // Lazy heuristic: if the next position matches strictly
            // longer, emit a literal now and take that match next.
            if i + 1 < n {
                self.insert(data, i);
                if let Some((nlen, _)) = self.best_match(data, i + 1) {
                    if nlen > len + 1 {
                        emit(Token::Literal(data[i]));
                        i += 1;
                        continue;
                    }
                }
                // `i` already inserted; insert the rest of the match.
                for j in i + 1..i + len {
                    self.insert(data, j);
                }
            } else {
                for j in i..i + len {
                    self.insert(data, j);
                }
            }
            emit(Token::Match { len, dist });
            i += len;
        }
    }
}

/// Parse `data` into LZ77 tokens, handing each to `emit` in order. The
/// per-thread chain tables make this allocation-free once warm.
///
/// # Panics
///
/// If `data` is 4 GiB or longer (positions are stored as `u32`).
pub fn tokenize_with(data: &[u8], mut emit: impl FnMut(Token)) {
    assert!(
        data.len() < u32::MAX as usize,
        "lz77 input of {} bytes exceeds the u32 position range",
        data.len()
    );
    CHAINS.with(|chains| {
        let mut chains = chains.borrow_mut();
        chains.prepare(data.len());
        chains.parse(data, &mut emit);
    });
}

/// Parse `data` into LZ77 tokens.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    tokenize_with(data, |t| tokens.push(t));
    tokens
}

/// Reconstruct the original bytes from tokens. Fails on a match whose
/// distance reaches before the start of the output (hostile or corrupt
/// token streams).
pub fn detokenize(tokens: &[Token]) -> Result<Vec<u8>, SimError> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                if dist < 1 || dist > out.len() {
                    return Err(SimError::Inconsistent {
                        what: "lz77 match distance",
                    });
                }
                let start = out.len() - dist;
                // Overlapping copies are the point (run-length encoding).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let tokens = tokenize(data);
        assert_eq!(detokenize(&tokens).as_deref(), Ok(data));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_text_round_trips_and_finds_matches() {
        let data = b"the quick brown fox the quick brown fox the quick brown fox";
        let tokens = tokenize(data);
        assert_eq!(detokenize(&tokens).as_deref(), Ok(&data[..]));
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "no matches found in repetitive input"
        );
        assert!(tokens.len() < data.len() / 2);
    }

    #[test]
    fn overlapping_run_length_copy() {
        // "aaaa..." compresses to one literal + one overlapping match.
        let data = vec![b'a'; 300];
        let tokens = tokenize(&data);
        assert_eq!(detokenize(&tokens).as_deref(), Ok(&data[..]));
        assert!(tokens.len() <= 4, "run should collapse, got {tokens:?}");
    }

    #[test]
    fn incompressible_data_round_trips() {
        // A pseudo-random byte string (xorshift) has few matches.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..2_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn match_lengths_are_bounded() {
        let data = vec![7u8; 10_000];
        for t in tokenize(&data) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
                assert!((1..=WINDOW).contains(&dist));
            }
        }
    }

    #[test]
    fn periodic_binary_data_round_trips() {
        // Mimics the keypoint stream: small periodic deltas.
        let data: Vec<u8> = (0..5_000u32)
            .map(|i| ((i % 74) as u8).wrapping_add((i / 740) as u8))
            .collect();
        round_trip(&data);
        let tokens = tokenize(&data);
        assert!(tokens.len() < data.len() / 4);
    }

    #[test]
    fn a_call_unwound_out_of_emit_leaves_no_stale_chains() {
        let data = b"abcabcabcabcabcabcabcabc".repeat(8);
        let want = tokenize(&data);
        let aborted = std::panic::catch_unwind(|| {
            let mut seen = 0;
            tokenize_with(&data, |_| {
                seen += 1;
                assert!(seen < 3, "abort mid-parse");
            });
        });
        assert!(aborted.is_err());
        // Stale heads would hand the next parse candidates at or past the
        // position being matched.
        assert_eq!(
            detokenize(&tokenize(&data[..40])).as_deref(),
            Ok(&data[..40])
        );
        assert_eq!(tokenize(&data), want);
    }

    #[test]
    fn detokenize_rejects_bad_distance() {
        assert_eq!(
            detokenize(&[Token::Match { len: 3, dist: 5 }]),
            Err(SimError::Inconsistent {
                what: "lz77 match distance"
            })
        );
    }
}
