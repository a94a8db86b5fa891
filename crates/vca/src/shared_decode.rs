//! Decode-once sharing of semantic frames among the receivers of one
//! sender.
//!
//! Sessions run the semantic codec in absolute mode: every frame is
//! self-contained, so decoding is a pure function of the payload bytes.
//! An SFU forwards each frame unchanged to every other participant, and
//! without sharing the n − 1 receivers of a frame would each decode the
//! same bytes again. A [`DecodeWindow`] per sender decodes each frame
//! once:
//!
//! * the first receiver to complete frame `id` decodes its payload and
//!   leaves the payload and the result in the window;
//! * a later receiver of `id` reuses the result only when its reassembled
//!   payload is byte-equal to the cached one, and decodes its own payload
//!   afresh otherwise (the cache entry stays as it was);
//! * an entry leaves the window once every receiver of the sender has
//!   taken it, or once it falls [`FRAME_WINDOW`] frame ids behind the
//!   newest entry (a receiver that lost the frame never takes it).
//!
//! A miss only costs a decode, so the window size trades memory against
//! receivers whose one-way delays differ by more than ~0.35 s.

use std::collections::VecDeque;
use visionsim_semantic::codec::{SemanticCodec, SemanticConfig, SemanticDecodeError};
use visionsim_sensor::keypoints::KeypointFrame;

/// How many frame ids behind the newest entry an entry may stay: 32
/// frames is ~356 ms of the 90 FPS stream.
pub(crate) const FRAME_WINDOW: u64 = 32;

/// A decode result, as every receiver of the frame sees it.
pub(crate) type Decoded = Result<KeypointFrame, SemanticDecodeError>;

struct Entry {
    frame_id: u64,
    payload: Vec<u8>,
    decoded: Decoded,
    /// Receivers that have not taken the entry yet.
    waiting: usize,
}

/// One sender's window of decoded frames, shared by its receivers.
pub(crate) struct DecodeWindow {
    codec: SemanticCodec,
    receivers: usize,
    entries: VecDeque<Entry>,
    newest: u64,
    /// The result of the last decode of a payload that differed from the
    /// cached bytes of its frame id (it does not enter the window).
    afresh: Decoded,
    decodes: u64,
    errors: u64,
    /// Distinct frame ids any receiver completed.
    #[cfg(test)]
    pub(crate) completed: std::collections::BTreeSet<u64>,
}

impl DecodeWindow {
    /// A window for a sender with `receivers` receivers.
    pub(crate) fn new(receivers: usize) -> DecodeWindow {
        DecodeWindow {
            codec: SemanticCodec::new(SemanticConfig::default()),
            receivers,
            entries: VecDeque::new(),
            newest: 0,
            afresh: Err(SemanticDecodeError::Inconsistent),
            decodes: 0,
            errors: 0,
            #[cfg(test)]
            completed: Default::default(),
        }
    }

    /// One receiver completed `frame_id` with `payload`: the decoded
    /// frame, decoded now or shared from an earlier receiver.
    pub(crate) fn take(&mut self, frame_id: u64, payload: Vec<u8>) -> &Decoded {
        #[cfg(test)]
        self.completed.insert(frame_id);
        self.newest = self.newest.max(frame_id);
        let newest = self.newest;
        self.entries
            .retain(|e| e.waiting > 0 && e.frame_id + FRAME_WINDOW > newest);
        let at = match self.entries.iter().position(|e| e.frame_id == frame_id) {
            Some(at) if self.entries[at].payload == payload => at,
            found => {
                let decoded = self.decode(&payload);
                if let Some(at) = found {
                    // Other bytes under a cached id: this receiver is done
                    // with the id, and the entry stays as it was.
                    self.entries[at].waiting -= 1;
                    self.afresh = decoded;
                    return &self.afresh;
                }
                self.entries.push_back(Entry {
                    frame_id,
                    payload,
                    decoded,
                    waiting: self.receivers,
                });
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[at];
        entry.waiting -= 1;
        &entry.decoded
    }

    fn decode(&mut self, payload: &[u8]) -> Decoded {
        let m = crate::session::vca_metrics();
        self.decodes += 1;
        m.semantic_decodes.inc();
        let decoded = self.codec.decode(payload);
        if decoded.is_err() {
            self.errors += 1;
            m.semantic_decode_errors.inc();
        }
        decoded
    }

    /// Payload decodes run so far, and how many of them failed.
    pub(crate) fn tally(&self) -> (u64, u64) {
        (self.decodes, self.errors)
    }

    /// Entries that some receiver has still to take.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.entries.iter().filter(|e| e.waiting > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::rng::SimRng;
    use visionsim_sensor::capture::RgbdCapture;

    fn frames(n: usize) -> Vec<KeypointFrame> {
        let mut cap = RgbdCapture::default_session();
        let mut rng = SimRng::seed_from_u64(11);
        (0..n)
            .map(|_| cap.next_frame(&mut rng).persona_subset())
            .collect()
    }

    fn encode(frame: &KeypointFrame) -> Vec<u8> {
        SemanticCodec::new(SemanticConfig::default()).encode(frame)
    }

    #[test]
    fn every_receiver_shares_one_decode() {
        let fs = frames(3);
        let mut w = DecodeWindow::new(4);
        for (id, f) in fs.iter().enumerate() {
            let payload = encode(f);
            for _ in 0..4 {
                assert_eq!(w.take(id as u64, payload.clone()), &Ok(f.clone()));
            }
        }
        assert_eq!(w.tally(), (3, 0));
        w.take(99, encode(&fs[0]));
        assert_eq!(w.pending(), 1, "fully taken entries left the window");
    }

    #[test]
    fn other_bytes_under_a_cached_id_are_decoded_afresh() {
        let fs = frames(2);
        let (first, other) = (encode(&fs[0]), encode(&fs[1]));
        let mut w = DecodeWindow::new(4);
        assert_eq!(w.take(7, first.clone()), &Ok(fs[0].clone()));
        assert_eq!(w.take(7, other), &Ok(fs[1].clone()));
        assert_eq!(w.tally(), (2, 0));
        // The entry kept the first payload's bytes and result.
        assert_eq!(w.take(7, first.clone()), &Ok(fs[0].clone()));
        assert_eq!(w.tally(), (2, 0));
        let mut corrupt = first;
        corrupt.truncate(corrupt.len() / 2);
        assert!(w.take(7, corrupt).is_err());
        assert_eq!(w.tally(), (3, 1));
    }

    #[test]
    fn a_corrupt_first_payload_does_not_poison_later_receivers() {
        let fs = frames(1);
        let good = encode(&fs[0]);
        let mut w = DecodeWindow::new(3);
        assert!(w.take(0, good[..good.len() / 2].to_vec()).is_err());
        assert_eq!(w.take(0, good.clone()), &Ok(fs[0].clone()));
        assert_eq!(w.take(0, good), &Ok(fs[0].clone()));
        assert_eq!(w.tally(), (3, 1));
    }

    #[test]
    fn frames_no_receiver_takes_again_fall_out_of_the_window() {
        let payload = encode(&frames(1)[0]);
        let mut w = DecodeWindow::new(4);
        for id in 0..200 {
            w.take(id, payload.clone());
            assert!(w.pending() as u64 <= FRAME_WINDOW);
        }
        assert_eq!(w.tally(), (200, 0));
    }
}
