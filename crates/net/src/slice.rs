//! Stream slices: what the buffered transports (ring, one-sided) hold per
//! frame until a pass hands it over, and the bytes lent into them.
//!
//! A frame that brings its own payload is held as it came. A frame sent
//! with [`FabricPath::send_lent`](crate::FabricPath::send_lent) has no
//! buffer of its own: its bytes are appended to the buffer's [`Lent`]
//! bytes, under the lock that guards its descriptor, and the pass that
//! hands a run of descriptors over freezes the bytes they lent into one
//! shared buffer, of which each lent frame gets its range
//! ([`Payload::Slice`]) — the slice as one work request (§4).

use crate::fabric::{EndpointId, LiveMessage, Payload, SliceRef};
use std::sync::Arc;

/// A buffered frame: one that brought its own payload, or one whose
/// sender lent its `len` bytes into the buffer's [`Lent`] bytes.
pub(crate) enum Posted {
    Own(LiveMessage),
    Lent { from: EndpointId, len: usize },
}

impl Posted {
    pub(crate) fn from(&self) -> EndpointId {
        match self {
            Posted::Own(msg) => msg.from,
            Posted::Lent { from, .. } => *from,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Posted::Own(msg) => msg.payload.len(),
            Posted::Lent { len, .. } => *len,
        }
    }

    /// Bytes `run`'s descriptors hold in the lent bytes.
    pub(crate) fn lent_in<'a>(run: impl Iterator<Item = &'a Posted>) -> usize {
        run.map(|posted| match posted {
            Posted::Own(_) => 0,
            Posted::Lent { len, .. } => *len,
        })
        .sum()
    }
}

/// The bytes lent by one buffer's descriptors, in buffer order.
#[derive(Default)]
pub(crate) struct Lent(Vec<u8>);

impl Lent {
    /// Append the bytes of a descriptor just buffered (none for a frame
    /// that brought its own payload).
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// `run`, the buffer's oldest descriptors, which lent the first
    /// `lent` bytes ([`Posted::lent_in`]), as frames, oldest first: those
    /// bytes are frozen into one buffer, of which each lent frame gets its
    /// range.
    pub(crate) fn take<'a>(
        &'a mut self,
        lent: usize,
        run: impl Iterator<Item = Posted> + 'a,
    ) -> impl Iterator<Item = LiveMessage> + 'a {
        let slice = (lent > 0).then(|| Arc::new(Arc::from(&self.0[..lent])));
        self.0.drain(..lent);
        let mut at = 0;
        run.map(move |posted| match posted {
            Posted::Own(msg) => msg,
            Posted::Lent { from, len } => {
                let buf: &Arc<Arc<[u8]>> = slice.as_ref().expect("lent bytes were frozen");
                at += len;
                let payload = match SliceRef::new(buf, at - len..at) {
                    Some(slice) => Payload::Slice(slice),
                    // Past what a slice handle addresses: a buffer of
                    // its own.
                    None => Payload::Shared(Arc::from(&buf[at - len..at])),
                };
                LiveMessage { from, payload }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_descriptor_is_no_larger_than_a_frame() {
        assert!(std::mem::size_of::<Posted>() <= std::mem::size_of::<LiveMessage>());
    }

    #[test]
    fn a_partial_take_leaves_the_rest_of_the_lent_bytes_in_order() {
        let mut lent = Lent::default();
        let mut posted = std::collections::VecDeque::new();
        for (from, bytes) in [(1, &b"ab"[..]), (2, b"cde"), (3, b"f")] {
            lent.push(bytes);
            let len = bytes.len();
            posted.push_back(Posted::Lent {
                from: EndpointId(from),
                len,
            });
        }
        let bytes = |frames: Vec<LiveMessage>| -> Vec<Vec<u8>> {
            frames.iter().map(|m| m.payload.bytes().to_vec()).collect()
        };
        let n = Posted::lent_in(posted.iter().take(2));
        let first: Vec<_> = lent.take(n, posted.drain(..2)).collect();
        assert_eq!(bytes(first), [b"ab".to_vec(), b"cde".to_vec()]);
        let n = Posted::lent_in(posted.iter());
        let rest: Vec<_> = lent.take(n, posted.drain(..)).collect();
        assert_eq!(rest[0].from, EndpointId(3));
        assert_eq!(bytes(rest), [b"f".to_vec()]);
    }
}
