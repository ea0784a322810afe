//! Offline stand-in for `bytes`: the subset `netproxy::wire::encode` uses,
//! over `Vec<u8>` (big-endian `put_*`, like the real crate).

use std::ops::Deref;

#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Vec<u8>);

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}
