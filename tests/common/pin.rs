//! How every golden in the workspace is pinned: the FNV-1a hash and length
//! of a byte string, and a sink that captures an event stream.
//!
//! Test binaries that need nothing else include this file on its own
//! (`#[path = "common/pin.rs"] mod pin;`); each uses only part of it.
#![allow(dead_code)]

use std::cell::RefCell;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// FNV-1a over `bytes`: stable, dependency-free, and sensitive to every
/// byte and position.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a hash and length of a byte string.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub hash: u64,
    pub len: usize,
}

impl Pin {
    pub fn of(bytes: &[u8]) -> Pin {
        Pin {
            hash: fnv1a(bytes),
            len: bytes.len(),
        }
    }
}

/// A pin written as the `(hash, len)` pair the pin tables hold.
impl PartialEq<(u64, usize)> for Pin {
    fn eq(&self, &(hash, len): &(u64, usize)) -> bool {
        *self == Pin { hash, len }
    }
}

/// `(0x<hash>, <len>)`, ready to paste over a `(hash, len)` pin.
impl fmt::Debug for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:#018x}, {})", self.hash, self.len)
    }
}

/// A `Write` sink that survives the engine consuming its observer.
#[derive(Clone, Default)]
pub struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    /// The bytes written so far, leaving the sink empty.
    pub fn take(&self) -> Vec<u8> {
        self.0.take()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
