//! Post-L1 write buffer.
//!
//! With a write-through L1 every store produces a downstream write. The
//! baseline core drains them through this non-coalescing FIFO write
//! buffer; UnSync replaces it with the Communication Buffer
//! (`unsync_core::cb`), which has the same occupancy/stall behaviour plus
//! the cross-core agreement rule. Keeping the baseline buffer here lets
//! Fig. 6 compare like against like.

use std::collections::VecDeque;

/// One buffered write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedWrite {
    /// Line address being written.
    pub line_addr: u64,
    /// Dynamic sequence number of the producing store.
    pub seq: u64,
    /// Cycle the write entered the buffer.
    pub enqueued_at: u64,
}

/// A non-coalescing FIFO write buffer of fixed capacity.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    entries: VecDeque<BufferedWrite>,
    /// Stores that found the buffer full (each forces a core stall).
    pub full_events: u64,
}

impl WriteBuffer {
    /// A buffer holding up to `capacity` writes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer capacity must be positive");
        WriteBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            full_events: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if full (the producing core must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Enqueues a write. Returns `Err` (and counts a full event) if the
    /// buffer has no room; the caller must drain and retry.
    pub fn push(&mut self, write: BufferedWrite) -> Result<(), BufferedWrite> {
        if self.is_full() {
            self.full_events += 1;
            return Err(write);
        }
        self.entries.push_back(write);
        Ok(())
    }

    /// The oldest write, if any (drain candidate).
    pub fn head(&self) -> Option<&BufferedWrite> {
        self.entries.front()
    }

    /// Removes and returns the oldest write.
    pub fn pop(&mut self) -> Option<BufferedWrite> {
        self.entries.pop_front()
    }

    /// Iterates over buffered writes, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &BufferedWrite> {
        self.entries.iter()
    }

    /// Discards all contents (recovery overwrites the erroneous core's
    /// buffer, §III-A step 5).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(seq: u64) -> BufferedWrite {
        BufferedWrite {
            line_addr: seq * 64,
            seq,
            enqueued_at: seq,
        }
    }

    #[test]
    fn fifo_order() {
        let mut b = WriteBuffer::new(4);
        for i in 0..3 {
            b.push(w(i)).unwrap();
        }
        assert_eq!(b.pop().unwrap().seq, 0);
        assert_eq!(b.pop().unwrap().seq, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn full_buffer_rejects_and_counts() {
        let mut b = WriteBuffer::new(2);
        b.push(w(0)).unwrap();
        b.push(w(1)).unwrap();
        assert!(b.is_full());
        assert!(b.push(w(2)).is_err());
        assert_eq!(b.full_events, 1);
        b.pop();
        assert!(b.push(w(2)).is_ok());
    }

    #[test]
    fn clear_empties() {
        let mut b = WriteBuffer::new(4);
        b.push(w(0)).unwrap();
        b.clear();
        assert!(b.is_empty());
        assert!(b.head().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0);
    }
}
