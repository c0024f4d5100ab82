//! A typed mailbox for asynchronous control-plane messages (heartbeats,
//! failure notifications). Data-plane traffic goes through [`crate::rpc`];
//! mailboxes exist for components that poll, like the PS master's health
//! checker.

use psgraph_sim::sync::Mutex;
use psgraph_sim::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::rpc::NodeId;

/// Snapshot of one mailbox's admission history. Backpressure loss used to
/// be invisible (`try_post` returning `false` was the only trace); these
/// counters make it observable in load reports and the benchmark's rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxCounters {
    /// Messages admitted into the queue.
    pub accepted: u64,
    /// Posts refused because the mailbox was full (or chaos-dropped).
    pub dropped: u64,
    /// Sender-side retries after a refused post (reported via
    /// [`Mailbox::note_retry`]).
    pub retried: u64,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    dropped: AtomicU64,
    retried: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> MailboxCounters {
        MailboxCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
        }
    }
}

/// A control-plane message with simulated send time.
#[derive(Debug, Clone, PartialEq)]
pub struct Message<T> {
    pub from: NodeId,
    pub sent_at: SimTime,
    pub payload: T,
}

/// MPSC mailbox — unbounded by default ([`Mailbox::new`]), or with a hard
/// capacity ([`Mailbox::bounded`]) whose producers see backpressure.
#[derive(Debug)]
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<Message<T>>>,
    /// `usize::MAX` when unbounded.
    capacity: usize,
    counters: Counters,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    pub fn new() -> Self {
        Mailbox { queue: Mutex::default(), capacity: usize::MAX, counters: Counters::default() }
    }

    /// A mailbox holding at most `capacity` pending messages. Posting to
    /// a full one fails ([`Mailbox::try_post`]) — the admission-control
    /// building block for bounded request queues.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity mailbox would reject everything");
        Mailbox { queue: Mutex::default(), capacity, counters: Counters::default() }
    }

    /// The capacity (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Post a message. Panics if the mailbox is bounded and full — callers
    /// of bounded mailboxes must use [`Mailbox::try_post`] and handle the
    /// backpressure.
    pub fn post(&self, from: NodeId, sent_at: SimTime, payload: T) {
        assert!(
            self.try_post(from, sent_at, payload),
            "post to a full bounded mailbox (capacity {}); use try_post",
            self.capacity
        );
    }

    /// Post a message unless the mailbox is full; reports whether it was
    /// accepted.
    #[must_use]
    pub fn try_post(&self, from: NodeId, sent_at: SimTime, payload: T) -> bool {
        let mut queue = self.queue.lock();
        if queue.len() >= self.capacity {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        queue.push_back(Message { from, sent_at, payload });
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Record that a producer retried after a refused post — keeps
    /// at-least-once senders' extra work visible next to the drops that
    /// caused it.
    pub fn note_retry(&self) {
        self.counters.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission counters: accepted/dropped/retried since creation.
    pub fn counters(&self) -> MailboxCounters {
        self.counters.snapshot()
    }

    /// Drain every pending message.
    pub fn drain(&self) -> Vec<Message<T>> {
        self.queue.lock().drain(..).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_drain_in_order() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert_eq!(mb.capacity(), usize::MAX);
        mb.post(NodeId::Executor(0), SimTime::from_secs(1), 10);
        mb.post(NodeId::Executor(1), SimTime::from_secs(2), 20);
        let msgs = mb.drain();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, 10);
        assert_eq!(msgs[0].from, NodeId::Executor(0));
        assert_eq!(msgs[1].payload, 20);
        assert!(mb.is_empty());
    }

    #[test]
    fn bounded_mailbox_reports_backpressure() {
        let mb: Mailbox<u32> = Mailbox::bounded(2);
        assert_eq!(mb.capacity(), 2);
        assert!(mb.try_post(NodeId::Driver, SimTime::ZERO, 1));
        assert!(mb.try_post(NodeId::Driver, SimTime::ZERO, 2));
        // Full: try_post refuses.
        assert!(!mb.try_post(NodeId::Driver, SimTime::ZERO, 3));
        // Draining frees capacity again.
        let got: Vec<u32> = mb.drain().into_iter().map(|m| m.payload).collect();
        assert_eq!(got, vec![1, 2]);
        assert!(mb.try_post(NodeId::Driver, SimTime::ZERO, 5));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn counters_track_accepts_drops_and_retries() {
        let mb: Mailbox<u32> = Mailbox::bounded(2);
        assert!(mb.try_post(NodeId::Driver, SimTime::ZERO, 1));
        assert!(mb.try_post(NodeId::Driver, SimTime::ZERO, 2));
        assert!(!mb.try_post(NodeId::Driver, SimTime::ZERO, 3));
        mb.note_retry();
        assert!(!mb.try_post(NodeId::Driver, SimTime::ZERO, 4));
        mb.note_retry();
        assert_eq!(mb.counters(), MailboxCounters { accepted: 2, dropped: 2, retried: 2 });
        // Draining frees space; the next accept is counted too.
        mb.drain();
        assert!(mb.try_post(NodeId::Driver, SimTime::ZERO, 5));
        assert_eq!(mb.counters().accepted, 3);
    }

    #[test]
    #[should_panic(expected = "full bounded mailbox")]
    fn post_to_full_bounded_mailbox_panics() {
        let mb: Mailbox<()> = Mailbox::bounded(1);
        mb.post(NodeId::Driver, SimTime::ZERO, ());
        mb.post(NodeId::Driver, SimTime::ZERO, ());
    }
}
