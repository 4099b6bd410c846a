//! Offline stand-in for `crossbeam`: only `crossbeam::channel`, and of
//! that only the unbounded MPSC subset the scec crates use.
//!
//! `std::sync::mpsc` has been a port of crossbeam-channel since Rust
//! 1.67, so the queue algorithm on the measured path is the same list
//! flavour; what differs is that a std `Receiver` is single-consumer
//! (`!Sync`, not `Clone`). The scec crates never share a receiver.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Sends a message; fails only when the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        /// Returns a message if one is ready.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Blocking iterator that ends when every sender is gone.
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }

        /// Non-blocking iterator over the messages already queued.
        pub fn try_iter(&self) -> mpsc::TryIter<'_, T> {
            self.0.try_iter()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::IntoIter<T>;
        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }
}
