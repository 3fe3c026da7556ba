//! `mavfi-middleware` is a small, deterministic, in-process message bus plus
//! the binary mission-trace format.
//!
//! The [`Bus`] carries typed messages on named *topics* (publish/subscribe,
//! each subscriber with its own bounded queue) and one-to-one typed
//! *services* (request/response).  The campaign server speaks its protocol
//! over it: submit and status services plus a per-job progress topic.  The
//! [`trace`] module is the lossless capture format missions are recorded to
//! and replayed from.
//!
//! # Examples
//!
//! ```
//! use mavfi_middleware::prelude::*;
//!
//! let bus = Bus::new();
//! let publisher = bus.advertise::<f64>("altitude");
//! let subscriber = bus.subscribe::<f64>("altitude");
//!
//! publisher.publish(12.5);
//! assert_eq!(subscriber.try_recv(), Some(12.5));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod message;
pub mod service;
pub mod topic;
pub mod trace;

pub use error::MiddlewareError;
pub use message::Message;
pub use topic::{Bus, Publisher, Subscriber};
pub use trace::{TopicDecl, TraceError, TraceReader, TraceRecordRef, TraceSummary, TraceWriter};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::error::MiddlewareError;
    pub use crate::message::Message;
    pub use crate::topic::{Bus, Publisher, Subscriber};
    pub use crate::trace::{TopicDecl, TraceError, TraceReader, TraceWriter};
}
