//! Transport protocol endpoints: the one sender shell with its two
//! congestion policies (the DCTCP-like window of §4.1 and a rate-based
//! one), the per-packet-ACK receiver, RTT/RTO estimation, and sequence
//! tracking.

pub mod dctcp;
pub mod rate;
pub mod receiver;
pub mod rto;
pub mod sender;
pub mod seqtrack;

pub use dctcp::{CcConfig, Dctcp, EcnResponse};
pub use rate::{Rate, RateCcConfig};
pub use receiver::Receiver;
pub use rto::{RtoConfig, RttEstimator};
pub use sender::{packets_for_bytes, CongestionControl, Sender};
pub use seqtrack::SeqSet;
