//! # nxd-passive-dns
//!
//! The passive-DNS substrate standing in for the Farsight database the paper
//! analyzes (§3.1–§3.2): interned columnar storage of pre-aggregated
//! `(name, day, sensor, rcode, count)` observations, an SIE-style parallel
//! ingest channel, and a query engine implementing every analysis the paper
//! runs against its BigQuery mirror.
//!
//! ```
//! use nxd_passive_dns::{PassiveDb, query};
//! use nxd_dns_wire::RCode;
//!
//! let mut db = PassiveDb::new();
//! db.record_str("expired-shop.com", 16_071, 0, RCode::NxDomain, 12);
//! db.record_str("expired-shop.com", 16_072, 1, RCode::NxDomain, 3);
//! assert_eq!(query::total_nx_responses(&db), 15);
//! assert_eq!(query::distinct_nx_names(&db), 1);
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub(crate) mod block;
pub mod federation;
pub mod hash;
pub mod intern;
pub mod query;
pub mod scan;
pub mod sensor;
pub mod shard;
pub mod sie;
pub mod store;
pub mod stream;

pub use federation::{Coverage, Federation};
pub use hash::shard_of;
pub use intern::{Interner, NameId};
pub use sensor::{Sensor, VantagePoint};
pub use shard::{auto_shard_count, auto_shard_count_here, ShardedStore};
pub use sie::{collect_parallel, collect_sharded, collect_stream, SieError, SieProducer};
pub use store::{NameAggregate, Observation, PassiveDb};
pub use stream::{Admission, StreamConfig, StreamEngine, StreamSnapshot};
