//! Hardware component models (Figs. 3-4 … 3-8).
//!
//! Each model couples a serde-friendly *specification* (the numbers a data
//! center operator can read off a datasheet: sockets, cores, GHz, Mbps,
//! rpm, cache hit rates) with a runtime *model* built from the fluid queue
//! disciplines. Demands are always expressed in the `R` vector's units:
//! cycles for CPUs, bytes for NICs, switches, links, RAIDs and SANs.

mod cpu;
mod disk_array;
mod link;
mod memory;
mod nic;
mod raid;
mod san;
mod switch;

pub use cpu::{CpuModel, CpuSpec};
pub use link::{LinkModel, LinkSpec};
pub use memory::{MemoryModel, MemorySpec};
pub use nic::{NicModel, NicSpec};
pub use raid::{RaidModel, RaidSpec};
pub use san::{SanModel, SanSpec};
pub use switch::{SwitchModel, SwitchSpec};
