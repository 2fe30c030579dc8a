//! The holonic infrastructure model (§3.3.2, Fig. 3-2 and 3-9).
//!
//! A global data infrastructure is a holarchy: hardware component *agents*
//! (CPU, memory, NIC, RAID, SAN, switch, link) are encapsulated into
//! *server* holons, servers into *tier* holons, tiers into *data center*
//! holons, and data centers are interconnected by WAN links — possibly
//! through relay hub sites (the paper's AS1/AS2 switches) — to form the
//! global topology.
//!
//! This crate provides:
//!
//! * serde-friendly **specifications** ([`spec`]) describing an
//!   infrastructure the way an operator would: tiers × servers × hardware
//!   datasheets plus the WAN graph;
//! * the **component registry** ([`component`]) — a flat, densely indexed
//!   pool of runtime queue models the engine ticks;
//! * the **builder** ([`build`]) that turns a [`spec::TopologySpec`] into a
//!   runtime [`Infrastructure`], including shortest-path WAN route
//!   precomputation ([`routing`]).

#![warn(missing_docs)]

pub mod active;
pub mod build;
pub mod component;
pub mod routing;
pub mod spec;

pub use active::ActiveSet;
pub use build::{DataCenter, Infrastructure, LoadBalancing, Server, ServerRef, SleepBreach, Tier};
pub use component::{AgentSlot, Component, ComponentKind, ComponentMeta};
pub use spec::{
    ClientAccessSpec, DataCenterSpec, TierSpec, TierStorageSpec, TopologySpec, WanLinkSpec,
};
