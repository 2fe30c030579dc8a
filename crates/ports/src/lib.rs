//! Parallel phase execution for the simulation engine (Ch. 4 of the
//! paper).
//!
//! The original GDISim is built on Microsoft's Concurrency & Coordination
//! Runtime (ports, arbiters, a dispatcher thread pool and coordination
//! primitives), on which it assembles two ways of spreading per-agent
//! work over cores: classic Scatter-Gather (Table 4.1) and H-Dispatch
//! (Table 4.2). Both come down to the same loop — persistent workers
//! pulling work items from a shared cursor until a phase is done — and
//! differ only in how many agents one work item carries.
//!
//! This crate keeps just that loop:
//!
//! * [`PhasePool`] — parked workers running one phase at a time, with
//!   [`PhasePool::run_chunks`] cutting a slice (or an index list into
//!   it) into chunks of a given length;
//! * [`Executor`] — the engine-facing strategy: serial, Scatter-Gather
//!   (chunk 1) or H-Dispatch (chunk `agent_set`).

#![warn(missing_docs)]

pub mod executor;
pub mod pool;

pub use executor::{Executor, ExecutorStats};
pub use pool::{panic_message, PhasePool, UnitPanic};
