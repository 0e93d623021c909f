//! # ablock-solver — finite-volume kernels on adaptive blocks
//!
//! The numerical workload of the SC'97 *Adaptive Blocks* paper: ideal MHD
//! (and Euler gas dynamics) solved with a Godunov-type finite-volume
//! scheme on the block grids of `ablock-core`.
//!
//! * [`physics`] — the system interface; [`euler`] and [`mhd`] implement it
//!   (MHD includes the Powell 8-wave `∇·B` source the paper's group used).
//! * [`recon`] — first-order and MUSCL (van Leer, paper ref. \[6\])
//!   reconstruction with minmod / MC / van Leer limiters.
//! * [`flux`] — Rusanov and HLL approximate Riemann solvers.
//! * [`kernel`] — the dense per-block update loops Fig. 5 measures.
//! * [`config`] — [`SolverConfig`], the one construction surface every
//!   executor consumes (physics, scheme, CFL, ghost config, metrics sink).
//! * [`engine`] — the shared sweep engine: epoch-keyed ghost-plan cache and
//!   reusable scratch consumed by every executor (serial, pool, distributed).
//! * [`driver`] — the one time-stepping driver: forward-Euler and
//!   SSP-RK2 stages, refluxing, subcycling and the CFL reduction, generic
//!   over an executor [`Backend`] (serial, pool, distributed).
//! * [`stepper`] — the serial backend, [`Stepper`].
//! * [`subcycle`] — Berger–Oliger local time stepping scratch: per-level
//!   plans, time-interpolated ghost fills, and flux accumulators.
//! * [`problems`] — Sod, Brio–Wu, Orszag–Tang, Sedov, MHD blast, and the
//!   Parker-like solar-wind source used by the CME example.
//! * [`poisson`] — geometric multigrid for `∇²u = f` on block hierarchies
//!   (the "other problems involving spatial decomposition" claim).

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod engine;
pub mod euler;
pub mod flux;
pub mod kernel;
pub mod mhd;
pub mod physics;
pub mod poisson;
pub mod problems;
pub mod recon;
pub mod reflux;
pub mod stepper;
pub mod subcycle;

pub use ablock_core::geom::Geometry;
pub use ablock_core::partition::Partitioner;
pub use config::{SolverConfig, TimeStepMode};
pub use engine::{ghost_config_for, EngineStats, SweepEngine, SweepSplit};
pub use euler::Euler;
pub use flux::Riemann;
pub use kernel::{compute_rhs_block, compute_rhs_block_fluxes, max_rate_block, FaceFluxStore, Scheme};
pub use reflux::{coarse_fine_fetch_list, reflux_rhs, reflux_state};
pub use mhd::IdealMhd;
pub use physics::Physics;
pub use poisson::{MultigridPoisson, PoissonBc};
pub use recon::{Limiter, Recon};
pub use stepper::{total_conserved, total_conserved_fluid, Stepper, TimeScheme};
pub use driver::Backend;
pub use subcycle::SubcycleState;
