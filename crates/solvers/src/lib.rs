//! # hpf-solvers — the CG solver family
//!
//! Serial and distributed implementations of every algorithm the paper's
//! Section 2 surveys, with the per-iteration operation structure it
//! tabulates:
//!
//! | method | matvecs | Aᵀ matvecs | dots | extra vectors | non-symmetric |
//! |---|---|---|---|---|---|
//! | [`cg`](fn@cg) | 1 | 0 | 2 | 4 | no |
//! | [`bicg`](fn@bicg) | 1 | 1 | 2 | +3 over CG | yes |
//! | [`cgs`](fn@cgs) | 2 | 0 | 2 | +4 over CG | yes (may diverge) |
//! | [`bicgstab`](fn@bicgstab) | 2 | 0 | 4 | +4 over CG | yes |
//! | [`gmres`](fn@gmres)`(m)` | 1 | 0 | j+1 at step j | m+4 | yes |
//!
//! plus Jacobi/SSOR [`pcg`](fn@pcg) preconditioning and the dense
//! [`direct`] baselines (LU, Cholesky) CG is compared against.
//!
//! The distributed solvers run over `hpf-core`'s distributed vectors and
//! matvec scenarios, charging every induced communication to the
//! simulated machine. Each takes an [`IterObserver`] (pass
//! [`NullObserver`] when nobody watches):
//!
//! * [`pcg_distributed`] — CG and PCG, the one entry point of the
//!   family. [`SolveOptions`] holds the stop test, the iteration budget,
//!   an optional [`DistPreconditioner`] (Jacobi, or `hpf-mg`'s V-cycle)
//!   and an optional [`RecoveryConfig`] that turns on the
//!   checkpoint/rollback driver of [`recovery`].
//! * [`bicg_distributed`], [`bicgstab_distributed`] and
//!   [`gmres_distributed`] for non-symmetric systems.
//!
//! [`cg_distributed`], [`pcg_preconditioned_distributed`],
//! [`cg_distributed_protected`] and [`pcg_jacobi_distributed_protected`]
//! are observer-free forwards to [`pcg_distributed`], kept with their
//! signatures because the benchmark harness calls them.

pub mod bicg;
pub mod bicgstab;
pub mod cg;
pub mod cgs;
pub mod direct;
pub mod dist_solvers;
pub mod error;
pub mod gmres;
pub mod history;
pub mod observer;
pub mod operator;
pub mod pcg;
pub mod precond;
pub mod recovery;
pub mod spectral;
pub mod stopping;

pub use bicg::bicg;
pub use bicgstab::bicgstab;
pub use cg::{
    cg, cg_distributed, cg_with_observer, pcg_distributed, pcg_preconditioned_distributed,
    SolveOptions,
};
pub use cgs::cgs;
pub use dist_solvers::{bicg_distributed, bicgstab_distributed, gmres_distributed};
pub use error::SolverError;
pub use gmres::{gmres, gmres_storage_vectors};
pub use history::{nonmonotonicity, residual_history, Method};
pub use observer::{IterObserver, IterSample, NullObserver, RecordingObserver, TailObserver};
pub use operator::{ColwiseOperator, CscVariant, DistOperator, SerialOperator};
pub use pcg::{pcg, pcg_with_observer, IdentityPrec, JacobiPrec, Preconditioner, SsorPrec};
pub use precond::{DistPreconditioner, JacobiPreconditioner};
pub use recovery::{
    cg_distributed_protected, pcg_jacobi_distributed_protected, RecoveryConfig, RecoveryStats,
};
pub use spectral::{
    cg_error_bound, cg_iterations_for, estimate_spd_spectrum, power_method, SpdSpectrum,
};
pub use stopping::{
    AlgorithmProfile, ResidualMonitor, SolveStats, StopCriterion, BICGSTAB_PROFILE, BICG_PROFILE,
    CGS_PROFILE, CG_PROFILE,
};
