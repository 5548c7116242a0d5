//! Differential soundness fuzzing for the DeepT verifier.
//!
//! Everything in this repository rests on one invariant: **the abstract
//! output of every transformer contains every concrete output**. This crate
//! attacks that invariant from three directions and turns every surviving
//! counterexample into a named bug:
//!
//! * [`containment`] — the differential containment harness. It propagates
//!   an input region abstractly, capturing the per-stage zonotopes through
//!   [`deept_verifier::deept::ZonotopeObserver`], then drives concrete
//!   perturbed embeddings (sampled inside the certified ℓp ball) through the
//!   concrete encoder layer by layer and asserts each intermediate
//!   activation lies within the matching zonotope's interval bounds.
//! * [`attack_check`] — attack/certificate consistency. For every certified
//!   instance it runs the randomized attack strictly *below* the certified
//!   radius; a successful attack there is a hard soundness failure.
//! * [`microcheck`] — relaxation micro-checker. Dense grids over randomized
//!   `[l, u]` intervals for each elementwise relaxation (relu / tanh / exp /
//!   reciprocal / √) and sampled noise points for the dot-product and
//!   softmax transformers, including the adversarial regimes that broke
//!   early versions: `l == u`, `u − l < 1e-12`, endpoints at or near `0`
//!   for reciprocal/√, and ±1-ulp endpoint nudges.
//! * [`refine_check`] — refined-certificate gate. Every `Certified` verdict
//!   of the branch-and-bound refinement ladder gets concrete-point
//!   containment probes and randomized attacks at and below the certified
//!   radius (an attack success there is a hard failure); `Falsified`
//!   verdicts must carry counterexamples the concrete model actually
//!   misclassifies.
//! * [`resume_check`] — resume-identity gate. A cold propagation captures
//!   every layer-boundary snapshot; warm runs resumed from each snapshot
//!   (the serving layer's cross-request state cache in action) must
//!   reproduce the remaining snapshots and the final logits bitwise —
//!   `f64::to_bits` equality, the exact guarantee `crates/serve` promises
//!   for warm requests.
//! * [`precision`] — `f32` storage nesting. Each instance is propagated
//!   with `f64` and with `f32` generator storage (`DEEPT_PREC=f32`); the
//!   `f32` logits interval must contain the `f64` reference interval,
//!   pinning the outward-rounding compression design.
//!
//! [`fuzz`] orchestrates all three under one seed; the CLI exposes it as
//! `deept fuzz-soundness --seed N --cases M`, and CI runs fixed seeds on
//! every change.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]

pub mod attack_check;
pub mod containment;
pub mod fuzz;
pub mod microcheck;
pub mod precision;
pub mod refine_check;
pub mod resume_check;

pub use attack_check::{check_attack_consistency, AttackViolation};
pub use containment::{check_containment, ContainmentViolation, SnapshotCollector};
pub use fuzz::{run, FuzzConfig, FuzzReport};
pub use microcheck::{
    check_relaxations, check_transformers, RelaxationViolation, TransformerViolation,
};
pub use precision::{check_f32_nesting, PrecisionViolation};
pub use refine_check::{check_refined_certificates, RefineViolation, RefineViolationKind};
pub use resume_check::{check_resume_identity, ResumeViolation, ResumeViolationKind};
