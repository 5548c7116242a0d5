//! Robustness verifiers for Transformer classifiers.
//!
//! This crate assembles the DeepT verifier of the paper and the baselines it
//! is evaluated against:
//!
//! * [`deept`] — Multi-norm Zonotope propagation (DeepT-Fast, DeepT-Precise
//!   and the Combined variant of Appendix A.6);
//! * [`crown`] — linear-relaxation baselines in the roles of CROWN-Backward
//!   and CROWN-BaF, plus interval propagation;
//! * [`synonym`] — threat model T2 certification and the enumeration
//!   baseline (§6.7);
//! * [`radius`] — binary search for the maximum certified radius;
//! * [`deadline`] — cooperative cancellation budgets threaded through the
//!   radius-search and certification loops;
//! * [`attack`] — randomized falsification, used to sanity-check soundness
//!   and measure tightness;
//! * [`network`] — the verifier-facing network view and input regions.
//!
//! # Example
//!
//! ```
//! use deept_core::PNorm;
//! use deept_nn::transformer::{LayerNormKind, TransformerClassifier, TransformerConfig};
//! use deept_verifier::deept::{certify, DeepTConfig};
//! use deept_verifier::network::{t1_region, VerifiableTransformer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let model = TransformerClassifier::new(
//!     TransformerConfig {
//!         vocab_size: 10, max_len: 4, embed_dim: 8, num_heads: 2,
//!         hidden_dim: 8, num_layers: 1, num_classes: 2,
//!         layer_norm: LayerNormKind::NoStd,
//!     },
//!     &mut rng,
//! );
//! let tokens = [1, 2, 3];
//! let pred = model.predict(&tokens);
//! let region = t1_region(&model.embed(&tokens), 0, 1e-4, PNorm::L2);
//! let result = certify(
//!     &VerifiableTransformer::from(&model),
//!     &region,
//!     pred,
//!     &DeepTConfig::fast(4000),
//! );
//! assert!(result.certified);
//! ```
//!
//! DeepT has one propagation loop, [`deept::propagate_batch`]: a sweep over
//! a slice of [`deept::Member`]s (input, start layer, protected ε prefix,
//! deadline), with a [`deept::ZonotopeObserver`] seeing each member's
//! abstract states. [`deept::certify_batch`] adds the margins; `propagate`,
//! `certify` and `certify_probed` are one-member sweeps. The loops that
//! take a [`deept_telemetry::Probe`] report per-layer spans, precision
//! metrics and radius-search steps without perturbing the computation.

#![deny(clippy::print_stdout)]

pub mod attack;
pub mod crown;
pub mod deadline;
pub mod deept;
pub mod network;
pub mod radius;
pub mod statehash;
pub mod synonym;

pub use deadline::{Deadline, DeadlineExceeded};
pub use deept::{DeepTConfig, Member, ZonotopeObserver};
pub use network::{CertResult, VerifiableTransformer};
pub use radius::{
    max_certified_radius, max_certified_radius_deadline, max_certified_radius_probed, RadiusOutcome,
};
