#![forbid(unsafe_code)]
//! Approximated verifiers (`AppVer` in the paper) for ReLU networks.
//!
//! Branch and Bound delegates each (sub-)problem to an *approximated
//! verifier* that over-approximates the network output and returns a value
//! `p̂`: positive means the sub-problem is verified, negative comes with a
//! candidate counterexample that must be validated concretely. This crate
//! provides the full substrate:
//!
//! * [`Ibp`] — interval bound propagation, the cheapest sound verifier;
//! * [`DeepPoly`] — linear-relaxation backward substitution in the style of
//!   DeepPoly/CROWN, with per-neuron split constraints (the `r⁺ᵢ` / `r⁻ᵢ`
//!   of the paper's BaB tree) tightening the propagated bounds;
//! * [`AlphaCrown`] — DeepPoly with optimised lower-relaxation slopes
//!   (a simplified α-CROWN; see `DESIGN.md` §2);
//! * [`BetaCrown`] — DeepPoly plus Lagrangian multipliers on the BaB
//!   split constraints (a simplified β-CROWN);
//! * [`Cascade`] — cheap-first escalation across the tiers above;
//! * [`LpVerifier`] — the Planet-style triangle LP relaxation solved with
//!   `abonn-lp`, the tightest (and most expensive) verifier.
//!
//! All verifiers consume a [`CanonicalNetwork`] in *margin form*: the
//! specification holds on a region iff every output coordinate is
//! positive, so `p̂` is the minimum over output coordinates of the proved
//! lower bound.
//!
//! [`CanonicalNetwork`]: abonn_nn::CanonicalNetwork
//!
//! # Examples
//!
//! ```
//! use abonn_bound::{AppVer, DeepPoly, InputBox, SplitSet};
//! use abonn_nn::{CanonicalNetwork, AffinePair};
//! use abonn_tensor::Matrix;
//!
//! // y = relu(x) + 1 on x in [-1, 1]: output is always >= 1 > 0.
//! let net = CanonicalNetwork::from_affine_pairs(1, vec![
//!     AffinePair::new(Matrix::identity(1), vec![0.0]),
//!     AffinePair::new(Matrix::identity(1), vec![1.0]),
//! ]);
//! let analysis = DeepPoly::new().analyze(&net, &InputBox::new(vec![-1.0], vec![1.0]), &SplitSet::new());
//! assert!(analysis.p_hat > 0.0);
//! ```

mod alpha;
mod arena;
mod beta;
mod cache;
mod cascade;
mod deeppoly;
mod ibp;
mod lp;
mod relax;
mod types;

pub use alpha::AlphaCrown;
pub use beta::BetaCrown;
pub use cache::{BoundComputeStats, BoundPrefix, CachedAnalysis};
pub use cascade::Cascade;
pub use deeppoly::DeepPoly;
pub use ibp::Ibp;
pub use lp::LpVerifier;
pub use relax::ReluRelaxation;
pub use types::{
    Analysis, AppVer, FromScratch, InputBox, LayerBounds, NeuronId, SplitSet, SplitSign,
};
