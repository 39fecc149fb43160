#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic_in_result_fn
)]
#![forbid(unsafe_code)]
//! Parser and writer for the VNN-LIB property subset used by
//! local-robustness benchmarks.
//!
//! The paper draws its 552 problems from the VNN-COMP-style local
//! robustness setting, whose interchange format is VNN-LIB: an SMT-LIB
//! flavoured s-expression file declaring input variables `X_i`, output
//! variables `Y_j`, box constraints on the inputs, and a (possibly
//! disjunctive) description of the *violation* region over the outputs.
//! This crate implements the practically-used subset:
//!
//! * `(declare-const X_i Real)` / `(declare-const Y_j Real)`;
//! * `(assert (<= X_i c))`, `(assert (>= X_i c))` — the input box;
//! * `(assert (<= Y_a Y_b))`, `(assert (>= Y_a Y_b))`, constants on
//!   either side, and `(or …)` / `(and …)` combinations over the outputs.
//!
//! The parsed [`Property`] separates the input box from the disjunction
//! of output constraint conjunctions. For classification robustness (the
//! paper's setting) [`Property::as_robustness`] recovers the target label
//! and adversarial classes directly.
//!
//! # Examples
//!
//! ```
//! use abonn_vnnlib::{parse, write_robustness};
//!
//! let text = write_robustness(&[0.4, 0.1], 0.05, 0, 3);
//! let prop = parse(&text)?;
//! assert_eq!(prop.num_inputs(), 2);
//! let (label, adversarial) = prop.as_robustness().expect("robustness-shaped");
//! assert_eq!(label, 0);
//! assert_eq!(adversarial, vec![1, 2]);
//! # Ok::<(), abonn_vnnlib::ParseError>(())
//! ```

mod parser;
mod property;
mod sexpr;
mod writer;

pub use parser::{parse, parse_bytes, ParseError};
pub use property::{LinearTerm, OutputAtom, Property, Relation};
pub use sexpr::MAX_DEPTH;
pub use writer::{write_property, write_robustness};
