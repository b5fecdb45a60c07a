//! Truth tables and cube utilities for small Boolean functions.
//!
//! This crate provides [`TruthTable`], a dense truth-table representation for
//! single-output Boolean functions of up to [`MAX_INPUTS`] (= 7) inputs,
//! packed into a `u128`. Seven inputs is exactly the range the resynthesis
//! procedures of Pomeranz & Reddy (DAC 1995) explore (the paper uses cone
//! input limits `K = 5..7`), so a fixed-width representation keeps every
//! operation branch-free and allocation-free.
//!
//! Bit `m` of the table is the value of the function on the input minterm
//! with decimal value `m`, where **input 0 is the most significant bit** of
//! the minterm — the same convention the paper uses (`x_1` is the MSB).
//!
//! # Examples
//!
//! ```
//! use sft_truth::TruthTable;
//!
//! // f(x1, x2) = x1 AND x2 — true only on minterm 3 (binary 11).
//! let and2 = TruthTable::from_minterms(2, &[3])?;
//! assert!(and2.eval(&[true, true]));
//! assert!(!and2.eval(&[true, false]));
//! assert_eq!(and2.on_set().collect::<Vec<_>>(), vec![3]);
//! # Ok::<(), sft_truth::TruthError>(())
//! ```

#![warn(missing_docs)]

mod cube;
mod table;

pub use cube::{Cube, CubeList, Literal};
pub use table::{TruthError, TruthTable, LOW_HALVES, MAX_INPUTS};
