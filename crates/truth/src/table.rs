use std::fmt;

/// Maximum number of inputs a [`TruthTable`] supports.
///
/// `2^7 = 128` minterms fit exactly in a `u128`.
pub const MAX_INPUTS: usize = 7;

/// For each minterm bit `b`, the minterms whose bit `b` is 0: alternating
/// blocks of `2^b` ones and `2^b` zeros, ones at bit 0. Bit `b` is the
/// value of input `inputs - 1 - b`.
pub const LOW_HALVES: [u128; MAX_INPUTS] = [
    0x5555_5555_5555_5555_5555_5555_5555_5555,
    0x3333_3333_3333_3333_3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF_00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF_0000_0000_FFFF_FFFF,
    0x0000_0000_0000_0000_FFFF_FFFF_FFFF_FFFF,
];

/// Error type for truth-table construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruthError {
    /// The requested number of inputs exceeds [`MAX_INPUTS`].
    TooManyInputs(usize),
    /// A minterm index was out of range for the number of inputs.
    MintermOutOfRange {
        /// The offending minterm index.
        minterm: u64,
        /// The number of inputs of the table (minterms range over `2^inputs`).
        inputs: usize,
    },
    /// A permutation had the wrong length or was not a bijection.
    BadPermutation,
    /// An input index was out of range.
    InputOutOfRange {
        /// The offending input index.
        input: usize,
        /// The number of inputs of the table.
        inputs: usize,
    },
}

impl fmt::Display for TruthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruthError::TooManyInputs(n) => {
                write!(f, "function has {n} inputs, more than the supported {MAX_INPUTS}")
            }
            TruthError::MintermOutOfRange { minterm, inputs } => {
                write!(f, "minterm {minterm} out of range for a {inputs}-input function")
            }
            TruthError::BadPermutation => write!(f, "permutation is not a bijection on the inputs"),
            TruthError::InputOutOfRange { input, inputs } => {
                write!(f, "input index {input} out of range for a {inputs}-input function")
            }
        }
    }
}

impl std::error::Error for TruthError {}

/// A dense truth table for a Boolean function of up to [`MAX_INPUTS`] inputs.
///
/// Bit `m` of [`bits`](Self::bits) holds the function value on minterm `m`.
/// Input 0 is the **most significant** bit of a minterm, matching the paper's
/// convention that `x_1` is the MSB of the decimal value of a minterm.
///
/// # Examples
///
/// ```
/// use sft_truth::TruthTable;
///
/// let xor2 = TruthTable::from_fn(2, |m| m.count_ones() % 2 == 1);
/// assert_eq!(xor2.on_set().collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    inputs: u8,
    bits: u128,
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} inputs, on-set {{", self.inputs)?;
        let mut first = true;
        for m in self.on_set() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
            first = false;
        }
        write!(f, "}})")
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in (0..self.size()).rev() {
            write!(f, "{}", u8::from(self.value(m)))?;
        }
        Ok(())
    }
}

impl TruthTable {
    /// The constant-0 function of `inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_INPUTS`.
    pub fn zero(inputs: usize) -> Self {
        assert!(inputs <= MAX_INPUTS, "at most {MAX_INPUTS} inputs supported");
        TruthTable { inputs: inputs as u8, bits: 0 }
    }

    /// The constant-1 function of `inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_INPUTS`.
    pub fn one(inputs: usize) -> Self {
        Self::zero(inputs).complement()
    }

    /// The projection function returning input `input` directly.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_INPUTS` or `input >= inputs`.
    pub fn variable(inputs: usize, input: usize) -> Self {
        assert!(input < inputs, "input index out of range");
        Self::from_fn(inputs, |m| m >> (inputs - 1 - input) & 1 == 1)
    }

    /// Builds a table by evaluating `f` on every minterm `0..2^inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_INPUTS`.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut t = Self::zero(inputs);
        for m in 0..t.size() {
            if f(m) {
                t.bits |= 1u128 << m;
            }
        }
        t
    }

    /// Builds a table from an explicit on-set of decimal minterms.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::TooManyInputs`] if `inputs > MAX_INPUTS` and
    /// [`TruthError::MintermOutOfRange`] if any minterm is `>= 2^inputs`.
    pub fn from_minterms(inputs: usize, minterms: &[u64]) -> Result<Self, TruthError> {
        if inputs > MAX_INPUTS {
            return Err(TruthError::TooManyInputs(inputs));
        }
        let mut t = Self::zero(inputs);
        for &m in minterms {
            if m >= t.size() {
                return Err(TruthError::MintermOutOfRange { minterm: m, inputs });
            }
            t.bits |= 1u128 << m;
        }
        Ok(t)
    }

    /// Builds a table from a raw bit mask; bits above `2^inputs` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_INPUTS`.
    pub fn from_bits(inputs: usize, bits: u128) -> Self {
        let mut t = Self::zero(inputs);
        t.bits = bits & t.full_mask();
        t
    }

    /// Number of inputs of the function.
    pub fn inputs(&self) -> usize {
        self.inputs as usize
    }

    /// Number of minterms, `2^inputs`.
    pub fn size(&self) -> u64 {
        1u64 << self.inputs
    }

    /// The raw table as a bit mask (bit `m` = value on minterm `m`).
    pub fn bits(&self) -> u128 {
        self.bits
    }

    fn full_mask(&self) -> u128 {
        if self.inputs as usize == MAX_INPUTS {
            u128::MAX
        } else {
            (1u128 << self.size()) - 1
        }
    }

    /// Value of the function on decimal minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^inputs`.
    pub fn value(&self, m: u64) -> bool {
        assert!(m < self.size(), "minterm out of range");
        self.bits >> m & 1 == 1
    }

    /// Evaluates the function on an assignment; `assignment[0]` is `x_1`
    /// (the most significant bit of the minterm).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != inputs`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.inputs(), "assignment length mismatch");
        let mut m = 0u64;
        for &b in assignment {
            m = m << 1 | u64::from(b);
        }
        self.value(m)
    }

    /// Iterator over the on-set (minterms where the function is 1), ascending.
    pub fn on_set(&self) -> impl Iterator<Item = u64> + '_ {
        let size = self.size();
        let bits = self.bits;
        (0..size).filter(move |&m| bits >> m & 1 == 1)
    }

    /// Iterator over the off-set (minterms where the function is 0), ascending.
    pub fn off_set(&self) -> impl Iterator<Item = u64> + '_ {
        let size = self.size();
        let bits = self.bits;
        (0..size).filter(move |&m| bits >> m & 1 == 0)
    }

    /// Number of minterms in the on-set.
    pub fn on_count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Whether the function is constant 0.
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Whether the function is constant 1.
    pub fn is_one(&self) -> bool {
        self.bits == self.full_mask()
    }

    /// The complement of the function.
    #[must_use]
    pub fn complement(&self) -> Self {
        TruthTable { inputs: self.inputs, bits: !self.bits & self.full_mask() }
    }

    /// Bitwise AND of two functions over the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.inputs, other.inputs, "input count mismatch");
        TruthTable { inputs: self.inputs, bits: self.bits & other.bits }
    }

    /// Bitwise OR of two functions over the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.inputs, other.inputs, "input count mismatch");
        TruthTable { inputs: self.inputs, bits: self.bits | other.bits }
    }

    /// Bitwise XOR of two functions over the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.inputs, other.inputs, "input count mismatch");
        TruthTable { inputs: self.inputs, bits: self.bits ^ other.bits }
    }

    /// Whether the function actually depends on input `input`.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::InputOutOfRange`] if `input >= inputs`.
    pub fn depends_on(&self, input: usize) -> Result<bool, TruthError> {
        let c0 = self.cofactor(input, false)?;
        let c1 = self.cofactor(input, true)?;
        Ok(c0 != c1)
    }

    /// The set of inputs the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.inputs()).filter(|&i| self.depends_on(i).expect("index in range")).collect()
    }

    /// Cofactor with respect to `input = value`, keeping the input count
    /// (the result no longer depends on `input`).
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::InputOutOfRange`] if `input >= inputs`.
    pub fn cofactor(&self, input: usize, value: bool) -> Result<Self, TruthError> {
        if input >= self.inputs() {
            return Err(TruthError::InputOutOfRange { input, inputs: self.inputs() });
        }
        let b = self.inputs() - 1 - input;
        let (shift, low) = (1u32 << b, LOW_HALVES[b]);
        let half = if value { self.bits >> shift & low } else { self.bits & low };
        Ok(TruthTable { inputs: self.inputs, bits: half | half << shift })
    }

    /// Reorders the inputs: `perm[i]` is the original input placed at
    /// position `i` of the new function, so the new function `g` satisfies
    /// `g(x_0, .., x_{n-1}) = f(x_{perm^{-1}(0)}, ..)` — equivalently, new
    /// input `i` behaves like old input `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::BadPermutation`] if `perm` is not a permutation
    /// of `0..inputs`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sft_truth::TruthTable;
    ///
    /// // f = x1 (2 inputs). Swapping inputs gives g = x2.
    /// let f = TruthTable::variable(2, 0);
    /// let g = f.permute(&[1, 0])?;
    /// assert_eq!(g, TruthTable::variable(2, 1));
    /// # Ok::<(), sft_truth::TruthError>(())
    /// ```
    pub fn permute(&self, perm: &[usize]) -> Result<Self, TruthError> {
        let n = self.inputs();
        if perm.len() != n {
            return Err(TruthError::BadPermutation);
        }
        let mut seen = [false; MAX_INPUTS];
        for &p in perm {
            if p >= n || seen[p] {
                return Err(TruthError::BadPermutation);
            }
            seen[p] = true;
        }
        // New minterm bit i (MSB-first) comes from old input perm[i].
        let t = Self::from_fn(n, |m| {
            let mut old_m = 0u64;
            for (i, &p) in perm.iter().enumerate() {
                let bit = m >> (n - 1 - i) & 1;
                old_m |= bit << (n - 1 - p);
            }
            self.value(old_m)
        });
        Ok(t)
    }

    /// The function with input `input` complemented (reflecting the truth
    /// table along that axis).
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::InputOutOfRange`] if `input >= inputs`.
    pub fn flip_input(&self, input: usize) -> Result<Self, TruthError> {
        if input >= self.inputs() {
            return Err(TruthError::InputOutOfRange { input, inputs: self.inputs() });
        }
        let b = self.inputs() - 1 - input;
        let (shift, low) = (1u32 << b, LOW_HALVES[b]);
        let bits = (self.bits & low) << shift | self.bits >> shift & low;
        Ok(TruthTable { inputs: self.inputs, bits })
    }

    /// Extends the function with `extra` fresh (ignored) inputs appended as
    /// least-significant minterm bits.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::TooManyInputs`] if the result would exceed
    /// [`MAX_INPUTS`] inputs.
    pub fn extend(&self, extra: usize) -> Result<Self, TruthError> {
        let n = self.inputs() + extra;
        if n > MAX_INPUTS {
            return Err(TruthError::TooManyInputs(n));
        }
        Ok(Self::from_fn(n, |m| self.value(m >> extra)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        let z = TruthTable::zero(3);
        assert!(z.is_zero());
        assert_eq!(z.on_count(), 0);
        let o = TruthTable::one(3);
        assert!(o.is_one());
        assert_eq!(o.on_count(), 8);
        assert_eq!(o.complement(), z);
    }

    #[test]
    fn max_width_table() {
        let o = TruthTable::one(MAX_INPUTS);
        assert!(o.is_one());
        assert_eq!(o.on_count(), 128);
        assert!(o.complement().is_zero());
    }

    #[test]
    fn variable_msb_convention() {
        // x1 of a 3-input function is 1 exactly on minterms with MSB set: 4..7.
        let x1 = TruthTable::variable(3, 0);
        assert_eq!(x1.on_set().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        let x3 = TruthTable::variable(3, 2);
        assert_eq!(x3.on_set().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn eval_matches_value() {
        let t = TruthTable::from_minterms(3, &[5]).unwrap();
        // 5 = 101 -> x1=1, x2=0, x3=1.
        assert!(t.eval(&[true, false, true]));
        assert!(!t.eval(&[true, false, false]));
    }

    #[test]
    fn from_minterms_rejects_out_of_range() {
        let err = TruthTable::from_minterms(2, &[4]).unwrap_err();
        assert_eq!(err, TruthError::MintermOutOfRange { minterm: 4, inputs: 2 });
        let err = TruthTable::from_minterms(9, &[]).unwrap_err();
        assert_eq!(err, TruthError::TooManyInputs(9));
    }

    #[test]
    fn boolean_ops() {
        let a = TruthTable::variable(2, 0);
        let b = TruthTable::variable(2, 1);
        assert_eq!(a.and(&b).on_set().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.or(&b).on_set().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(a.xor(&b).on_set().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn cofactor_and_support() {
        let a = TruthTable::variable(3, 0);
        let b = TruthTable::variable(3, 2);
        let f = a.and(&b);
        assert_eq!(f.support(), vec![0, 2]);
        assert!(!f.depends_on(1).unwrap());
        let c1 = f.cofactor(0, true).unwrap();
        assert_eq!(c1, b);
        let c0 = f.cofactor(0, false).unwrap();
        assert!(c0.is_zero());
        assert!(f.cofactor(3, true).is_err());
    }

    #[test]
    fn permute_round_trip() {
        // Paper example (Sec. 3.1): f2 is 1 on {1,5,6,9,10,14}; under the
        // reversal permutation the on-set becomes {5..10}.
        let f2 = TruthTable::from_minterms(4, &[1, 5, 6, 9, 10, 14]).unwrap();
        let g = f2.permute(&[3, 2, 1, 0]).unwrap();
        assert_eq!(g.on_set().collect::<Vec<_>>(), vec![5, 6, 7, 8, 9, 10]);
        // Applying the inverse permutation (reversal is an involution)
        // restores the original.
        assert_eq!(g.permute(&[3, 2, 1, 0]).unwrap(), f2);
    }

    #[test]
    fn permute_rejects_non_bijection() {
        let f = TruthTable::one(3);
        assert_eq!(f.permute(&[0, 0, 1]).unwrap_err(), TruthError::BadPermutation);
        assert_eq!(f.permute(&[0, 1]).unwrap_err(), TruthError::BadPermutation);
        assert_eq!(f.permute(&[0, 1, 3]).unwrap_err(), TruthError::BadPermutation);
    }

    #[test]
    fn extend_ignores_new_inputs() {
        let f = TruthTable::variable(2, 0);
        let g = f.extend(1).unwrap();
        assert_eq!(g.inputs(), 3);
        assert_eq!(g, TruthTable::variable(3, 0));
        assert!(TruthTable::one(5).extend(3).is_err());
    }

    #[test]
    fn flip_input_reflects_axis() {
        let x1 = TruthTable::variable(3, 0);
        let flipped = x1.flip_input(0).unwrap();
        assert_eq!(flipped, x1.complement());
        // Flipping twice restores.
        assert_eq!(flipped.flip_input(0).unwrap(), x1);
        // Flipping an independent input changes nothing.
        assert_eq!(x1.flip_input(2).unwrap(), x1);
        assert!(x1.flip_input(3).is_err());
    }

    /// The word-operation cofactor and flip agree with their per-minterm
    /// definitions on every input of random tables of every size.
    #[test]
    fn cofactor_and_flip_match_minterm_definitions() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in 1..=MAX_INPUTS {
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let f = TruthTable::from_bits(n, u128::from(state) << 64 | u128::from(!state));
                for input in 0..n {
                    let bit = 1u64 << (n - 1 - input);
                    for value in [false, true] {
                        let forced = TruthTable::from_fn(n, |m| {
                            f.value(if value { m | bit } else { m & !bit })
                        });
                        assert_eq!(f.cofactor(input, value).unwrap(), forced);
                    }
                    let flipped = TruthTable::from_fn(n, |m| f.value(m ^ bit));
                    assert_eq!(f.flip_input(input).unwrap(), flipped);
                }
            }
        }
    }

    #[test]
    fn display_is_msb_first() {
        let t = TruthTable::from_minterms(2, &[0]).unwrap();
        assert_eq!(t.to_string(), "0001");
    }
}
