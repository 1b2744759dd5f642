//! Single-layer split mathematics (§3.1) for one spatial dimension.
//!
//! A window-based operation `Op(X, k, s, p)` along a dimension of length
//! `L` produces `out_len = ⌊(L + p_b + p_e − k)/s⌋ + 1` outputs. Splitting
//! chooses output boundaries `O = (O_0=0, O_1, …, O_{N−1})` and derives
//! input boundaries `I` plus per-patch paddings such that patch `i`
//! computed on `X[I_i, I_{i+1})` yields exactly outputs `[O_i, O_{i+1})`.
//!
//! ## Note on the paper's padding formula
//!
//! The paper states `p_{i,b} = I_i + p_b − (O_i − 1)s`, which contradicts
//! Equation 1 (`lb(I_i) = O_i·s − p_b` would then give padding `s`, not 0).
//! The consistent 0-based form, used here, is `p_{i,b} = I_i + p_b − O_i·s`:
//! zero at the lower bound and `k − s` at the upper bound. The two agree
//! under 1-based output indexing, so this is a typo fix, not a behavioral
//! deviation.

/// A window-based operation's footprint along one spatial dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Window1d {
    /// Window (kernel) size `k`.
    pub k: usize,
    /// Stride `s`.
    pub s: usize,
    /// Padding before the first element.
    pub p_b: i64,
    /// Padding after the last element.
    pub p_e: i64,
}

impl Window1d {
    /// Creates a window spec.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `s` is zero.
    pub fn new(k: usize, s: usize, p_b: i64, p_e: i64) -> Self {
        assert!(k > 0 && s > 0, "window size and stride must be positive");
        Window1d { k, s, p_b, p_e }
    }

    /// Symmetric-padding convenience constructor.
    pub fn symmetric(k: usize, s: usize, p: usize) -> Self {
        Window1d::new(k, s, p as i64, p as i64)
    }

    /// Output length for an input of length `in_len`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is shorter than the window.
    pub fn out_len(&self, in_len: usize) -> usize {
        let padded = in_len as i64 + self.p_b + self.p_e;
        assert!(
            padded >= self.k as i64,
            "padded length {padded} < window {}",
            self.k
        );
        ((padded - self.k as i64) / self.s as i64 + 1) as usize
    }

    /// Equation 1: the smallest legal input boundary for output boundary
    /// `o` — splitting right before the first element of the window that
    /// produces output `o`.
    pub fn lb(&self, o: usize) -> i64 {
        o as i64 * self.s as i64 - self.p_b
    }

    /// Equation 2: the largest legal input boundary for output boundary
    /// `o` — splitting right after the first element of the window that
    /// produces output `o − 1`.
    pub fn ub(&self, o: usize) -> i64 {
        (o as i64 - 1) * self.s as i64 + self.k as i64 - self.p_b
    }
}

/// How to choose each input boundary within (or outside) `[lb, ub]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SplitChoice {
    /// `I_i = s · O_i`: stride-aligned. Legal whenever `p_b ≤ k − s`, which
    /// holds for every layer of AlexNet, VGG and ResNet, and — crucially —
    /// yields the *same* input scheme on parallel branches of a residual
    /// block, so it is the only choice the multi-layer transform uses
    /// inside residual networks. This is the default.
    #[default]
    Aligned,
    /// `I_i = lb`: all overlap data goes to the preceding patch.
    Lower,
    /// `I_i = ub`: all overlap data goes to the current patch.
    Upper,
    /// Midpoint of `[lb, ub]`: balanced overlap.
    Mid,
}

/// Evenly spaced output boundaries: `O_i = ⌊i·L/N⌋`.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds `len` (patches would be empty).
pub fn even_starts(len: usize, n: usize) -> Vec<usize> {
    assert!(n > 0, "cannot split into zero patches");
    assert!(n <= len, "cannot split length {len} into {n} patches");
    (0..n).map(|i| i * len / n).collect()
}

/// Derives input boundaries `I` from output boundaries `O` (Equation 3).
///
/// Choices are clamped to stay strictly increasing and inside `(0,
/// in_len)`; a clamped or out-of-interval boundary simply produces negative
/// padding downstream (footnote 1), never an invalid patch.
///
/// # Panics
///
/// Panics if `out_starts` is empty, does not begin with 0, or is not
/// strictly increasing.
pub fn input_starts(
    win: &Window1d,
    out_starts: &[usize],
    in_len: usize,
    choice: SplitChoice,
) -> Vec<usize> {
    validate_starts(out_starts);
    let n = out_starts.len();
    let mut starts = Vec::with_capacity(n);
    starts.push(0usize);
    for (i, &o) in out_starts.iter().enumerate().skip(1) {
        let cand = match choice {
            SplitChoice::Aligned => (o * win.s) as i64,
            SplitChoice::Lower => win.lb(o),
            SplitChoice::Upper => win.ub(o),
            SplitChoice::Mid => (win.lb(o) + win.ub(o)).div_euclid(2),
        };
        let min = starts[i - 1] as i64 + 1;
        let max = in_len as i64 - (n - i) as i64;
        let v = cand.clamp(min, max.max(min));
        assert!(
            v >= 1 && (v as usize) < in_len,
            "input boundary {v} out of range for length {in_len}"
        );
        starts.push(v as usize);
    }
    starts
}

/// Computes per-patch `(p_b, p_e)` paddings (Equation 5). Negative values
/// crop (abandon) features, per footnote 1.
///
/// Patch `i` runs the window operation on `X[I_i, I_{i+1})` with these
/// paddings and produces exactly `O_{i+1} − O_i` outputs — an invariant the
/// property tests pin down for arbitrary geometry.
///
/// # Panics
///
/// Panics if the two schemes have different lengths or are malformed.
pub fn patch_paddings(
    win: &Window1d,
    out_starts: &[usize],
    out_len: usize,
    in_starts: &[usize],
    in_len: usize,
) -> Vec<(i64, i64)> {
    validate_starts(out_starts);
    validate_starts(in_starts);
    assert_eq!(
        out_starts.len(),
        in_starts.len(),
        "scheme length mismatch"
    );
    let n = out_starts.len();
    let (s, k) = (win.s as i64, win.k as i64);
    let mut pads = Vec::with_capacity(n);
    for i in 0..n {
        let p_b = if i == 0 {
            win.p_b
        } else {
            in_starts[i] as i64 + win.p_b - out_starts[i] as i64 * s
        };
        let p_e = if i == n - 1 {
            win.p_e
        } else {
            (out_starts[i + 1] as i64 - 1) * s + k - (in_starts[i + 1] as i64 + win.p_b)
        };
        pads.push((p_b, p_e));
    }
    // Invariant: every patch produces its share of the output.
    for i in 0..n {
        let raw = if i == n - 1 {
            in_len - in_starts[i]
        } else {
            in_starts[i + 1] - in_starts[i]
        } as i64;
        let padded = raw + pads[i].0 + pads[i].1;
        debug_assert!(padded >= k, "patch {i} padded length {padded} < k {k}");
        let got = (padded - k) / s + 1;
        let want = if i == n - 1 {
            out_len - out_starts[i]
        } else {
            out_starts[i + 1] - out_starts[i]
        } as i64;
        debug_assert_eq!(got, want, "patch {i} output size mismatch");
    }
    pads
}

fn validate_starts(starts: &[usize]) {
    assert!(!starts.is_empty(), "empty split scheme");
    assert_eq!(starts[0], 0, "split scheme must start at 0");
    assert!(
        starts.windows(2).all(|w| w[0] < w[1]),
        "split scheme must be strictly increasing: {starts:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_coincide_when_kernel_equals_stride() {
        // "lb(I_i) = ub(I_i) if the kernel shape equals the stride, in
        // which case the splitting is natural and non-intrusive."
        let w = Window1d::symmetric(2, 2, 0);
        for o in 1..10 {
            assert_eq!(w.lb(o), w.ub(o));
        }
    }

    #[test]
    fn bounds_interval_width_is_k_minus_s() {
        let w = Window1d::symmetric(3, 1, 1);
        for o in 1..10 {
            assert_eq!(w.ub(o) - w.lb(o), 2); // k - s = 2
        }
    }

    #[test]
    fn downsampling_conv_violates_mandate() {
        let w = Window1d::symmetric(1, 2, 0);
        assert!(w.ub(2) < w.lb(2)); // empty interval
    }

    #[test]
    fn even_starts_partition() {
        assert_eq!(even_starts(32, 4), vec![0, 8, 16, 24]);
        assert_eq!(even_starts(10, 3), vec![0, 3, 6]);
        assert_eq!(even_starts(5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn aligned_choice_within_bounds_when_pad_small() {
        // p_b <= k - s ⇒ aligned within [lb, ub].
        let w = Window1d::symmetric(3, 1, 1);
        let o = even_starts(8, 4);
        let i = input_starts(&w, &o, 8, SplitChoice::Aligned);
        for (idx, &oi) in o.iter().enumerate().skip(1) {
            assert!(w.lb(oi) <= i[idx] as i64 && i[idx] as i64 <= w.ub(oi));
        }
    }

    #[test]
    fn natural_split_has_zero_padding_inside() {
        // k = s = 2, no padding: every interior patch pads nothing.
        let w = Window1d::symmetric(2, 2, 0);
        let o = even_starts(8, 4); // out_len 8 from in_len 16
        let i = input_starts(&w, &o, 16, SplitChoice::Aligned);
        assert_eq!(i, vec![0, 4, 8, 12]);
        let pads = patch_paddings(&w, &o, 8, &i, 16);
        assert!(pads.iter().all(|&p| p == (0, 0)), "pads {pads:?}");
    }

    #[test]
    fn vgg_conv_padding_pattern() {
        // 3x3 s1 p1 on length 32 → out 32, 4 patches aligned.
        let w = Window1d::symmetric(3, 1, 1);
        let o = even_starts(32, 4);
        let i = input_starts(&w, &o, 32, SplitChoice::Aligned);
        assert_eq!(i, vec![0, 8, 16, 24]);
        let pads = patch_paddings(&w, &o, 32, &i, 32);
        // First patch keeps the original left pad; interior boundaries pad
        // 1 on each side (the window halo replaced by zeros).
        assert_eq!(pads[0], (1, 1));
        assert_eq!(pads[1], (1, 1));
        assert_eq!(pads[3], (1, 1));
    }

    #[test]
    fn lower_and_upper_choices_give_edge_paddings() {
        let w = Window1d::symmetric(3, 1, 1);
        let o = even_starts(16, 2);
        let il = input_starts(&w, &o, 16, SplitChoice::Lower);
        assert_eq!(il[1] as i64, w.lb(8));
        let pl = patch_paddings(&w, &o, 16, &il, 16);
        assert_eq!(pl[1].0, 0, "lower bound → zero begin-padding");
        assert_eq!(pl[0].1, 2, "previous patch absorbs k−s end-padding");

        let iu = input_starts(&w, &o, 16, SplitChoice::Upper);
        assert_eq!(iu[1] as i64, w.ub(8));
        let pu = patch_paddings(&w, &o, 16, &iu, 16);
        assert_eq!(pu[1].0, 2, "upper bound → k−s begin-padding");
        assert_eq!(pu[0].1, 0, "previous patch ends cleanly");
    }

    #[test]
    fn out_of_interval_choice_yields_negative_padding() {
        // 1x1 stride-2 downsample (k < s): aligned choice I = 2·O produces
        // p_e = −1 on interior patches — the abandoned stride-gap column.
        let w = Window1d::symmetric(1, 2, 0);
        let o = even_starts(8, 4); // out_len 8 from in 16
        let i = input_starts(&w, &o, 16, SplitChoice::Aligned);
        assert_eq!(i, vec![0, 4, 8, 12]);
        let pads = patch_paddings(&w, &o, 8, &i, 16);
        assert_eq!(pads[0], (0, -1));
        assert_eq!(pads[1], (0, -1));
        assert_eq!(pads[3], (0, 0));
    }

    #[test]
    fn stride2_conv_aligned_paddings() {
        // 3x3 s2 p1 (ResNet downsample main path), in 16 → out 8.
        let w = Window1d::symmetric(3, 2, 1);
        assert_eq!(w.out_len(16), 8);
        let o = even_starts(8, 2);
        let i = input_starts(&w, &o, 16, SplitChoice::Aligned);
        assert_eq!(i, vec![0, 8]);
        let pads = patch_paddings(&w, &o, 8, &i, 16);
        assert_eq!(pads[0], (1, 0));
        assert_eq!(pads[1], (1, 1));
    }

    #[test]
    fn odd_lengths_still_partition_exactly() {
        // Non-divisible everything: L=29, k=3, s=2, p=1, N=3.
        let w = Window1d::symmetric(3, 2, 1);
        let out_len = w.out_len(29); // (29+2-3)/2+1 = 15
        let o = even_starts(out_len, 3);
        let i = input_starts(&w, &o, 29, SplitChoice::Aligned);
        // patch_paddings debug-asserts per-patch output sizes internally.
        let pads = patch_paddings(&w, &o, out_len, &i, 29);
        assert_eq!(pads.len(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_scheme_rejected() {
        patch_paddings(
            &Window1d::symmetric(3, 1, 1),
            &[0, 5, 3],
            8,
            &[0, 5, 3],
            8,
        );
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_patches_rejected() {
        even_starts(3, 4);
    }
}
