//! Branch-free `tanhf` and `expm1f`, bit-exact with fdlibm.
//!
//! [`Graph::tanh`](crate::Graph::tanh) and [`Graph::gelu`](crate::Graph::gelu)
//! used to call `f32::tanh`, which is libm's `tanhf`: one opaque call per
//! element that keeps the surrounding loop scalar. glibc's `tanhf` and the
//! `expm1f` it calls are fdlibm's (`s_tanhf.c`, `s_expm1f.c`). The two
//! functions here are those routines transliterated operation by operation,
//! so every result is the same f32, but written without early returns:
//! each element evaluates every branch and selects, which lets LLVM
//! vectorize a loop that calls them.
//!
//! - Every constant is the hex word from fdlibm's comments.
//! - fdlibm's `k = (int)(invln2*x ± 0.5)` is `trunc` plus the 1.5·2²³
//!   magic-number bit trick; an `as i32` cast would be scalarized per lane.
//! - The shifts and exponent adds of discarded branches see garbage `k`,
//!   so they wrap instead of panicking.
//! - `tanhf`'s `2/(t+2)` and `-t/(t+2)` are written as one division by
//!   `t+2`, and the sign of its `expm1f` argument is set with a bit
//!   operation; as a branch, LLVM evaluates `expm1f` once per arm.
//! - rustc never contracts a multiply and an add into an FMA, so vector
//!   and scalar lanes round identically.
//!
//! The tests hold the branchy transliteration that reads line by line like
//! the C source, and compare against it bitwise.

/// `0x1p127`, the scale of `expm1f`'s `k == 128` branch.
const TWO127: f32 = f32::from_bits(0x7f00_0000);
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// 1.5·2²³: adding it to an integer-valued `|v| < 2²²` puts `v` in the
/// low mantissa bits.
const MAGIC: f32 = 12_582_912.0;

/// `e^x - 1`, bit-equal to fdlibm's `expm1f`.
#[inline(always)]
pub(crate) fn expm1f(x: f32) -> f32 {
    let neg = x.to_bits() >> 31 != 0;
    let hx = x.to_bits() & 0x7fff_ffff;
    // Below 2^-25 the result is x (fdlibm's `x - ((huge + x) - huge)`).
    // The discarded branches start from 0 there instead, which keeps
    // subnormals, and their slow microcode path, out of the arithmetic.
    let tiny = hx < 0x3300_0000;
    let xs = if tiny { 0.0 } else { x };

    // Argument reduction: x = k·ln2 + (hi - lo), with k = ±1 just above
    // 0.5·ln2 and k = trunc(x/ln2 ± 0.5) from 1.5·ln2 on.
    let near = hx < 0x3f85_1592;
    let kf = (INVLN2 * xs + if neg { -0.5 } else { 0.5 }).trunc();
    let kf = if near {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        kf
    };
    let hi = if near {
        if neg {
            xs + LN2_HI
        } else {
            xs - LN2_HI
        }
    } else {
        xs - kf * LN2_HI
    };
    let lo = if near {
        if neg {
            -LN2_LO
        } else {
            LN2_LO
        }
    } else {
        kf * LN2_LO
    };
    let reduced = hi - lo;
    let c = (hi - reduced) - lo;
    let reduce = hx > 0x3eb1_7218;
    let xr = if reduce { reduced } else { xs };
    let kf = if reduce { kf } else { 0.0 };
    let k = ((kf + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    // Adds k to the exponent of y.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));

    // xr is now in the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    let k0 = xr - (xr * e - hxs);
    let e = xr * (e - c) - c;
    let e = e - hxs;
    let km1 = 0.5 * (xr - e) - 0.5;
    let k1 = if xr < -0.25 { -2.0 * (e - (xr + 0.5)) } else { 1.0 + 2.0 * (xr - e) };
    let y = 1.0 - (e - xr);
    let far = (if k == 128 { y * 2.0 * TWO127 } else { scale(y) }) - 1.0;
    // k in 2..=22 uses t = 1 - 2^-k, k in 23..=56 uses t = 2^-k.
    let low = f32::from_bits(0x3f80_0000 - 0x0100_0000_u32.wrapping_shr(k as u32)) - (e - xr);
    let high = xr - (e + f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32)) + 1.0;
    let mid = scale(if k < 23 { low } else { high });

    let r = if k <= -2 || k > 56 { far } else { mid };
    let r = if k == 1 { k1 } else { r };
    let r = if k == -1 { km1 } else { r };
    let r = if k == 0 { k0 } else { r };
    let r = if tiny { x } else { r };
    // x <= -27·ln2 (and -inf): -1. x >= 88.72 (and +inf): fdlibm's
    // `huge * huge` overflows to inf.
    let r = if neg && hx >= 0x4195_b844 { -1.0 } else { r };
    let r = if !neg && hx >= 0x42b1_7218 { f32::INFINITY } else { r };
    if hx > 0x7f80_0000 {
        x + x
    } else {
        r
    }
}

/// Hyperbolic tangent, bit-equal to fdlibm's `tanhf`.
#[inline(always)]
pub(crate) fn tanhf(x: f32) -> f32 {
    let neg = x.to_bits() >> 31 != 0;
    let ix = x.to_bits() & 0x7fff_ffff;
    // Below 2^-55 the result is x: fdlibm's `x * (1 + x)` multiplies by
    // 1 + x == 1. As in expm1f, the discarded branches start from 0.
    let tiny = ix < 0x2400_0000;
    let ax = if tiny { 0.0 } else { f32::from_bits(ix) };
    let big = ix >= 0x3f80_0000;
    // expm1f(2|x|) for |x| >= 1, expm1f(-2|x|) below.
    let t = expm1f(f32::from_bits((2.0 * ax).to_bits() | (u32::from(!big) << 31)));
    // 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below.
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| >= 22: fdlibm's `one - tiny` rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let r = if neg { -z } else { z };
    let r = if tiny { x } else { r };
    // ±inf: fdlibm's `1/x ± 1` is exactly ±1; NaN: x + x.
    let r = if ix == 0x7f80_0000 {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        r
    };
    if ix > 0x7f80_0000 {
        x + x
    } else {
        r
    }
}

/// fdlibm's `expm1f` and `tanhf` with their branches and early returns,
/// line by line as in the C source: the oracle for the kernels above. It
/// keeps its own copy of the constants, so a wrong constant in a kernel
/// shows as a mismatch.
#[cfg(test)]
pub(crate) mod reference {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = f32::from_bits(0xbd08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3: f32 = f32::from_bits(0xb8a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);
    const TWO127: f32 = f32::from_bits(0x7f00_0000);
    const HUGE: f32 = 1.0e30;
    const TINY: f32 = 1.0e-30;
    const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);

    pub(crate) fn expm1f(x: f32) -> f32 {
        let mut x = x;
        let xsb = x.to_bits() & 0x8000_0000;
        let hx = x.to_bits() & 0x7fff_ffff;

        // filter out huge and non-finite argument
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if xsb == 0 { x } else { -1.0 };
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE;
                }
            }
            if xsb != 0 {
                return TINY - 1.0;
            }
        }

        // argument reduction
        let k: i32;
        let mut c = 0.0;
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                if xsb == 0 {
                    (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
                } else {
                    (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
                }
            } else {
                k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI;
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - HUGE);
        } else {
            k = 0;
        }

        // x is now in primary range
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 1.0 + 2.0 * (x - e) };
        }
        let add_k = |y: f32| f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
        if k <= -2 || k > 56 {
            let mut y = 1.0 - (e - x);
            y = if k == 128 { y * 2.0 * TWO127 } else { add_k(y) };
            return y - 1.0;
        }
        let y = if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
            t - (e - x)
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            let y = x - (e + t);
            y + 1.0
        };
        add_k(y)
    }

    pub(crate) fn tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;

        // x is INF or NaN
        if ix >= 0x7f80_0000 {
            return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
        }

        let z;
        if ix < 0x41b0_0000 {
            // |x| < 22
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                // |x| < 2^-55
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                // |x| >= 1
                let t = expm1f(2.0 * x.abs());
                z = 1.0 - 2.0 / (t + 2.0);
            } else {
                let t = expm1f(-2.0 * x.abs());
                z = -t / (t + 2.0);
            }
        } else {
            // |x| >= 22, return ±1
            z = 1.0 - TINY;
        }
        if jx >= 0 {
            z
        } else {
            -z
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise equality, with any NaN equal to any NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Both kernels against the reference at the input with these bits.
    fn assert_kernels_match(bits: u32) {
        let x = f32::from_bits(bits);
        for (name, got, want) in
            [("tanhf", tanhf(x), reference::tanhf(x)), ("expm1f", expm1f(x), reference::expm1f(x))]
        {
            assert!(
                same(got, want),
                "{name}({x:e} = {bits:#010x}): kernel {got:e} ({:#010x}) != reference {want:e} \
                 ({:#010x})",
                got.to_bits(),
                want.to_bits()
            );
        }
    }

    /// The bit patterns within `ulps` of `x`, with `x`'s sign.
    fn around(x: f32, ulps: u32) -> impl Iterator<Item = u32> {
        let b = x.to_bits();
        b.saturating_sub(ulps)..=b.saturating_add(ulps)
    }

    #[test]
    fn kernels_match_reference_at_every_branch_boundary_and_special_value() {
        let mut inputs: Vec<u32> = Vec::new();
        // tanhf: |x| < 2^-55, |x| < 1 and |x| < 22; expm1f: |x| < 2^-25,
        // 0.5·ln2, 1.5·ln2, 27·ln2, o_threshold and 88.72.
        for edge in [
            0x2400_0000,
            0x3f80_0000,
            0x41b0_0000,
            0x3300_0000,
            0x3eb1_7218,
            0x3f85_1592,
            0x4195_b844,
            0x42b1_7180,
            0x42b1_7218,
        ] {
            inputs.extend(around(f32::from_bits(edge), 1));
        }
        // expm1f's k steps: k·ln2 ± 0.5·ln2 for k = 22/23, 56/57 and
        // 127/128, where the exponent rebuild changes form.
        for k in [23.0f32, 57.0, 128.0] {
            inputs.extend(around((k - 0.5) / INVLN2, 64));
        }
        // Inputs where the last bit of Q1 decides the expm1f or tanhf
        // result (found by exhaustive search; one ulp off in Q2 or Q5
        // changes no result at all).
        inputs.extend([0x3da8_5da8, 0x3dee_1bd2, 0x3e07_a8a7, 0x3d39_fb61, 0x3da3_2570]);
        // ±0, subnormals, ±inf, quiet and signalling NaNs.
        inputs.extend([
            0x0000_0000,
            0x0000_0001,
            0x0040_0000,
            0x007f_ffff,
            0x0080_0000,
            0x7f80_0000,
            0x7fc0_0000,
            0x7f80_0001,
            0x7fff_ffff,
        ]);
        for bits in inputs {
            assert_kernels_match(bits);
            assert_kernels_match(bits | 0x8000_0000);
        }
    }

    #[test]
    fn kernels_match_reference_on_a_strided_sweep_of_bit_patterns() {
        // A prime stride visits 2^32 / 4093 > 2^20 patterns, every
        // exponent and both signs.
        let mut swept = 0u32;
        for bits in (0..=u32::MAX).step_by(4093) {
            assert_kernels_match(bits);
            swept += 1;
        }
        assert!(swept >= 1 << 20, "swept only {swept} patterns");
    }

    #[test]
    fn tanhf_matches_reference_over_the_gelu_input_range() {
        // Every tanh argument GELU forms for x in [-12, 12] in steps of
        // 2^-12, the range feed-forward pre-activations fall in.
        const C: f32 = 0.797_884_6;
        for i in -(12 << 12)..=(12 << 12) {
            let x = i as f32 / 4096.0;
            assert_kernels_match((C * (x + 0.044715 * x * x * x)).to_bits());
        }
    }

    #[test]
    fn tanhf_reproduces_pinned_libm_outputs() {
        // (input, output) bit pairs printed at run time by glibc 2.36's
        // `tanhf` (via `f32::tanh`), which produced every artefact pinned
        // before this kernel existed. One per branch of tanhf and of the
        // expm1f under it; they hold on any host. At -0.3 and -0.95 libm
        // is 1 ulp off the correctly rounded tanh, which compile-time
        // constant folding prints instead.
        const PINS: [(u32, u32); 17] = [
            (0x1e3c_e508, 0x1e3c_e508), // 1e-20: |x| < 2^-55
            (0xb22b_cc77, 0xb22b_cc77), // -1e-8: expm1f's |x| < 2^-25
            (0x3a83_126f, 0x3a83_126c), // 1e-3: k = 0
            (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1: k = 0
            (0xbe99_999a, 0xbe95_26ed), // -0.3: k = -1
            (0x3ee6_6666, 0x3ed8_0325), // 0.45: k = -1
            (0x3f40_0000, 0x3f22_991f), // 0.75: k = -2
            (0xbf73_3333, 0xbf3d_626d), // -0.95: k = -3
            (0x3f80_0000, 0x3f42_f7d6), // 1: |x| >= 1, k = 3
            (0x3fc0_0000, 0x3f67_b7cc), // 1.5: k = 4
            (0xc040_0000, 0xbf7e_bbe9), // -3: k = 9
            (0x40a0_0000, 0x3f7f_fa0d), // 5: k = 14
            (0x4100_0000, 0x3f7f_fffc), // 8: k = 23
            (0xc170_0000, 0xbf80_0000), // -15: k = 43
            (0x41a0_0000, 0x3f80_0000), // 20: k = 58
            (0x41af_3333, 0x3f80_0000), // 21.9: k = 63
            (0x41b0_0000, 0x3f80_0000), // 22: |x| >= 22
        ];
        for (x, want) in PINS {
            let got = tanhf(f32::from_bits(x));
            assert_eq!(got.to_bits(), want, "tanhf({:e})", f32::from_bits(x));
        }
    }

    /// Fails unless `agrees` holds at every f32 bit pattern, fanning out
    /// over the ambient thread budget.
    fn assert_every_f32(agrees: impl Fn(f32) -> bool + Sync) {
        const CHUNK: u64 = 1 << 24;
        // (mismatches, first mismatching bits) per chunk.
        let chunks = crate::par::par_map_collect(1 << 8, 1 << 26, |c| {
            let lo = c as u64 * CHUNK;
            let mut miss = (0u64, None);
            for bits in (lo..lo + CHUNK).map(|b| b as u32) {
                if !agrees(f32::from_bits(bits)) {
                    miss.0 += 1;
                    miss.1.get_or_insert(bits);
                }
            }
            miss
        });
        let total: u64 = chunks.iter().map(|m| m.0).sum();
        let first: Vec<u32> = chunks.iter().filter_map(|m| m.1).take(8).collect();
        assert_eq!(total, 0, "mismatches; first per chunk: {first:#010x?}");
    }

    #[test]
    #[ignore = "exhaustive over 2^32 inputs: about a minute in release on 2 threads; scripts/ci.sh \
                runs it by name"]
    fn kernels_match_reference_on_every_f32() {
        assert_every_f32(|x| {
            same(tanhf(x), reference::tanhf(x)) && same(expm1f(x), reference::expm1f(x))
        });
    }

    #[test]
    #[ignore = "holds only where libm's tanhf and expm1f are fdlibm's (glibc 2.36 on x86-64); \
                not a CI gate"]
    fn kernels_match_host_libm_on_every_f32() {
        assert_every_f32(|x| same(tanhf(x), x.tanh()) && same(expm1f(x), x.exp_m1()));
    }
}
