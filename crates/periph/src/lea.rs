//! LEA — the Low Energy Accelerator.
//!
//! The MSP430FR5994's LEA is a fixed-point vector coprocessor that can only
//! address its dedicated 4 KB LEA-RAM. That restriction is load-bearing for
//! the paper's workloads: operands must be staged into LEA-RAM by DMA
//! (non-volatile → volatile, the `Private` class) and results staged back
//! (→ non-volatile, the `Single` class), which is exactly the DMA pattern
//! whose WAR hazards regional privatization exists to fix.
//!
//! Arithmetic is Q-format fixed point on `i16` with `i32` accumulation, so
//! every result is bit-exact and checkable against a golden run.

use mcu_emu::{read_scalars, write_scalars, Addr, Cost, CostTable, Memory, Region, PAGE_BYTES};

/// Right-shift applied to MAC accumulators before narrowing to i16.
pub const ACC_SHIFT: u32 = 8;

// LEA-RAM is one dirty-tracking page, so a block write over any span of it
// dirties exactly the pages element-wise writes inside that span would.
const _: () = assert!(Region::LeaRam.size() <= PAGE_BYTES as usize);

fn assert_lea(addr: Addr, what: &str) {
    assert!(
        addr.region == Region::LeaRam,
        "LEA can only address LEA-RAM, but {what} is in {:?}",
        addr.region
    );
}

fn sat16(acc: i32) -> i16 {
    (acc >> ACC_SHIFT).clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// `Σ coeffs[k]·data[k]` over the shorter of the two slices, accumulated
/// in wrapping i32 exactly like the hardware accumulator.
fn mac(coeffs: &[i16], data: &[i16]) -> i32 {
    coeffs
        .iter()
        .zip(data)
        .fold(0i32, |acc, (&c, &d)| acc.wrapping_add(c as i32 * d as i32))
}

/// One input operand, decoded once with a single block read.
///
/// A program may pass overlapping LEA-RAM spans as input and output. The
/// accelerator reads its inputs while it writes outputs, so when the output
/// span overlaps this operand every output store is mirrored into the
/// decoded words: later outputs then see the bytes the element-wise loop
/// would have re-read from LEA-RAM.
struct Operand {
    /// LEA-RAM byte offset of word 0.
    at: u32,
    words: Vec<i16>,
    /// Whether the output span overlaps this operand.
    aliased: bool,
}

impl Operand {
    fn load(mem: &Memory, addr: Addr, n: u32, out: Addr, n_out: u32) -> Self {
        let (lo, hi) = (addr.offset, addr.offset + 2 * n);
        let (out_lo, out_hi) = (out.offset, out.offset + 2 * n_out);
        Self {
            at: addr.offset,
            words: read_scalars(mem, addr, n),
            aliased: lo < out_hi && out_lo < hi,
        }
    }

    /// Mirrors the store of `v` at LEA-RAM byte offset `dst` into the words.
    fn mirror(&mut self, dst: u32, v: i16) {
        if !self.aliased {
            return;
        }
        for (addr, byte) in (dst..).zip(v.to_le_bytes()) {
            let Some(rel) = addr.checked_sub(self.at) else {
                continue;
            };
            if let Some(w) = self.words.get_mut((rel / 2) as usize) {
                let mut b = w.to_le_bytes();
                b[(rel % 2) as usize] = byte;
                *w = i16::from_le_bytes(b);
            }
        }
    }
}

/// Computes outputs `0..n` in order with `f`, mirrors each into the
/// operands it overlaps, and writes the block to `out` with one write.
fn store_block<const N: usize>(
    mem: &mut Memory,
    out: Addr,
    n: u32,
    mut ops: [Operand; N],
    f: impl Fn(&[Operand; N], usize) -> i16,
) {
    let mut y = Vec::with_capacity(n as usize);
    for i in 0..n {
        let v = f(&ops, i as usize);
        for op in &mut ops {
            op.mirror(out.offset + 2 * i, v);
        }
        y.push(v);
    }
    write_scalars(mem, out, &y);
}

/// FIR filter: `y[i] = (Σ_k h[k]·x[i+k]) >> ACC_SHIFT` for `i in 0..n_out`.
///
/// `x` must hold `n_out + taps - 1` samples. Returns the MAC count for cost
/// accounting.
pub fn fir(mem: &mut Memory, x: Addr, h: Addr, y: Addr, n_out: u32, taps: u32) -> u64 {
    assert_lea(x, "input");
    assert_lea(h, "coefficients");
    assert_lea(y, "output");
    if n_out == 0 {
        return 0;
    }
    let x_len = if taps == 0 { 0 } else { n_out + taps - 1 };
    let ops = [
        Operand::load(mem, h, taps, y, n_out),
        Operand::load(mem, x, x_len, y, n_out),
    ];
    store_block(mem, y, n_out, ops, |[h, x], i| {
        sat16(mac(&h.words, x.words.get(i..).unwrap_or_default()))
    });
    fir_macs(n_out, taps)
}

/// MAC count of a FIR invocation (for pricing before execution).
pub fn fir_macs(n_out: u32, taps: u32) -> u64 {
    n_out as u64 * taps as u64
}

/// Valid 2-D convolution of a `w`×`h` image with a `kw`×`kh` kernel.
///
/// Output is `(w-kw+1)`×`(h-kh+1)`. Returns the MAC count.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    mem: &mut Memory,
    input: Addr,
    w: u32,
    h: u32,
    kernel: Addr,
    kw: u32,
    kh: u32,
    out: Addr,
) -> u64 {
    assert_lea(input, "input");
    assert_lea(kernel, "kernel");
    assert_lea(out, "output");
    assert!(w >= kw && h >= kh, "kernel larger than input");
    let ow = w - kw + 1;
    let oh = h - kh + 1;
    let n_out = ow * oh;
    let taps = kw * kh;
    let ops = [
        Operand::load(mem, input, if taps == 0 { 0 } else { w * h }, out, n_out),
        Operand::load(mem, kernel, taps, out, n_out),
    ];
    let (w, ow, kw, kh) = (w as usize, ow as usize, kw as usize, kh as usize);
    store_block(mem, out, n_out, ops, |[px, kv], o| {
        let (oy, ox) = (o / ow, o % ow);
        let acc = (0..kh).fold(0i32, |acc, ky| {
            let row = &kv.words[ky * kw..][..kw];
            let pixels = px.words.get((oy + ky) * w + ox..).unwrap_or_default();
            acc.wrapping_add(mac(row, pixels))
        });
        sat16(acc)
    });
    n_out as u64 * taps as u64
}

/// MAC count of a conv2d invocation.
pub fn conv2d_macs(w: u32, h: u32, kw: u32, kh: u32) -> u64 {
    ((w - kw + 1) as u64) * ((h - kh + 1) as u64) * (kw as u64) * (kh as u64)
}

/// In-place ReLU over `n` elements. Returns the op count.
///
/// Only the span from the first to the last negative element is written
/// back, so a buffer with no negative element dirties nothing.
pub fn relu(mem: &mut Memory, buf: Addr, n: u32) -> u64 {
    assert_lea(buf, "buffer");
    let v: Vec<i16> = read_scalars(mem, buf, n);
    if let (Some(first), Some(last)) = (
        v.iter().position(|x| *x < 0),
        v.iter().rposition(|x| *x < 0),
    ) {
        let span: Vec<i16> = v[first..=last].iter().map(|x| (*x).max(0)).collect();
        write_scalars(mem, buf.add(first as u32 * 2), &span);
    }
    n as u64
}

/// Fully-connected layer: `out[j] = (Σ_i w[j·n_in + i]·x[i]) >> ACC_SHIFT`.
///
/// Returns the MAC count.
pub fn fully_connected(
    mem: &mut Memory,
    x: Addr,
    n_in: u32,
    weights: Addr,
    out: Addr,
    n_out: u32,
) -> u64 {
    assert_lea(x, "input");
    assert_lea(weights, "weights");
    assert_lea(out, "output");
    if n_out == 0 {
        return 0;
    }
    let ops = [
        Operand::load(mem, x, n_in, out, n_out),
        Operand::load(mem, weights, n_out * n_in, out, n_out),
    ];
    let n = n_in as usize;
    store_block(mem, out, n_out, ops, |[x, w], j| {
        sat16(mac(&w.words[j * n..][..n], &x.words))
    });
    (n_in as u64) * (n_out as u64)
}

/// Index of the maximum element (the paper's inference layer). Ties break to
/// the lowest index. Returns `(argmax, comparisons)`.
pub fn argmax(mem: &Memory, buf: Addr, n: u32) -> (u32, u64) {
    assert_lea(buf, "buffer");
    assert!(n > 0, "argmax over empty buffer");
    let v: Vec<i16> = read_scalars(mem, buf, n);
    let best = (1..v.len()).fold(0, |best, i| if v[i] > v[best] { i } else { best });
    (best as u32, n as u64)
}

/// Cost of a LEA invocation performing `macs` multiply-accumulates.
pub fn lea_cost(table: &CostTable, macs: u64) -> Cost {
    table.lea_setup + table.lea_mac.times(macs)
}

/// The element-wise kernels the block kernels replaced: one LEA-RAM load
/// per operand word per MAC and one store per output, in hardware order.
/// Kept as the reference the block kernels must match byte for byte,
/// including when operands alias.
#[cfg(test)]
mod oracle {
    use super::{sat16, Addr, Memory};

    fn load_i16(mem: &Memory, base: Addr, i: u32) -> i16 {
        let b = mem.read_bytes(base.add(i * 2), 2);
        i16::from_le_bytes([b[0], b[1]])
    }

    fn store_i16(mem: &mut Memory, base: Addr, i: u32, v: i16) {
        mem.write_bytes(base.add(i * 2), &v.to_le_bytes());
    }

    pub fn fir(mem: &mut Memory, x: Addr, h: Addr, y: Addr, n_out: u32, taps: u32) {
        for i in 0..n_out {
            let mut acc: i32 = 0;
            for k in 0..taps {
                let p = load_i16(mem, h, k) as i32 * load_i16(mem, x, i + k) as i32;
                acc = acc.wrapping_add(p);
            }
            store_i16(mem, y, i, sat16(acc));
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        mem: &mut Memory,
        input: Addr,
        w: u32,
        h: u32,
        kernel: Addr,
        kw: u32,
        kh: u32,
        out: Addr,
    ) {
        let ow = w - kw + 1;
        let oh = h - kh + 1;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i32 = 0;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let px = load_i16(mem, input, (oy + ky) * w + (ox + kx)) as i32;
                        let kv = load_i16(mem, kernel, ky * kw + kx) as i32;
                        acc = acc.wrapping_add(px * kv);
                    }
                }
                store_i16(mem, out, oy * ow + ox, sat16(acc));
            }
        }
    }

    pub fn relu(mem: &mut Memory, buf: Addr, n: u32) {
        for i in 0..n {
            if load_i16(mem, buf, i) < 0 {
                store_i16(mem, buf, i, 0);
            }
        }
    }

    pub fn fully_connected(
        mem: &mut Memory,
        x: Addr,
        n_in: u32,
        weights: Addr,
        out: Addr,
        n_out: u32,
    ) {
        for j in 0..n_out {
            let mut acc: i32 = 0;
            for i in 0..n_in {
                let p = load_i16(mem, weights, j * n_in + i) as i32 * load_i16(mem, x, i) as i32;
                acc = acc.wrapping_add(p);
            }
            store_i16(mem, out, j, sat16(acc));
        }
    }

    pub fn argmax(mem: &Memory, buf: Addr, n: u32) -> u32 {
        let mut best = 0u32;
        let mut best_v = load_i16(mem, buf, 0);
        for i in 1..n {
            let v = load_i16(mem, buf, i);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::AllocTag;
    use proptest::prelude::*;

    fn lea_buf(mem: &mut Memory, n: u32) -> Addr {
        mem.alloc(Region::LeaRam, n * 2, AllocTag::App)
    }

    fn fill(mem: &mut Memory, base: Addr, data: &[i16]) {
        write_scalars(mem, base, data);
    }

    fn read(mem: &Memory, base: Addr, n: u32) -> Vec<i16> {
        read_scalars(mem, base, n)
    }

    #[test]
    fn fir_identity_kernel_shifts_scale() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 6);
        let h = lea_buf(&mut m, 1);
        let y = lea_buf(&mut m, 6);
        fill(&mut m, x, &[256, 512, -256, 0, 1024, 2560]);
        fill(&mut m, h, &[1 << ACC_SHIFT]); // unity gain in Q8
        let macs = fir(&mut m, x, h, y, 6, 1);
        assert_eq!(macs, 6);
        assert_eq!(read(&m, y, 6), vec![256, 512, -256, 0, 1024, 2560]);
    }

    #[test]
    fn fir_moving_average() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 5);
        let h = lea_buf(&mut m, 2);
        let y = lea_buf(&mut m, 4);
        fill(&mut m, x, &[0, 256, 512, 768, 1024]);
        // Two half-gain taps in Q8: output = mean of adjacent samples.
        fill(&mut m, h, &[128, 128]);
        fir(&mut m, x, h, y, 4, 2);
        assert_eq!(read(&m, y, 4), vec![128, 384, 640, 896]);
    }

    #[test]
    #[should_panic(expected = "LEA can only address LEA-RAM")]
    fn lea_rejects_fram_operands() {
        let mut m = Memory::new();
        let x = m.alloc(Region::Fram, 8, AllocTag::App);
        let h = lea_buf(&mut m, 1);
        let y = lea_buf(&mut m, 4);
        fir(&mut m, x, h, y, 4, 1);
    }

    #[test]
    fn conv2d_shapes_and_values() {
        let mut m = Memory::new();
        let input = lea_buf(&mut m, 9);
        let kernel = lea_buf(&mut m, 4);
        let out = lea_buf(&mut m, 4);
        // 3×3 input, 2×2 kernel of Q8 quarters → output = mean of window.
        fill(&mut m, input, &[0, 256, 512, 256, 512, 768, 512, 768, 1024]);
        fill(&mut m, kernel, &[64, 64, 64, 64]);
        let macs = conv2d(&mut m, input, 3, 3, kernel, 2, 2, out);
        assert_eq!(macs, 16);
        assert_eq!(read(&m, out, 4), vec![256, 512, 512, 768]);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let mut m = Memory::new();
        let b = lea_buf(&mut m, 4);
        fill(&mut m, b, &[-5, 3, 0, -32768]);
        relu(&mut m, b, 4);
        assert_eq!(read(&m, b, 4), vec![0, 3, 0, 0]);
    }

    #[test]
    fn fully_connected_matches_manual_matvec() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 2);
        let w = lea_buf(&mut m, 4);
        let o = lea_buf(&mut m, 2);
        fill(&mut m, x, &[256, 512]); // [1.0, 2.0] in Q8
        fill(&mut m, w, &[256, 0, 256, 256]); // rows [1,0],[1,1]
        fully_connected(&mut m, x, 2, w, o, 2);
        // out = [1.0·1.0, 1.0·1.0+1.0·2.0] = [256, 768] in Q8... one shift:
        // acc0 = 256·256 >> 8 = 256; acc1 = (256·256 + 256·512) >> 8 = 768.
        assert_eq!(read(&m, o, 2), vec![256, 768]);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let mut m = Memory::new();
        let b = lea_buf(&mut m, 5);
        fill(&mut m, b, &[3, 9, 9, -1, 2]);
        let (idx, cmps) = argmax(&m, b, 5);
        assert_eq!(idx, 1);
        assert_eq!(cmps, 5);
    }

    #[test]
    fn saturation_on_overflow() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 1);
        let h = lea_buf(&mut m, 1);
        let y = lea_buf(&mut m, 1);
        fill(&mut m, x, &[i16::MAX]);
        fill(&mut m, h, &[i16::MAX]);
        fir(&mut m, x, h, y, 1, 1);
        // MAX·MAX >> 8 overflows i16 → saturates.
        assert_eq!(read(&m, y, 1), vec![i16::MAX]);
    }

    /// Regression: the accumulator wraps in i32 like the hardware's. Two
    /// `MIN·MIN` products sum to 2^31, which used to panic with "attempt to
    /// add with overflow" in debug builds; it wraps to `i32::MIN`, and
    /// `i32::MIN >> 8` saturates to `i16::MIN`.
    #[test]
    fn accumulator_wraps_instead_of_overflowing() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 2);
        let h = lea_buf(&mut m, 2);
        let y = lea_buf(&mut m, 1);
        fill(&mut m, x, &[i16::MIN, i16::MIN]);
        fill(&mut m, h, &[i16::MIN, i16::MIN]);
        fir(&mut m, x, h, y, 1, 2);
        assert_eq!(read(&m, y, 1), vec![i16::MIN]);

        let o = lea_buf(&mut m, 1);
        fully_connected(&mut m, x, 2, h, o, 1);
        assert_eq!(read(&m, o, 1), vec![i16::MIN]);
        conv2d(&mut m, x, 2, 1, h, 2, 1, o);
        assert_eq!(read(&m, o, 1), vec![i16::MIN]);
    }

    #[test]
    fn fir_with_no_outputs_reads_and_writes_nothing() {
        let mut m = Memory::new();
        // Operands at the very end of LEA-RAM: reading `taps` coefficients
        // or `taps - 1` samples would run off the region.
        let end = Addr::new(Region::LeaRam, Region::LeaRam.size() as u32);
        m.snapshot();
        assert_eq!(fir(&mut m, end, end, end, 0, 4), 0);
        assert_eq!(fir(&mut m, end, end, end, 0, 0), 0);
        assert_eq!(m.dirty_pages(Region::LeaRam), 0);
    }

    #[test]
    fn fir_with_no_taps_writes_zeros() {
        let mut m = Memory::new();
        let y = lea_buf(&mut m, 3);
        fill(&mut m, y, &[7, -7, 7]);
        let end = Addr::new(Region::LeaRam, Region::LeaRam.size() as u32);
        assert_eq!(fir(&mut m, end, end, y, 3, 0), 0);
        assert_eq!(read(&m, y, 3), vec![0, 0, 0]);
    }

    #[test]
    fn relu_without_negatives_dirties_nothing() {
        let mut m = Memory::new();
        let b = lea_buf(&mut m, 3);
        fill(&mut m, b, &[0, 1, i16::MAX]);
        m.snapshot();
        relu(&mut m, b, 3);
        assert_eq!(m.dirty_pages(Region::LeaRam), 0);
    }

    /// A LEA-RAM operand window. Offsets may be odd and may coincide or
    /// overlap, so outputs land on inputs that later outputs still read.
    const WINDOW: u32 = 256;

    fn value() -> impl Strategy<Value = i16> {
        prop_oneof![
            Just(i16::MIN),
            Just(i16::MAX),
            Just(-1i16),
            Just(0i16),
            any::<i16>(),
            -300i16..300,
        ]
    }

    /// Memory whose first LEA-RAM bytes hold `words`; SRAM and FRAM carry a
    /// marker so a stray write outside LEA-RAM would show.
    fn seeded(words: &[i16]) -> Memory {
        let mut m = Memory::new();
        write_scalars(&mut m, Addr::new(Region::LeaRam, 0), words);
        m.write_bytes(Addr::new(Region::Fram, 0), &[0xA5; 8]);
        m.write_bytes(Addr::new(Region::Sram, 0), &[0x5A; 8]);
        m.snapshot();
        m
    }

    fn same_state(a: &Memory, b: &Memory) -> Result<(), TestCaseError> {
        for region in [Region::Fram, Region::Sram, Region::LeaRam] {
            let (all, size) = (Addr::new(region, 0), region.size() as u32);
            prop_assert!(
                a.read_bytes(all, size) == b.read_bytes(all, size),
                "{region:?} bytes differ"
            );
            prop_assert_eq!(
                a.dirty_pages(region),
                b.dirty_pages(region),
                "{region:?} dirty pages"
            );
        }
        Ok(())
    }

    fn lea(offset: u32) -> Addr {
        Addr::new(Region::LeaRam, offset)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_fir_matches_oracle(
            words in proptest::collection::vec(value(), 256..257),
            (x, h, y) in (0..WINDOW, 0..WINDOW, 0..WINDOW),
            (n_out, taps, alias) in (0u32..24, 0u32..12, 0u32..4),
        ) {
            // alias 1..3: the output coincides with the input, the
            // coefficients, or sits one word past the input.
            let y = match alias { 1 => x, 2 => h, 3 => x + 2, _ => y };
            let mut want = seeded(&words);
            oracle::fir(&mut want, lea(x), lea(h), lea(y), n_out, taps);
            let mut got = seeded(&words);
            prop_assert_eq!(fir(&mut got, lea(x), lea(h), lea(y), n_out, taps), fir_macs(n_out, taps));
            same_state(&got, &want)?;
        }

        #[test]
        fn block_conv2d_matches_oracle(
            words in proptest::collection::vec(value(), 256..257),
            (input, kernel, out) in (0..WINDOW, 0..WINDOW, 0..WINDOW),
            (w, h, kw, kh, alias) in (1u32..9, 1u32..9, 0u32..5, 0u32..5, 0u32..3),
        ) {
            let (kw, kh) = (kw.min(w), kh.min(h));
            let out = match alias { 1 => input, 2 => kernel, _ => out };
            let mut want = seeded(&words);
            oracle::conv2d(&mut want, lea(input), w, h, lea(kernel), kw, kh, lea(out));
            let mut got = seeded(&words);
            let macs = conv2d(&mut got, lea(input), w, h, lea(kernel), kw, kh, lea(out));
            prop_assert_eq!(macs, conv2d_macs(w, h, kw, kh));
            same_state(&got, &want)?;
        }

        #[test]
        fn block_fully_connected_matches_oracle(
            words in proptest::collection::vec(value(), 256..257),
            (x, weights, out) in (0..WINDOW, 0..WINDOW, 0..WINDOW),
            (n_in, n_out, alias) in (0u32..12, 0u32..8, 0u32..4),
        ) {
            // alias 1: `out == x`, where output j overwrites input j that
            // every later output still reads.
            let out = match alias { 1 => x, 2 => weights, 3 => x + 1, _ => out };
            let mut want = seeded(&words);
            oracle::fully_connected(&mut want, lea(x), n_in, lea(weights), lea(out), n_out);
            let mut got = seeded(&words);
            fully_connected(&mut got, lea(x), n_in, lea(weights), lea(out), n_out);
            same_state(&got, &want)?;
        }

        #[test]
        fn block_relu_and_argmax_match_oracle(
            words in proptest::collection::vec(value(), 256..257),
            (buf, n) in (0..WINDOW, 0u32..64),
        ) {
            let mut want = seeded(&words);
            let mut got = seeded(&words);
            if n > 0 {
                prop_assert_eq!(argmax(&got, lea(buf), n).0, oracle::argmax(&want, lea(buf), n));
            }
            oracle::relu(&mut want, lea(buf), n);
            relu(&mut got, lea(buf), n);
            same_state(&got, &want)?;
        }
    }

    #[test]
    fn cost_linear_in_macs() {
        let t = CostTable::default();
        let a = lea_cost(&t, 100);
        let b = lea_cost(&t, 200);
        assert_eq!(b.time_us - a.time_us, t.lea_mac.time_us * 100);
    }
}
