//! Property tests for the simulator substrate (RNG and byte buffers),
//! using the in-tree harness.

use psgraph_harness::prop::{check, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_sim::{BufMut, Corrupt, Reader, SplitMix64};

#[test]
fn next_below_respects_bound() {
    check(
        "next_below_respects_bound",
        |src: &mut Source| (src.any_u64(), src.u64_range(1, 1 << 40)),
        |&(seed, bound)| {
            let mut rng = SplitMix64::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.next_below(bound) < bound);
            }
            Ok(())
        },
    );
}

#[test]
fn forked_streams_are_independent_and_reproducible() {
    check(
        "forked_streams_are_independent_and_reproducible",
        |src: &mut Source| (src.any_u64(), src.u64_range(0, 1000), src.u64_range(1000, 2000)),
        |&(seed, a, b)| {
            let mut r1 = SplitMix64::new(seed);
            let mut r2 = SplitMix64::new(seed);
            let mut fa = r1.fork(a);
            let mut fa2 = r2.fork(a);
            // Same stream id ⇒ identical sequence.
            for _ in 0..20 {
                prop_assert_eq!(fa.next(), fa2.next());
            }
            // Different stream ids ⇒ sequences diverge somewhere early.
            let mut r3 = SplitMix64::new(seed);
            let mut r4 = SplitMix64::new(seed);
            let mut sa = r3.fork(a);
            let mut sb = r4.fork(b);
            prop_assert!(
                (0..20).any(|_| sa.next() != sb.next()),
                "streams {} and {} never diverged",
                a,
                b
            );
            Ok(())
        },
    );
}

#[test]
fn shuffle_is_a_permutation() {
    check(
        "shuffle_is_a_permutation",
        |src: &mut Source| (src.any_u64(), src.usize_range(0, 200)),
        |&(seed, n)| {
            let mut items: Vec<usize> = (0..n).collect();
            SplitMix64::new(seed).shuffle(&mut items);
            let mut sorted = items.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            Ok(())
        },
    );
}

#[test]
fn byte_buffer_roundtrips_typed_values() {
    check(
        "byte_buffer_roundtrips_typed_values",
        |src: &mut Source| {
            src.vec_with(0, 40, |s| {
                // A random typed value: tag picks the codec.
                match s.choice(4) {
                    0 => (0u8, s.u64_range(0, 256)),
                    1 => (1u8, s.u64_range(0, 1 << 32)),
                    2 => (2u8, s.any_u64()),
                    _ => (3u8, s.any_u64()), // raw bits reinterpreted as f64
                }
            })
        },
        |values| {
            let mut buf: Vec<u8> = Vec::new();
            for &(tag, v) in values {
                match tag {
                    0 => buf.put_u8(v as u8),
                    1 => buf.put_u32_le(v as u32),
                    2 => buf.put_u64_le(v),
                    _ => buf.put_f64_le(f64::from_bits(v)),
                }
            }
            let back = Reader::decode(&buf, "values", |rd| {
                values
                    .iter()
                    .map(|&(tag, _)| match tag {
                        0 => rd.get::<u8>().map(u64::from),
                        1 => rd.get::<u32>().map(u64::from),
                        2 => rd.get::<u64>(),
                        _ => rd.get::<f64>().map(f64::to_bits),
                    })
                    .collect::<Result<Vec<_>, Corrupt>>()
            });
            let want = values.iter().map(|&(tag, v)| match tag {
                0 => v as u8 as u64,
                1 => v as u32 as u64,
                _ => v,
            });
            prop_assert_eq!(back, Ok(want.collect::<Vec<_>>()));
            Ok(())
        },
    );
}
