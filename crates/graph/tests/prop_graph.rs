//! Property tests for graph containers and generators, using the in-tree
//! harness.

use psgraph_graph::metrics::{
    anchored_run_ops, h_index, intersection_ops, sorted_intersection_count, Anchor,
};
use psgraph_graph::{gen, EdgeList};
use psgraph_harness::prop::{check, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};

fn arb_graph(src: &mut Source) -> EdgeList {
    let n = src.u64_range(1, 80);
    let edges = src.vec_with(0, 300, |s| (s.u64_range(0, n), s.u64_range(0, n)));
    EdgeList::new(n, edges)
}

#[test]
fn dedup_is_idempotent_and_duplicate_free() {
    check("dedup_is_idempotent_and_duplicate_free", arb_graph, |g| {
        let d = g.dedup();
        prop_assert_eq!(d.num_vertices(), g.num_vertices());
        let mut seen = std::collections::HashSet::new();
        for &e in d.edges() {
            prop_assert!(seen.insert(e), "duplicate edge {:?}", e);
            prop_assert!(g.edges().contains(&e), "invented edge {:?}", e);
        }
        let dd = d.dedup();
        prop_assert_eq!(dd.edges(), d.edges());
        Ok(())
    });
}

#[test]
fn undirected_view_is_symmetric() {
    check("undirected_view_is_symmetric", arb_graph, |g| {
        let und = g.undirected();
        let set: std::collections::HashSet<(u64, u64)> = und.edges().iter().copied().collect();
        for &(s, d) in und.edges() {
            prop_assert!(set.contains(&(d, s)), "missing reverse of ({}, {})", s, d);
        }
        for &(s, d) in g.edges() {
            if s != d {
                prop_assert!(set.contains(&(s, d)), "dropped edge ({}, {})", s, d);
            }
        }
        Ok(())
    });
}

#[test]
fn generators_stay_in_vertex_range() {
    check(
        "generators_stay_in_vertex_range",
        |src: &mut Source| {
            (src.u64_range(2, 512), src.usize_range(0, 2000), src.any_u64(), src.bool())
        },
        |&(n, m, seed, use_rmat)| {
            let g = if use_rmat {
                gen::rmat(n.next_power_of_two(), m, Default::default(), seed)
            } else {
                gen::erdos_renyi(n, m, seed)
            };
            prop_assert!(g.edges().len() <= m, "{} edges for request {}", g.edges().len(), m);
            for &(s, d) in g.edges() {
                prop_assert!(s < g.num_vertices() && d < g.num_vertices());
            }
            Ok(())
        },
    );
}

#[test]
fn out_degrees_sum_to_edge_count() {
    check("out_degrees_sum_to_edge_count", arb_graph, |g| {
        let total: u64 = g.out_degrees().iter().sum();
        prop_assert_eq!(total as usize, g.edges().len());
        // Neighbor tables dedup within each list, so they hold one entry
        // per *distinct* (src, dst) pair (self-loops included).
        let distinct: std::collections::HashSet<(u64, u64)> =
            g.edges().iter().copied().collect();
        let tables = g.neighbor_tables();
        let table_total: usize = tables.values().map(Vec::len).sum();
        prop_assert_eq!(table_total, distinct.len());
        Ok(())
    });
}

/// `len` strictly ascending ids with random gaps of up to `max_gap`.
fn arb_sorted_unique(src: &mut Source, len: usize, max_gap: u64) -> Vec<u64> {
    let mut next = 0u64;
    (0..len)
        .map(|_| {
            next += src.u64_range(1, max_gap + 1);
            next
        })
        .collect()
}

/// `|a ∩ b|` by the obvious route: a `HashSet` of one list, probed with
/// the other.
fn reference_intersection(a: &[u64], b: &[u64]) -> u64 {
    let set: std::collections::HashSet<u64> = b.iter().copied().collect();
    a.iter().filter(|v| set.contains(v)).count() as u64
}

/// Both argument orders against the reference count: the one-pair form,
/// and `anchor` loaded with either list (so the anchor is the long side
/// once and the short side once). `anchor` is carried over from earlier
/// calls and must be all-zero after each.
fn intersection_matches_reference(a: &[u64], b: &[u64], anchor: &mut Anchor) -> Result<(), String> {
    let want = reference_intersection(a, b);
    for (x, y) in [(a, b), (b, a)] {
        prop_assert_eq!(sorted_intersection_count(x, y, anchor), want, "{:?} ∩ {:?}", x, y);
        prop_assert!(anchor.is_clear(), "bitmap left dirty by {:?} ∩ {:?}", x, y);
        prop_assert_eq!(anchor.load(x).count(y), want, "anchor {:?} ∩ {:?}", x, y);
        prop_assert!(anchor.is_clear(), "anchor {:?} left dirty", x);
    }
    Ok(())
}

/// A short list against a long one at a length ratio of 1 … 10 000.
fn arb_short_and_long(src: &mut Source) -> (Vec<u64>, Vec<u64>) {
    // Ratios 1:1 … 1:10 000: from lists of like length to a hub against a
    // few ids.
    let ratio = [1usize, 2, 5, 7, 8, 9, 16, 100, 1_000, 10_000][src.choice(10) as usize];
    let short_len = src.usize_range(0, 2.max(4_000 / ratio));
    let long = arb_sorted_unique(src, short_len.max(1) * ratio, 3);
    // The long list's mean gap is 2, so a mean gap of 2·ratio spans the
    // same id range; draw from a quarter to twice that, so the short list
    // may end early or run past the long one's last id (either anchor's
    // `≤ last` cut).
    let max_gap = ratio as u64 * src.u64_range(1, 9);
    (arb_sorted_unique(src, short_len, max_gap), long)
}

#[test]
fn sorted_intersection_matches_hash_set_at_every_length_ratio() {
    // One anchor across all cases, as an executor keeps it across rounds.
    let anchor = std::cell::RefCell::new(Anchor::default());
    check(
        "sorted_intersection_matches_hash_set_at_every_length_ratio",
        arb_short_and_long,
        |(short, long)| intersection_matches_reference(short, long, &mut anchor.borrow_mut()),
    );
}

#[test]
fn one_anchor_counts_many_partners_and_unloads_clean() {
    check(
        "one_anchor_counts_many_partners_and_unloads_clean",
        |src: &mut Source| {
            let hub_len = src.usize_range(0, 3_000);
            let hub = arb_sorted_unique(src, hub_len, 3);
            let partners: Vec<Vec<u64>> =
                (0..50).map(|_| arb_short_and_long(src).0).collect();
            (hub, partners)
        },
        |(hub, partners)| {
            let mut anchor = Anchor::default();
            let anchored = anchor.load(hub);
            for p in partners {
                prop_assert_eq!(anchored.count(p), reference_intersection(hub, p), "{:?}", p);
            }
            drop(anchored);
            prop_assert!(anchor.is_clear(), "bitmap left dirty after 50 partners");
            Ok(())
        },
    );
}

#[test]
fn a_run_is_charged_the_cheaper_walk_and_never_more_than_its_pairs() {
    check(
        "a_run_is_charged_the_cheaper_walk_and_never_more_than_its_pairs",
        |src: &mut Source| {
            // Lengths from empty to far past the key's, so both walks win.
            let key = if src.bool() { 0 } else { src.usize_range(0, 5_000) };
            let partners = src.vec_with(1, 40, |s| s.usize_range(0, 6_000));
            let swaps = src.vec_with(0, 40, |s| (s.usize_range(0, 40), s.usize_range(0, 40)));
            (key, partners, swaps)
        },
        |(key, partners, swaps)| {
            let key = *key;
            let ops = anchored_run_ops(key, partners.iter().copied());
            let alone: u64 = partners.iter().map(|&s| intersection_ops(key, s)).sum();
            let walk = (key + partners.iter().sum::<usize>()) as u64;
            prop_assert!(ops <= alone && ops <= walk, "{} > {} or {}", ops, alone, walk);
            if key == 0 {
                prop_assert_eq!(ops, 0);
            }
            let first = partners[0];
            prop_assert_eq!(anchored_run_ops(key, [first]), intersection_ops(key, first));
            // Any order of the partners.
            let mut reordered = partners.clone();
            for &(i, j) in swaps {
                reordered.swap(i % partners.len(), j % partners.len());
            }
            prop_assert_eq!(anchored_run_ops(key, reordered), ops);
            // Each prefix is charged no more than the next.
            let mut previous = 0;
            for r in 0..=partners.len() {
                let prefix = anchored_run_ops(key, partners[..r].iter().copied());
                prop_assert!(prefix >= previous, "{} partners: {} < {}", r, prefix, previous);
                previous = prefix;
            }
            Ok(())
        },
    );
}

#[test]
fn sorted_intersection_edge_cases() {
    let long: Vec<u64> = (0..100).map(|i| i * 2).collect();
    let odd: Vec<u64> = (0..100).map(|i| i * 2 + 1).collect();
    let edges = [0u64, 63, 64, 127, 128];
    let anchor = &mut Anchor::default();
    for (a, b, want) in [
        (&[][..], &[][..], 0u64),
        (&[], &long[..], 0),
        (&[], &[5][..], 0),
        (&long[..], &long[..], 100),
        (&long[..], &odd[..], 0),
        (&[198], &long[..], 1),
        (&[0], &long[..], 1),
        (&[199], &long[..], 0),
        (&[7], &[7], 1),
        (&[7], &[8], 0),
        (&[0, 198], &long[..], 2),
        // Last elements in each order: <, =, >.
        (&[1, 2, 3], &[2, 3, 9], 2),
        (&[1, 2, 9], &[2, 3, 9], 2),
        (&[1, 2, 10], &[2, 3, 9], 1),
        // Ids at the bitmap's word edges.
        (&edges[..], &edges[..], 5),
        (&edges[..], &[63, 64, 65][..], 2),
        (&[0, 127][..], &edges[..], 2),
        (&[128][..], &[64, 128][..], 1),
        (&[62, 65, 126, 129][..], &edges[..], 0),
        (&edges[..], &long[..], 3),
        (&[63, 64, 500][..], &long[..], 1),
    ] {
        assert_eq!(sorted_intersection_count(a, b, anchor), want, "{a:?} ∩ {b:?}");
        intersection_matches_reference(a, b, anchor).unwrap();
    }
}

/// The definition `metrics::h_index` replaced: sort descending, take the
/// last 1-based position whose value still reaches it.
fn sorted_h_index(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted.iter().zip(1u64..).take_while(|&(&v, i)| v >= i).count() as u64
}

#[test]
fn h_index_matches_the_sort_based_definition() {
    // One scratch across all cases: a longer multiset's counts must not
    // leak into a shorter one's.
    let scratch = std::cell::RefCell::new(Vec::new());
    check(
        "h_index_matches_the_sort_based_definition",
        |src: &mut Source| {
            // Value ranges around the length (where the answer is decided),
            // far above it (every value clips), all zeros, all equal.
            let len = src.usize_range(0, 200);
            let len64 = len as u64;
            let hi = [1, 2, len64 + 1, 2 * len64 + 2, 1 << 62][src.choice(5) as usize];
            let all_equal = src.choice(4) == 0;
            let first = src.u64_range(0, hi);
            let draws = (0..len).map(|_| if all_equal { first } else { src.u64_range(0, hi) });
            draws.collect::<Vec<u64>>()
        },
        |values| {
            prop_assert_eq!(h_index(values, &mut scratch.borrow_mut()), sorted_h_index(values));
            Ok(())
        },
    );
}
