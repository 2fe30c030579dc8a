//! Properties of `PhasePool::run_chunks`, the one loop behind every
//! pooled executor and the sharded engine: each selected item is handed
//! out exactly once, dispatch counts follow the chunk-count formula of
//! each mechanism, and a panicking item is reported without wedging the
//! pool.

use gdisim_ports::{panic_message, Executor, PhasePool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A strictly ascending subset of `0..len`, keeping about `percent`% of
/// the indices, drawn from `seed`.
fn subset(len: usize, percent: u64, seed: u64) -> Vec<u32> {
    (0..len as u32)
        .filter(|&i| {
            let mut z = seed ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 29)) % 100 < percent
        })
        .collect()
}

/// Items carry their own index and a touch count.
fn numbered(len: usize) -> Vec<(usize, u32)> {
    (0..len).map(|i| (i, 0)).collect()
}

/// Asserts that exactly the `selected` items (all when `None`) were
/// touched, once each.
fn assert_touched_once(items: &[(usize, u32)], selected: Option<&[u32]>) {
    let mut expected = vec![0u32; items.len()];
    match selected {
        Some(ix) => ix.iter().for_each(|&i| expected[i as usize] = 1),
        None => expected.fill(1),
    }
    for (i, (&(own, touched), want)) in items.iter().zip(&expected).enumerate() {
        assert_eq!(own, i, "item {i} moved");
        assert_eq!(touched, *want, "item {i} touched {touched} times");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_selected_item_is_touched_exactly_once(
        len in 0usize..2001,
        threads in 1usize..5,
        chunk in 1usize..300,
        indexed in 0u8..2,
        percent in 0u64..101,
        seed in 0u64..u64::MAX,
    ) {
        let pool = PhasePool::new(threads);
        let selection = subset(len, percent, seed);
        let indices = (indexed == 1).then_some(selection.as_slice());
        // Two phases on one pool: the second proves it is reusable.
        for _ in 0..2 {
            let mut items = numbered(len);
            let ran = pool.run_chunks(&mut items, indices, chunk, |i, item| {
                assert_eq!(item.0, i, "item handed to the wrong index");
                item.1 += 1;
            });
            prop_assert!(ran.is_ok());
            assert_touched_once(&items, indices);
        }
    }

    #[test]
    fn executor_items_follow_the_chunk_count_formula(
        len in 0usize..2001,
        threads in 1usize..5,
        agent_set in 1usize..200,
        percent in 0u64..101,
        seed in 0u64..u64::MAX,
    ) {
        let indices = subset(len, percent, seed);
        let n = indices.len();
        let sg_range = (n / (threads * 4)).max(16);
        for (ex, full, indexed) in [
            (Executor::scatter_gather(threads), len, n.div_ceil(sg_range)),
            (
                Executor::hdispatch(threads, agent_set),
                len.div_ceil(agent_set),
                n.div_ceil(agent_set),
            ),
        ] {
            let mut agents = numbered(len);
            ex.run_phase(&mut agents, |a| a.1 += 1);
            assert_touched_once(&agents, None);
            let mut agents = numbered(len);
            ex.run_phase_indexed(&mut agents, &indices, |a| a.1 += 1);
            assert_touched_once(&agents, Some(&indices));
            let stats = ex.stats().expect("pooled executor has stats");
            prop_assert_eq!(stats.phases, 2);
            prop_assert_eq!(stats.items, (full + indexed) as u64, "{}", ex.name());
        }
    }

    #[test]
    fn a_panicking_item_is_reported_and_the_rest_still_run(
        len in 1usize..2001,
        threads in 1usize..5,
        chunk in 1usize..300,
        indexed in 0u8..2,
        percent in 1u64..101,
        seed in 0u64..u64::MAX,
        pick in 0usize..usize::MAX,
    ) {
        let pool = PhasePool::new(threads);
        let selection = subset(len, percent, seed);
        prop_assume!(!selection.is_empty());
        let indices = (indexed == 1).then_some(selection.as_slice());
        let victim = match indices {
            Some(ix) => ix[pick % ix.len()] as usize,
            None => pick % len,
        };
        let mut items = numbered(len);
        let err = pool
            .run_chunks(&mut items, indices, chunk, |i, item| {
                if i == victim {
                    panic!("item {i} exploded");
                }
                item.1 += 1;
            })
            .expect_err("the panic must surface");
        prop_assert_eq!(err.unit, victim);
        prop_assert_eq!(
            panic_message(err.payload.as_ref()),
            format!("item {victim} exploded")
        );
        items[victim].1 = 1;
        assert_touched_once(&items, indices);

        // The same panic through the plain unit runner.
        let units = len.div_ceil(chunk);
        let ran = AtomicUsize::new(0);
        let err = pool
            .run_caught(units, &|u| {
                if u == victim % units {
                    panic!("unit exploded");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("the panic must surface");
        prop_assert_eq!(err.unit, victim % units);
        prop_assert_eq!(ran.load(Ordering::Relaxed), units - 1);

        // The pool survives for the next phase.
        let mut items = numbered(len);
        prop_assert!(pool.run_chunks(&mut items, None, chunk, |_, item| item.1 += 1).is_ok());
        assert_touched_once(&items, None);
    }
}
