//! Prefix caching: ref-counted shared KV blocks with copy-on-write and
//! LRU eviction — vLLM-style automatic prefix caching for the serving
//! engine.
//!
//! Production traffic is dominated by requests sharing long system
//! prompts. Without sharing, every request pays the full prefill compute
//! and pins a private copy of the prompt's KV. [`PrefixCache`] stores each
//! common prefix **once**: the prefix is cut into fixed-size token blocks,
//! each block is named by a deterministic hash chained through its
//! ancestors (so equal hashes imply equal *positions within equal
//! prefixes*, and the cache is a radix tree over block hashes), and
//! resident blocks carry a reference count of the sequences using them.
//!
//! Three mechanisms follow:
//!
//! * **Sharing** — a request whose prefix chain is (partially) resident
//!   skips the covered prefill tokens and charges only its private KV
//!   against capacity; the shared blocks are charged once, globally.
//! * **Copy-on-write** — a partially-filled tail block cannot be extended
//!   in place by any one sequence without corrupting the others, so a
//!   sequence that appends past a *shared* tail block takes a private
//!   copy first (counted per admission as
//!   [`ServingReport::prefix_cow_copies`](super::report::ServingReport::prefix_cow_copies)).
//! * **LRU eviction** — completed sequences release their references but
//!   leave the blocks resident; unreferenced blocks are reclaimed
//!   leaf-first in least-recently-used order only when admission needs
//!   the capacity back.
//!
//! The cache is deliberately a standalone structure (like
//! [`PagedKvAllocator`](super::kv::PagedKvAllocator)) so its invariants —
//! refcounts never underflow, resident blocks never exceed what `insert`
//! put there, eviction only touches unreferenced leaves, releasing every
//! holder drains refcounts to zero — are independently proptestable.

use crate::error::OptimusError;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Reclamation order for unreferenced cache blocks.
///
/// `Lru` is the classic recency order. `Lfu` weights recency by
/// popularity: blocks of a frequently-reacquired chain (the head of a
/// Zipf request distribution) are reclaimed last, so the hot system
/// prompt never falls out of a pressured cache. Both orders are pure
/// integer bookkeeping and never touch the audited float stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CacheEviction {
    /// Least-recently-used first (the PR 5 behaviour; bit-identical).
    #[default]
    Lru,
    /// Least-frequently-used first, recency as the tiebreak.
    Lfu,
}

/// Engine-facing prefix-caching configuration (off by default; enable via
/// [`Scenario::prefix_caching`](super::scenario::Scenario::prefix_caching)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCachingConfig {
    /// Tokens per shared KV block (the sharing granularity; vLLM defaults
    /// to 16). Independent of the [`KvLayout`](super::kv::KvLayout) used
    /// for private KV accounting.
    pub block_tokens: u32,
    /// Reclamation order for unreferenced blocks (defaults to LRU, which
    /// reproduces the pre-coordination behaviour bit for bit).
    #[serde(default)]
    pub eviction: CacheEviction,
}

impl PrefixCachingConfig {
    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if self.block_tokens == 0 {
            return Err(OptimusError::Serving {
                reason: "prefix caching needs block_tokens ≥ 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// The shared-prefix tag a request may carry: which system prompt its
/// first `tokens` prompt tokens are, identified by a stable id. Two
/// requests with the same id share identical leading tokens (the trace
/// generator guarantees equal lengths per id; recorded traces must too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedPrefix {
    /// Stable identity of the shared prefix (e.g. a hash of the system
    /// prompt text).
    pub id: u64,
    /// Length of the shared prefix (tokens); must be ≥ 1 and ≤ the
    /// request's `prompt_tokens`.
    pub tokens: u32,
}

/// splitmix64 finalizer: the deterministic mixer block hashes chain
/// through. Good avalanche, no allocation, stable across platforms.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One block of a prefix chain: its position-chained hash and the tokens
/// it actually holds (`block_tokens` for full blocks, the remainder for a
/// partial tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixBlock {
    /// Chained block hash (names the block in the cache's radix index).
    pub hash: u64,
    /// Tokens cached in this block.
    pub tokens: u32,
}

impl SharedPrefix {
    /// Full blocks of the prefix at `block_tokens` granularity — the
    /// sharable span. Tokens past the last full block live in a partial
    /// tail block that divergent continuations copy-on-write.
    #[must_use]
    pub fn shared_tokens(&self, block_tokens: u32) -> u32 {
        (self.tokens / block_tokens) * block_tokens
    }

    /// The prefix as a chain of hashed blocks: one node per full block
    /// plus, when the length is not block-aligned, a final partial tail
    /// node. Each hash chains through its parent's, so chains for
    /// different prefixes (or different depths) never alias.
    #[must_use]
    pub fn block_chain(&self, block_tokens: u32) -> Vec<PrefixBlock> {
        let full = (self.tokens / block_tokens) as usize;
        let tail = self.tokens % block_tokens;
        let mut chain = Vec::with_capacity(full + usize::from(tail > 0));
        let mut h = mix(self.id ^ 0xa076_1d64_78bd_642f);
        for i in 0..full {
            h = mix(h ^ (i as u64 + 1));
            chain.push(PrefixBlock {
                hash: h,
                tokens: block_tokens,
            });
        }
        if tail > 0 {
            h = mix(h ^ (full as u64 + 1) ^ (u64::from(tail) << 32));
            chain.push(PrefixBlock {
                hash: h,
                tokens: tail,
            });
        }
        chain
    }
}

/// Pass-through [`Hasher`] for block hashes: they are already
/// splitmix-mixed, so hashing them again would only cost time. A trace
/// could still pick prefix ids whose chains collide in the table; that
/// only slows its own replay and cannot change a result.
#[derive(Debug, Clone, Copy, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher; fold anything else in so the
        // impl stays total.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// One resident block of the cache's radix index.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent block hash (`None` for a chain's first block).
    parent: Option<u64>,
    /// Resident children (a block is only evictable as a leaf).
    children: u32,
    /// Sequences currently holding a reference.
    refcount: u32,
    /// Tokens cached in this block.
    tokens: u32,
    /// Logical LRU stamp of the last acquire/insert touch.
    last_use: u64,
    /// Times this block was reacquired while resident (the popularity
    /// signal [`CacheEviction::Lfu`] orders reclamation by).
    hits: u64,
}

/// Position of an unreferenced leaf in the reclamation order. The last
/// element is always the block hash, so eviction can recover the victim
/// regardless of mode.
fn free_key(eviction: CacheEviction, node: &Node, hash: u64) -> (u64, u64, u64) {
    match eviction {
        CacheEviction::Lru => (node.last_use, 0, hash),
        CacheEviction::Lfu => (node.hits, node.last_use, hash),
    }
}

/// Ref-counted shared-block cache: a radix tree over chained block
/// hashes with LRU reclamation of unreferenced blocks.
///
/// The engine holds one per blade (KV is per-blade memory); the
/// standalone API is the proptest surface. All bookkeeping is integer,
/// so cache decisions never perturb the engine's audited float stream.
#[derive(Debug, Clone, Default)]
pub struct PrefixCache {
    /// Resident blocks by chained hash. Never iterated, so its order
    /// cannot reach a result; reclamation order lives in `free`.
    nodes: HashMap<u64, Node, BuildHasherDefault<BlockHasher>>,
    /// Unreferenced leaves in reclamation order (see [`free_key`]): the
    /// next victim is always `free.first()`.
    free: BTreeSet<(u64, u64, u64)>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Tokens actually cached across resident blocks.
    resident_tokens: u64,
    /// Reclamation order (LRU by default).
    eviction: CacheEviction,
}

impl PrefixCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given reclamation order.
    #[must_use]
    pub fn with_eviction(eviction: CacheEviction) -> Self {
        Self {
            eviction,
            ..Self::default()
        }
    }

    /// Resident blocks (referenced or LRU-reclaimable).
    #[must_use]
    pub fn resident_blocks(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Tokens actually cached across resident blocks (a partial tail
    /// block counts its real token count, not the block size).
    #[must_use]
    pub fn resident_tokens(&self) -> u64 {
        self.resident_tokens
    }

    /// Capacity charged by resident blocks at `block_tokens` granularity:
    /// every resident block pins a whole block of KV memory.
    #[must_use]
    pub fn charged_tokens(&self, block_tokens: u32) -> u64 {
        self.resident_blocks() * u64::from(block_tokens)
    }

    /// Blocks currently reclaimable (resident, unreferenced leaves).
    #[must_use]
    pub fn reclaimable_blocks(&self) -> u64 {
        self.free.len() as u64
    }

    /// Leading blocks of `chain` that are resident, without touching
    /// refcounts or LRU order — the admission-planning probe.
    #[must_use]
    pub fn peek(&self, chain: &[PrefixBlock]) -> usize {
        chain
            .iter()
            .take_while(|b| self.nodes.contains_key(&b.hash))
            .count()
    }

    /// Takes a reference on every resident leading block of `chain` and
    /// returns how many blocks hit. Hit blocks are pinned (never evicted)
    /// until [`Self::release`]d; the caller typically [`Self::insert`]s
    /// the missing suffix next.
    pub fn acquire(&mut self, chain: &[PrefixBlock]) -> usize {
        let hits = self.peek(chain);
        for b in &chain[..hits] {
            self.tick += 1;
            let eviction = self.eviction;
            let node = self.nodes.get_mut(&b.hash).expect("hit block resident");
            if node.refcount == 0 && node.children == 0 {
                // The block stops being an evictable leaf.
                let key = free_key(eviction, node, b.hash);
                self.free.remove(&key);
            }
            node.last_use = self.tick;
            node.refcount += 1;
            node.hits += 1;
        }
        hits
    }

    /// Inserts `chain[from..]` as resident blocks referenced once by the
    /// caller (who must already hold references on `chain[..from]`, i.e.
    /// `from` is an [`Self::acquire`] result for this chain).
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] if `chain[from]`'s parent is not
    /// resident (the chain property would break) or a block to insert is
    /// already resident (double insert).
    pub fn insert(&mut self, chain: &[PrefixBlock], from: usize) -> Result<(), OptimusError> {
        for (i, b) in chain.iter().enumerate().skip(from) {
            let parent = if i == 0 {
                None
            } else {
                Some(chain[i - 1].hash)
            };
            if self.nodes.contains_key(&b.hash) {
                return Err(OptimusError::Serving {
                    reason: format!("prefix block {:#018x} is already resident", b.hash),
                });
            }
            if let Some(p) = parent {
                let eviction = self.eviction;
                let Some(pn) = self.nodes.get_mut(&p) else {
                    return Err(OptimusError::Serving {
                        reason: format!(
                            "prefix block {:#018x} inserted before its parent {p:#018x}",
                            b.hash
                        ),
                    });
                };
                if pn.refcount == 0 && pn.children == 0 {
                    // The parent stops being an evictable leaf.
                    let key = free_key(eviction, pn, p);
                    self.free.remove(&key);
                }
                pn.children += 1;
            }
            self.tick += 1;
            self.nodes.insert(
                b.hash,
                Node {
                    parent,
                    children: 0,
                    refcount: 1,
                    tokens: b.tokens,
                    last_use: self.tick,
                    hits: 0,
                },
            );
            self.resident_tokens += u64::from(b.tokens);
        }
        Ok(())
    }

    /// Releases one reference on each of `chain[..count]` (the blocks a
    /// sequence acquired or inserted). Blocks stay resident; those that
    /// drop to zero references become LRU-reclaimable leaves.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a block that is not resident
    /// or already unreferenced (refcount underflow) — the state is left
    /// untouched in that case.
    pub fn release(&mut self, chain: &[PrefixBlock], count: usize) -> Result<(), OptimusError> {
        let blocks = &chain[..count];
        for b in blocks {
            match self.nodes.get(&b.hash) {
                None => {
                    return Err(OptimusError::Serving {
                        reason: format!("released prefix block {:#018x} is not resident", b.hash),
                    })
                }
                Some(node) if node.refcount == 0 => {
                    return Err(OptimusError::Serving {
                        reason: format!("prefix block {:#018x} refcount would underflow", b.hash),
                    })
                }
                Some(_) => {}
            }
        }
        for b in blocks {
            let eviction = self.eviction;
            let node = self.nodes.get_mut(&b.hash).expect("checked resident");
            node.refcount -= 1;
            if node.refcount == 0 && node.children == 0 {
                let key = free_key(eviction, node, b.hash);
                self.free.insert(key);
            }
        }
        Ok(())
    }

    /// Reclaims the first unreferenced leaf block in the configured
    /// reclamation order (LRU by default, LFU under
    /// [`CacheEviction::Lfu`]), if any, returning the tokens it cached.
    /// Its parent may become reclaimable in turn, so repeated calls peel
    /// a dead chain back to front.
    pub fn evict_lru(&mut self) -> Option<u32> {
        let &key = self.free.first()?;
        self.free.remove(&key);
        let hash = key.2;
        let node = self.nodes.remove(&hash).expect("free block resident");
        debug_assert_eq!(node.refcount, 0);
        debug_assert_eq!(node.children, 0);
        self.resident_tokens -= u64::from(node.tokens);
        if let Some(p) = node.parent {
            let eviction = self.eviction;
            let pn = self.nodes.get_mut(&p).expect("parent resident");
            pn.children -= 1;
            if pn.refcount == 0 && pn.children == 0 {
                let parent_key = free_key(eviction, pn, p);
                self.free.insert(parent_key);
            }
        }
        Some(node.tokens)
    }

    /// Reclaims LRU blocks until the cache charges at most
    /// `budget_tokens` at `block_tokens` granularity (or nothing more is
    /// reclaimable). Returns the number of blocks evicted.
    pub fn evict_to_budget(&mut self, block_tokens: u32, budget_tokens: u64) -> u64 {
        let mut evicted = 0;
        while self.charged_tokens(block_tokens) > budget_tokens && self.evict_lru().is_some() {
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(id: u64, tokens: u32, block: u32) -> Vec<PrefixBlock> {
        SharedPrefix { id, tokens }.block_chain(block)
    }

    #[test]
    fn block_chain_shape_and_determinism() {
        let p = SharedPrefix { id: 7, tokens: 40 };
        let c = p.block_chain(16);
        assert_eq!(c.len(), 3, "two full blocks + one tail");
        assert_eq!(c[0].tokens, 16);
        assert_eq!(c[1].tokens, 16);
        assert_eq!(c[2].tokens, 8);
        assert_eq!(p.shared_tokens(16), 32);
        assert_eq!(c, p.block_chain(16), "chains are pure functions");
        // Distinct ids and distinct depths never alias.
        let other = chain(8, 40, 16);
        assert!(c.iter().all(|b| other.iter().all(|o| o.hash != b.hash)));
        let aligned = SharedPrefix { id: 7, tokens: 32 }.block_chain(16);
        assert_eq!(aligned.len(), 2);
        assert_eq!(&c[..2], &aligned[..], "shared ancestry has equal hashes");
    }

    #[test]
    fn acquire_insert_release_lifecycle() {
        let mut cache = PrefixCache::new();
        let c = chain(1, 40, 16); // 3 blocks (16+16+8 tokens)
        assert_eq!(cache.peek(&c), 0);
        let hits = cache.acquire(&c);
        assert_eq!(hits, 0, "cold cache misses");
        cache.insert(&c, hits).unwrap();
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(cache.resident_tokens(), 40);
        assert_eq!(cache.charged_tokens(16), 48);
        assert_eq!(cache.reclaimable_blocks(), 0, "all blocks referenced");

        // A second holder of the same prefix hits everything.
        let hits2 = cache.acquire(&c);
        assert_eq!(hits2, 3);
        cache.release(&c, 3).unwrap();
        assert_eq!(cache.reclaimable_blocks(), 0, "first holder remains");
        cache.release(&c, 3).unwrap();
        assert_eq!(
            cache.reclaimable_blocks(),
            1,
            "only the leaf is reclaimable"
        );

        // Evicting peels the chain back to front.
        assert_eq!(cache.evict_lru(), Some(8));
        assert_eq!(cache.evict_lru(), Some(16));
        assert_eq!(cache.evict_lru(), Some(16));
        assert_eq!(cache.evict_lru(), None);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(cache.resident_tokens(), 0);
    }

    #[test]
    fn partial_hit_acquires_prefix_only() {
        let mut cache = PrefixCache::new();
        let long = chain(3, 64, 16); // 4 full blocks
        let hits_long = cache.acquire(&long);
        cache.insert(&long, hits_long).unwrap();
        cache.release(&long, 4).unwrap();
        // A shorter prefix of the same id shares the leading blocks.
        let short = chain(3, 32, 16);
        assert_eq!(cache.peek(&short), 2);
        let hits = cache.acquire(&short);
        assert_eq!(hits, 2);
        // Nothing left to insert: the whole short chain hit, and the
        // full-chain insert is a no-op...
        cache.insert(&short, hits).unwrap();
        // ...while re-inserting resident blocks is a typed error.
        assert!(matches!(
            cache.insert(&short, 0),
            Err(OptimusError::Serving { .. })
        ));
        cache.release(&short, hits).unwrap();
    }

    #[test]
    fn release_misuse_is_typed_and_state_preserving() {
        let mut cache = PrefixCache::new();
        let c = chain(5, 32, 16);
        cache.insert(&c, 0).unwrap();
        cache.release(&c, 2).unwrap();
        // Underflow: every block already at refcount 0.
        assert!(matches!(
            cache.release(&c, 2),
            Err(OptimusError::Serving { .. })
        ));
        assert_eq!(cache.resident_blocks(), 2, "failed release changed nothing");
        // Releasing a never-resident chain is typed too.
        let other = chain(6, 16, 16);
        assert!(matches!(
            cache.release(&other, 1),
            Err(OptimusError::Serving { .. })
        ));
        // Inserting a child before its parent is typed.
        let deep = chain(7, 48, 16);
        assert!(matches!(
            cache.insert(&deep, 1),
            Err(OptimusError::Serving { .. })
        ));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut cache = PrefixCache::new();
        let a = chain(10, 16, 16);
        let b = chain(11, 16, 16);
        let hits_a = cache.acquire(&a);
        cache.insert(&a, hits_a).unwrap();
        let hits_b = cache.acquire(&b);
        cache.insert(&b, hits_b).unwrap();
        cache.release(&a, 1).unwrap();
        cache.release(&b, 1).unwrap();
        // Touch `a` again: `b` becomes the LRU victim.
        cache.acquire(&a);
        cache.release(&a, 1).unwrap();
        let victim_tokens = cache.evict_lru().unwrap();
        assert_eq!(victim_tokens, 16);
        assert_eq!(cache.peek(&b), 0, "b was evicted");
        assert_eq!(cache.peek(&a), 1, "a survived");
    }

    #[test]
    fn evict_to_budget_stops_at_referenced_blocks() {
        let mut cache = PrefixCache::new();
        let a = chain(20, 48, 16); // 3 blocks, stays referenced
        let b = chain(21, 48, 16); // 3 blocks, released
        let hits_a = cache.acquire(&a);
        cache.insert(&a, hits_a).unwrap();
        let hits_b = cache.acquire(&b);
        cache.insert(&b, hits_b).unwrap();
        cache.release(&b, 3).unwrap();
        let evicted = cache.evict_to_budget(16, 0);
        assert_eq!(evicted, 3, "only the unreferenced chain is reclaimable");
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(cache.charged_tokens(16), 48);
    }

    #[test]
    fn config_validation() {
        assert!(PrefixCachingConfig {
            block_tokens: 0,
            eviction: CacheEviction::Lru,
        }
        .validate()
        .is_err());
        assert!(PrefixCachingConfig {
            block_tokens: 16,
            eviction: CacheEviction::Lfu,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn lfu_retains_the_popular_chain_where_lru_drops_it() {
        // Zipf head `hot` is touched many times early; the cold chain is
        // touched once, later. Under LRU the *older* hot chain is the
        // victim; under LFU popularity outranks recency and the cold
        // chain goes first.
        for (eviction, expect_hot_survives) in
            [(CacheEviction::Lru, false), (CacheEviction::Lfu, true)]
        {
            let mut cache = PrefixCache::with_eviction(eviction);
            let hot = chain(1, 16, 16);
            let cold = chain(2, 16, 16);
            let from = cache.acquire(&hot);
            cache.insert(&hot, from).unwrap();
            cache.release(&hot, 1).unwrap();
            for _ in 0..5 {
                let hits = cache.acquire(&hot);
                assert_eq!(hits, 1);
                cache.release(&hot, 1).unwrap();
            }
            let from = cache.acquire(&cold);
            cache.insert(&cold, from).unwrap();
            cache.release(&cold, 1).unwrap();
            let evicted = cache.evict_to_budget(16, 16);
            assert_eq!(evicted, 1);
            assert_eq!(
                cache.peek(&hot),
                usize::from(expect_hot_survives),
                "{eviction:?}: hot chain residency"
            );
            assert_eq!(cache.peek(&cold), usize::from(!expect_hot_survives));
        }
    }
}
