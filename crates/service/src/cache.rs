//! Content-addressed sharing of predecoded program images.
//!
//! The `OnceLock` threaded-code cache inside
//! [`PredecodedProgram`] already guarantees one direct-threaded
//! compilation per *image*; this cache supplies the multi-tenant half
//! of that guarantee: one image per *program*. Every submitted job's
//! program is interned by [`PredecodedProgram::content_hash`], so a
//! thousand sessions running the same kernel share a single decoded
//! instruction vector (and, for the threaded backend, a single
//! compilation) instead of carrying a thousand copies.
//!
//! The cache holds at most [`IMAGE_CACHE_CAP`] images and evicts the
//! least recently used one to make room, so a service that sees an
//! endless stream of distinct programs keeps a bounded working set.
//! Sessions already running an evicted image keep their own `Arc`
//! clone of it; the one-compilation guarantee holds for every image
//! still cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use art9_sim::PredecodedProgram;

use crate::recover;

/// The most images an [`ImageCache`] holds at once.
pub const IMAGE_CACHE_CAP: usize = 64;

/// Cached images with the tick of their last use.
#[derive(Debug, Default)]
struct Images {
    map: HashMap<u64, (PredecodedProgram, u64)>,
    clock: u64,
}

/// A content-hash-keyed, LRU-bounded store of shared program images.
#[derive(Debug, Default)]
pub struct ImageCache {
    images: Mutex<Images>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ImageCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared image for `image`'s content: the cached copy
    /// when one exists (an O(1) `Arc` clone), otherwise `image` itself
    /// after registering it — evicting the least recently used image
    /// when the cache is full.
    pub fn intern(&self, image: PredecodedProgram) -> PredecodedProgram {
        let hash = image.content_hash();
        let mut guard = recover(self.images.lock());
        let images = &mut *guard;
        images.clock += 1;
        if let Some((cached, used)) = images.map.get_mut(&hash) {
            *used = images.clock;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if images.map.len() >= IMAGE_CACHE_CAP {
            // A linear scan over at most IMAGE_CACHE_CAP entries, paid
            // only on a miss, which predecodes a whole program anyway.
            let oldest = images
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&hash, _)| hash);
            if let Some(oldest) = oldest {
                images.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        images.map.insert(hash, (image.clone(), images.clock));
        image
    }

    /// Number of distinct images currently cached (at most
    /// [`IMAGE_CACHE_CAP`]).
    pub fn len(&self) -> usize {
        recover(self.images.lock()).map.len()
    }

    /// `true` when no image is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters: hits are interns that found a cached
    /// image, misses are inserts (first sight, or return after
    /// eviction).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Images evicted to make room for others.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_isa::assemble;
    use art9_sim::{Backend, SimBuilder};

    /// A distinct image per `value` in `0..13_000` (two `LI`
    /// immediates, each within ±121).
    fn image(value: i64) -> PredecodedProgram {
        let text = format!(
            "LI t3, {}\nLI t4, {}\nJAL t0, 0\n",
            value % 110,
            value / 110
        );
        PredecodedProgram::new(&assemble(&text).unwrap())
    }

    #[test]
    fn intern_dedupes_by_content() {
        let cache = ImageCache::new();
        let a = cache.intern(image(1));
        let b = cache.intern(image(1));
        // Same content → same shared storage.
        assert_eq!(a.text().as_ptr(), b.text().as_ptr());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 1));

        let c = cache.intern(image(2));
        assert_ne!(a.text().as_ptr(), c.text().as_ptr());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn a_hot_image_survives_a_stream_of_cold_ones() {
        let cache = ImageCache::new();
        let hot = cache.intern(image(0));
        // Its one threaded compilation, made by the first threaded core.
        SimBuilder::new(&hot).backend(Backend::Threaded).build();
        assert!(hot.threaded_compiled());

        let cold = 2 * IMAGE_CACHE_CAP as i64;
        for value in 1..=cold {
            cache.intern(image(value));
            // A fresh, never-compiled copy of the hot program comes
            // back as the cached image, compilation included.
            let again = cache.intern(image(0));
            assert_eq!(again.text().as_ptr(), hot.text().as_ptr());
            assert!(again.threaded_compiled());
            assert!(cache.len() <= IMAGE_CACHE_CAP);
        }
        assert_eq!(cache.len(), IMAGE_CACHE_CAP);
        assert_eq!(cache.evictions(), cold as u64 + 1 - IMAGE_CACHE_CAP as u64);
        assert_eq!(cache.stats(), (cold as u64, cold as u64 + 1));

        // The coldest images went first: the earliest is a miss again,
        // the latest still a hit.
        let (hits, misses) = cache.stats();
        cache.intern(image(cold));
        cache.intern(image(1));
        assert_eq!(cache.stats(), (hits + 1, misses + 1));
    }
}
