//! In-memory result cache: identical requests are answered from the first
//! run's trace instead of burning simulator budget twice.
//!
//! The key is the request's normalised identity — scenario, tech, corner,
//! sorted spec overrides, seed and budget (see
//! [`crate::protocol::SizingRequest::cache_key`]) — so two requests that
//! *mean* the same thing hit even when their JSON spells fields in a
//! different order. Everything the optimiser's output depends on is in the
//! key; the request `id` is not, so distinct callers share hits.

use kato::RunHistory;
use std::collections::HashMap;

use crate::bank::SourceChoice;

/// A completed run retained for replay.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The full optimisation trace.
    pub history: RunHistory,
    /// The bank source the run warm-started from, if any.
    pub warm_source: Option<SourceChoice>,
    /// How many requests have been answered from this entry (the first,
    /// computing request not counted).
    pub(crate) hits: usize,
}

/// Cache of completed runs keyed by request identity.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: HashMap<String, CachedResult>,
}

impl ResultCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Looks a key up, counting a hit when present.
    pub fn hit(&mut self, key: &str) -> Option<&CachedResult> {
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.hits += 1;
                Some(&*entry)
            }
            None => None,
        }
    }

    /// `true` when the key is cached (no hit counted).
    #[must_use]
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Stores a completed run under its key.
    pub fn store(&mut self, key: String, history: RunHistory, warm_source: Option<SourceChoice>) {
        self.entries.insert(
            key,
            CachedResult {
                history,
                warm_source,
                hits: 0,
            },
        );
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total replay hits across every entry — simulator budget the cache
    /// has saved, surfaced by the daemon's health report.
    #[must_use]
    pub fn total_hits(&self) -> usize {
        self.entries.values().map(|e| e.hits).sum()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_are_counted_per_key() {
        let mut cache = ResultCache::new();
        assert!(cache.is_empty());
        assert!(cache.hit("k").is_none());
        cache.store("k".into(), RunHistory::new("p", "m", 1), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains("k"));
        assert_eq!(cache.hit("k").unwrap().hits, 1);
        assert_eq!(cache.hit("k").unwrap().hits, 2);
        assert_eq!(cache.total_hits(), 2);
        assert!(!cache.contains("other"));
    }
}
