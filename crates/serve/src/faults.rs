//! Deterministic failpoints for fault-injection testing.
//!
//! A *failpoint* is a named hook compiled into a production code path that
//! does nothing unless armed. The armed set is a [`Failpoints`] value owned
//! by the [`Bank`](crate::Bank) and the [`Daemon`](crate::Daemon) that
//! consult it — nothing is armed by default, and no state is shared
//! between values, so tests arm their own without interfering. `katod`
//! builds its value from the `KATO_FAILPOINTS` environment variable; tests
//! call [`Failpoints::parse`] with the same spec format:
//!
//! ```text
//! KATO_FAILPOINTS=bank_write=2,sim_panic=5
//! ```
//!
//! i.e. a comma-separated list of `name=value` pairs, where `value` is a
//! non-negative integer whose meaning depends on how the site consults the
//! failpoint:
//!
//! * **Countdown sites** call [`Failpoints::countdown`]: the failpoint
//!   fires on each of the first `value` hits, then stops. `bank_write=2`
//!   makes the first two bank write attempts fail with an injected I/O
//!   error (exercising the retry/backoff path); `bank_torn=1` tears the
//!   first archive write.
//! * **Match sites** call [`Failpoints::matches`] with a caller-supplied
//!   key: the failpoint fires iff `key == value`. `sim_panic=5` panics every
//!   evaluation of the job whose request *seed* is 5 — deterministic
//!   regardless of how a batch interleaves across worker threads.
//!
//! There are deliberately no dependencies and no timers here: given the
//! same spec and the same request stream, the same faults fire, which is
//! what lets integration tests assert exact daemon behaviour under
//! injected crashes, torn writes and I/O failures.
//!
//! Registered failpoint names (sites live in this crate):
//!
//! | name         | kind      | effect when fired                                  |
//! |--------------|-----------|----------------------------------------------------|
//! | `bank_write` | countdown | bank file write attempt fails with an I/O error    |
//! | `bank_torn`  | countdown | bank file write leaves a torn (truncated) file     |
//! | `sim_panic`  | match     | evaluation panics for the job with `seed == value` |

use std::collections::HashMap;
use std::sync::Mutex;

/// Parses a failpoint spec string (`name=N[,name=N...]`) into pairs.
///
/// Whitespace around names/values is tolerated; empty segments are
/// skipped; malformed segments (no `=`, non-integer value) are ignored
/// rather than panicking — a typo'd spec degrades to "not armed", never to
/// a crashed daemon.
#[must_use]
pub(crate) fn parse_spec(spec: &str) -> Vec<(String, u64)> {
    spec.split(',')
        .filter_map(|part| {
            let part = part.trim();
            let (name, value) = part.split_once('=')?;
            let name = name.trim();
            let value: u64 = value.trim().parse().ok()?;
            (!name.is_empty()).then(|| (name.to_string(), value))
        })
        .collect()
}

/// Armed failpoint values plus per-failpoint hit counters. The default
/// value arms nothing.
#[derive(Debug, Default)]
pub struct Failpoints {
    armed: HashMap<String, u64>,
    hits: Mutex<HashMap<String, u64>>,
}

impl Failpoints {
    /// Arms the failpoints of a spec string, `name=N[,name=N...]`
    /// (malformed segments are ignored); an empty spec arms nothing.
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        Failpoints {
            armed: parse_spec(spec).into_iter().collect(),
            hits: Mutex::default(),
        }
    }

    /// The armed value for `name`, if any.
    #[must_use]
    pub(crate) fn armed(&self, name: &str) -> Option<u64> {
        self.armed.get(name).copied()
    }

    fn hits_mut(&self) -> std::sync::MutexGuard<'_, HashMap<String, u64>> {
        self.hits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Countdown-site check: counts the hit and returns `true` while fewer
    /// than the armed value of hits have occurred (i.e. the first `N` hits
    /// fire). Always `false` when the failpoint is not armed (the hit is
    /// still counted for [`Failpoints::hits`] observability).
    #[must_use]
    pub(crate) fn countdown(&self, name: &str) -> bool {
        let mut hits = self.hits_mut();
        let count = hits.entry(name.to_string()).or_insert(0);
        *count += 1;
        self.armed(name).is_some_and(|n| *count <= n)
    }

    /// Match-site check: `true` iff `name` is armed and its value equals
    /// `key`. Counts a hit only when it fires.
    #[must_use]
    pub(crate) fn matches(&self, name: &str, key: u64) -> bool {
        let fires = self.armed(name) == Some(key);
        if fires {
            *self.hits_mut().entry(name.to_string()).or_insert(0) += 1;
        }
        fires
    }

    /// Number of recorded hits for `name` (fired hits for match sites, all
    /// hits for countdown sites).
    #[must_use]
    pub fn hits(&self, name: &str) -> u64 {
        self.hits_mut().get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_is_lenient() {
        assert_eq!(
            parse_spec("bank_write=2, sim_panic = 5"),
            vec![("bank_write".to_string(), 2), ("sim_panic".to_string(), 5)]
        );
        assert!(parse_spec("").is_empty());
        assert!(parse_spec("noequals,=3,x=abc, =").is_empty());
        assert_eq!(parse_spec("ok=0"), vec![("ok".to_string(), 0)]);
    }

    #[test]
    fn arm_countdown_match_lifecycle() {
        let fp = Failpoints::parse("cd=2,mk=7");
        assert_eq!(fp.armed("cd"), Some(2));
        assert_eq!(fp.armed("nope"), None);
        // Countdown: first two hits fire, third passes.
        assert!(fp.countdown("cd"));
        assert!(fp.countdown("cd"));
        assert!(!fp.countdown("cd"));
        assert_eq!(fp.hits("cd"), 3);
        // Match: fires only on the armed key.
        assert!(!fp.matches("mk", 6));
        assert!(fp.matches("mk", 7));
        assert!(fp.matches("mk", 7));
        assert_eq!(fp.hits("mk"), 2);
        // Unarmed countdown never fires but still counts.
        assert!(!fp.countdown("other"));
        assert_eq!(fp.hits("other"), 1);
        // A separate value shares no state; the default arms nothing.
        let fresh = Failpoints::parse("cd=2");
        assert_eq!(fresh.hits("cd"), 0);
        assert!(fresh.countdown("cd"));
        let none = Failpoints::default();
        assert_eq!(none.armed("cd"), None);
        assert!(!none.countdown("cd"));
        assert!(!none.matches("mk", 7));
    }
}
