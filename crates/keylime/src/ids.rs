//! Typed agent identities.
//!
//! Every component used to pass agent identities around as bare `&str`,
//! which made it easy to confuse hostnames, paths and ids at call sites.
//! [`AgentId`] is a lightweight newtype that all public APIs now require:
//! the registrar's key table, the verifier's records, revocation notices
//! and the audit trail are keyed by it, so an id can only originate from
//! an [`Agent`](crate::Agent) or an explicit conversion.

use std::borrow::Borrow;
use std::fmt;

use cia_wire::Wire;
use serde::{Deserialize, Serialize};

/// The identity of one Keylime agent (the machine's host name).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Wire)]
pub struct AgentId(String);

impl AgentId {
    /// Wraps a host name as an agent identity.
    pub fn new(id: impl Into<String>) -> Self {
        AgentId(id.into())
    }

    /// A zero-padded fleet-style id, e.g. `numbered("sim", 4)` →
    /// `sim-0004`. The padding keeps lexicographic order equal to
    /// numeric order for fleets up to 10,000 — which keeps scheduler
    /// lane numbers (assigned in sorted-id order) equal to the index the
    /// id was built from.
    pub fn numbered(prefix: &str, index: u64) -> Self {
        AgentId(format!("{prefix}-{index:04}"))
    }

    /// The identity as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Consumes the id, returning the underlying string.
    pub fn into_string(self) -> String {
        self.0
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AgentId {
    fn from(id: &str) -> Self {
        AgentId(id.to_string())
    }
}

impl From<String> for AgentId {
    fn from(id: String) -> Self {
        AgentId(id)
    }
}

impl From<&AgentId> for AgentId {
    fn from(id: &AgentId) -> Self {
        id.clone()
    }
}

impl AsRef<str> for AgentId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for AgentId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for AgentId {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for AgentId {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<AgentId> for str {
    fn eq(&self, other: &AgentId) -> bool {
        self == other.0
    }
}

impl PartialEq<AgentId> for &str {
    fn eq(&self, other: &AgentId) -> bool {
        *self == other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let id = AgentId::from("node-1");
        assert_eq!(id.as_str(), "node-1");
        assert_eq!(id.to_string(), "node-1");
        assert_eq!(id, "node-1");
        assert_eq!("node-1", id);
        assert_eq!(AgentId::from("node-1".to_string()), id);
        assert_eq!(id.clone().into_string(), "node-1");
    }

    #[test]
    fn numbered_ids_sort_numerically() {
        let ids: Vec<AgentId> = [2, 0, 10, 1]
            .iter()
            .map(|&i| AgentId::numbered("sim", i))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                AgentId::numbered("sim", 0),
                AgentId::numbered("sim", 1),
                AgentId::numbered("sim", 2),
                AgentId::numbered("sim", 10),
            ]
        );
        assert_eq!(AgentId::numbered("sim", 4).as_str(), "sim-0004");
    }

    #[test]
    fn orders_like_strings() {
        let mut ids = vec![AgentId::from("b"), AgentId::from("a"), AgentId::from("c")];
        ids.sort();
        let sorted: Vec<AgentId> = vec!["a".into(), "b".into(), "c".into()];
        assert_eq!(ids, sorted);
    }

    #[test]
    fn serializes_transparently() {
        let id = AgentId::from("fleet-07");
        let wire = serde_json::to_string(&id).unwrap();
        assert_eq!(wire, "\"fleet-07\"");
        assert_eq!(serde_json::from_str::<AgentId>(&wire).unwrap(), id);
    }
}
