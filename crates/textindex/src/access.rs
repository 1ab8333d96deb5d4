//! Per-document access rights.
//!
//! Documents always stay at their owning peer, so the owner can restrict who may fetch
//! the full document even though its index entries are globally searchable. The paper's
//! client exposes exactly this: a document can be freely accessible or protected by a
//! username/password pair.

/// Access policy attached to a published document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AccessRights {
    /// Anyone who finds the document may fetch it.
    #[default]
    Public,
    /// Fetching the document requires the given username/password pair.
    Restricted {
        /// Required username.
        username: String,
        /// Required password (stored as a salted hash in a real deployment; the
        /// simulation keeps the comparison behaviourally equivalent).
        password: String,
    },
    /// The document is searchable but the full text is never served remotely
    /// (only its metadata/snippet is visible).
    Private,
}

/// Credentials presented when fetching a document from its hosting peer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Credentials {
    /// Username, if any.
    pub username: Option<String>,
    /// Password, if any.
    pub password: Option<String>,
}

impl Credentials {
    /// No credentials (anonymous access).
    pub fn anonymous() -> Self {
        Credentials::default()
    }

    /// Username/password credentials.
    pub fn basic(username: impl Into<String>, password: impl Into<String>) -> Self {
        Credentials {
            username: Some(username.into()),
            password: Some(password.into()),
        }
    }
}

/// The outcome of an access-control check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessDecision {
    /// The full document may be served.
    Granted,
    /// The request must be refused (bad or missing credentials).
    Denied,
    /// Only metadata (title, snippet, URL) may be served.
    MetadataOnly,
}

impl AccessRights {
    /// Decides whether a request with `credentials` may fetch the full document.
    pub fn check(&self, credentials: &Credentials) -> AccessDecision {
        match self {
            AccessRights::Public => AccessDecision::Granted,
            AccessRights::Private => AccessDecision::MetadataOnly,
            AccessRights::Restricted { username, password } => {
                let user_ok = credentials.username.as_deref() == Some(username.as_str());
                let pass_ok = credentials.password.as_deref() == Some(password.as_str());
                if user_ok && pass_ok {
                    AccessDecision::Granted
                } else {
                    AccessDecision::Denied
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_documents_are_always_granted() {
        assert_eq!(
            AccessRights::Public.check(&Credentials::anonymous()),
            AccessDecision::Granted
        );
        assert_eq!(
            AccessRights::Public.check(&Credentials::basic("u", "p")),
            AccessDecision::Granted
        );
    }

    #[test]
    fn restricted_documents_require_matching_credentials() {
        let rights = AccessRights::Restricted {
            username: "alice".into(),
            password: "s3cret".into(),
        };
        assert_eq!(
            rights.check(&Credentials::anonymous()),
            AccessDecision::Denied
        );
        assert_eq!(
            rights.check(&Credentials::basic("alice", "wrong")),
            AccessDecision::Denied
        );
        assert_eq!(
            rights.check(&Credentials::basic("bob", "s3cret")),
            AccessDecision::Denied
        );
        assert_eq!(
            rights.check(&Credentials::basic("alice", "s3cret")),
            AccessDecision::Granted
        );
    }

    #[test]
    fn private_documents_serve_metadata_only() {
        assert_eq!(
            AccessRights::Private.check(&Credentials::basic("any", "any")),
            AccessDecision::MetadataOnly
        );
    }

    #[test]
    fn default_is_public() {
        assert_eq!(AccessRights::default(), AccessRights::Public);
    }
}
