//! Tenancy: namespaced caches, admission tiers, and identity resolution.
//!
//! A tenant is the unit of isolation in the gateway: each gets its own
//! byte-budgeted [`PlanCache`] (one tenant's eviction pressure never
//! evicts another's entries) and its own token-bucket rate limit. Identity
//! comes from `Authorization: Bearer <token>` (mapped to a named tenant
//! with its configured tier via the tenants file) or the `X-Tenant` header
//! (self-declared, default tier); requests carrying neither land on the
//! [`DEFAULT_TENANT`] at the default tier. Unknown bearer tokens are
//! refused — a typo'd token must not silently create a fresh tenant with
//! a fresh quota — and names configured in the tenants file are
//! *reserved*: a self-declared `X-Tenant` naming one is refused rather
//! than handed that tenant's cache and rate bucket without the token.
//!
//! Tenant names are client-controlled, so the registry caps how many
//! distinct tenants exist; past the cap, new names are refused rather
//! than growing gateway memory without bound.

use ccs_serve::lock_unpoisoned;
use ccs_serve::PlanCache;
use serde::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The tenant serving requests that carry no identity.
pub const DEFAULT_TENANT: &str = "default";

/// Cap on a tenant name's length (see [`valid_name`]).
pub const MAX_TENANT_NAME: usize = 64;

/// A rate-limit tier: a token bucket refilled at `rate` requests/second
/// with capacity `burst`. `rate <= 0` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Sustained requests per second.
    pub rate: f64,
    /// Burst capacity (instantaneous requests from a full bucket).
    pub burst: f64,
}

impl Tier {
    /// The no-limit tier.
    pub fn unlimited() -> Self {
        Tier {
            rate: 0.0,
            burst: 0.0,
        }
    }

    /// Whether this tier imposes no limit.
    pub fn is_unlimited(&self) -> bool {
        self.rate <= 0.0
    }
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// One tenant: its namespaced cache, tier, bucket state, and stats
/// counters (the registry caps how many tenants exist, so these stay
/// bounded).
pub struct Tenant {
    name: String,
    /// The tenant's private plan/scenario cache.
    pub cache: Arc<PlanCache>,
    tier: Tier,
    bucket: Mutex<Bucket>,
    /// Requests that reached [`Tenant::admit`].
    pub requests: AtomicU64,
    /// Of those, requests refused by the rate limit.
    pub rate_limited: AtomicU64,
    /// Plan-route items answered `ok`.
    pub completed: AtomicU64,
    /// Plan-route items answered with an error.
    pub errors: AtomicU64,
}

impl Tenant {
    fn new(name: &str, cache_bytes: usize, tier: Tier) -> Self {
        Tenant {
            name: name.to_string(),
            cache: Arc::new(PlanCache::with_budget(cache_bytes)),
            tier,
            bucket: Mutex::new(Bucket {
                tokens: tier.burst.max(1.0),
                refilled: Instant::now(),
            }),
            requests: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// The tenant's name (the stats key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Counts one request and spends it from the token bucket. `false` =
    /// rate-limited (and counted as such).
    pub fn admit(&self) -> bool {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.tier.is_unlimited() {
            return true;
        }
        let mut bucket = lock_unpoisoned(&self.bucket);
        let now = Instant::now();
        let elapsed = now.duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.tier.rate).min(self.tier.burst.max(1.0));
        bucket.refilled = now;
        if bucket.tokens < 1.0 {
            self.rate_limited.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        bucket.tokens -= 1.0;
        true
    }
}

/// Whether `name` is an acceptable self-declared tenant name: 1–64 chars
/// of `[A-Za-z0-9_-]`. Anything else (path separators, control bytes,
/// megabyte names) is refused before it becomes a map key or stats label.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Why a request could not be bound to a tenant.
#[derive(Debug, PartialEq, Eq)]
pub enum ResolveError {
    /// The bearer token is not in the tenants file → `401`.
    UnknownToken,
    /// The `X-Tenant` value fails [`valid_name`] → `400`.
    BadName(String),
    /// The `X-Tenant` value names a token-configured tenant → `403`.
    /// Handing it out would let an unauthenticated client share that
    /// tenant's cache and spend its rate budget.
    ReservedName(String),
    /// The registry is at its tenant cap → `429`.
    TooManyTenants,
}

/// The tenant registry: name → tenant, token → (name, tier).
pub struct TenantRegistry {
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    tokens: BTreeMap<String, (String, Tier)>,
    /// Names owned by the tenants file; refused as `X-Tenant` values.
    reserved: BTreeSet<String>,
    /// When set, the only credential [`Self::authorize_admin`] accepts.
    admin_token: Option<String>,
    default_tier: Tier,
    cache_bytes: usize,
    max_tenants: usize,
}

impl TenantRegistry {
    /// A registry with per-tenant caches of `cache_bytes`, self-declared
    /// tenants on `default_tier`, and at most `max_tenants` tenants.
    pub fn new(cache_bytes: usize, default_tier: Tier, max_tenants: usize) -> Self {
        TenantRegistry {
            tenants: Mutex::new(BTreeMap::new()),
            tokens: BTreeMap::new(),
            reserved: BTreeSet::new(),
            admin_token: None,
            default_tier,
            cache_bytes,
            max_tenants: max_tenants.max(1),
        }
    }

    /// Installs the token map from a parsed tenants file:
    /// `{"tenants": [{"name", "token", "rate", "burst"}, ...],
    /// "admin_token": "..."}` — `rate`/`burst` optional (default tier when
    /// absent), `admin_token` optional (see [`Self::authorize_admin`]).
    /// Every configured name is reserved for token-authenticated use.
    ///
    /// # Errors
    ///
    /// A message describing the first malformed entry. Two entries may
    /// share a name only with the same tier — otherwise whichever token
    /// was used first would silently fix the tenant's tier for both.
    pub fn load_tokens(&mut self, value: &Value) -> Result<(), String> {
        let Value::Array(entries) = value.field("tenants") else {
            return Err("tenants file must carry a 'tenants' array".to_string());
        };
        let mut tier_of: BTreeMap<String, Tier> = BTreeMap::new();
        for entry in entries {
            let Value::String(name) = entry.field("name") else {
                return Err("tenant entry missing string 'name'".to_string());
            };
            if !valid_name(name) {
                return Err(format!("invalid tenant name {name:?}"));
            }
            if name == DEFAULT_TENANT {
                return Err(format!(
                    "tenant name {DEFAULT_TENANT:?} is reserved for anonymous requests"
                ));
            }
            let Value::String(token) = entry.field("token") else {
                return Err(format!("tenant {name:?} missing string 'token'"));
            };
            let mut tier = self.default_tier;
            if let Value::Number(n) = entry.field("rate") {
                tier.rate = n.as_f64();
            }
            if let Value::Number(n) = entry.field("burst") {
                tier.burst = n.as_f64();
            }
            if let Some(previous) = tier_of.insert(name.clone(), tier) {
                if previous != tier {
                    return Err(format!(
                        "tenant {name:?} is configured with conflicting tiers"
                    ));
                }
            }
            self.tokens.insert(token.clone(), (name.clone(), tier));
            self.reserved.insert(name.clone());
        }
        if let Value::String(token) = value.field("admin_token") {
            self.admin_token = Some(token.clone());
        }
        Ok(())
    }

    /// Overrides the admin token (the `--admin-token` flag beats the
    /// tenants file's `admin_token` field).
    pub fn set_admin_token(&mut self, token: String) {
        self.admin_token = Some(token);
    }

    /// Whether `authorization` may invoke admin routes (`/v1/shutdown`).
    ///
    /// With an admin token configured, only that exact bearer token is
    /// accepted. Otherwise any token from the tenants file qualifies —
    /// a credentialed tenant may drain the gateway, an anonymous client
    /// may not. A gateway with no credentials configured at all (no
    /// tenants file, no admin token: local/dev use) stays open.
    pub fn authorize_admin(&self, authorization: Option<&str>) -> bool {
        let token = authorization.map(|auth| auth.strip_prefix("Bearer ").unwrap_or(auth).trim());
        if let Some(admin) = &self.admin_token {
            return token == Some(admin.as_str());
        }
        if self.tokens.is_empty() {
            return true;
        }
        token.is_some_and(|t| self.tokens.contains_key(t))
    }

    fn get_or_create(&self, name: &str, tier: Tier) -> Result<Arc<Tenant>, ResolveError> {
        let mut tenants = lock_unpoisoned(&self.tenants);
        if let Some(tenant) = tenants.get(name) {
            return Ok(Arc::clone(tenant));
        }
        if tenants.len() >= self.max_tenants {
            return Err(ResolveError::TooManyTenants);
        }
        let tenant = Arc::new(Tenant::new(name, self.cache_bytes, tier));
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Binds a request to its tenant from the `Authorization` and
    /// `X-Tenant` headers (either may be absent).
    ///
    /// # Errors
    ///
    /// See [`ResolveError`] for the refusal cases and their statuses.
    pub fn resolve(
        &self,
        authorization: Option<&str>,
        x_tenant: Option<&str>,
    ) -> Result<Arc<Tenant>, ResolveError> {
        if let Some(auth) = authorization {
            let token = auth.strip_prefix("Bearer ").unwrap_or(auth).trim();
            let Some((name, tier)) = self.tokens.get(token) else {
                return Err(ResolveError::UnknownToken);
            };
            return self.get_or_create(name, *tier);
        }
        if let Some(name) = x_tenant {
            if !valid_name(name) {
                return Err(ResolveError::BadName(name.to_string()));
            }
            if self.reserved.contains(name) {
                return Err(ResolveError::ReservedName(name.to_string()));
            }
            return self.get_or_create(name, self.default_tier);
        }
        // The default tier, NOT unlimited: omitting both headers must not
        // be a rate-limit bypass on a gateway configured with `--rate`.
        self.get_or_create(DEFAULT_TENANT, self.default_tier)
    }

    /// All live tenants, sorted by name (for the stats snapshot).
    pub fn snapshot(&self) -> Vec<Arc<Tenant>> {
        lock_unpoisoned(&self.tenants)
            .values()
            .map(Arc::clone)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("acme-01_x"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("héllo"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn header_tenants_share_an_instance_and_caps_hold() {
        let registry = TenantRegistry::new(1 << 20, Tier::unlimited(), 2);
        let a1 = registry.resolve(None, Some("a")).unwrap();
        let a2 = registry.resolve(None, Some("a")).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        registry.resolve(None, Some("b")).unwrap();
        let Err(capped) = registry.resolve(None, Some("c")) else {
            panic!("tenant cap must refuse a third tenant");
        };
        assert_eq!(capped, ResolveError::TooManyTenants);
        let Err(bad) = registry.resolve(None, Some("no spaces")) else {
            panic!("invalid names must be refused");
        };
        assert_eq!(bad, ResolveError::BadName("no spaces".to_string()));
    }

    #[test]
    fn tokens_map_to_named_tenants_with_their_tier() {
        let mut registry = TenantRegistry::new(1 << 20, Tier::unlimited(), 8);
        let file: Value = serde_json::from_str(
            r#"{"tenants":[{"name":"acme","token":"tok_a","rate":2.0,"burst":3.0}]}"#,
        )
        .unwrap();
        registry.load_tokens(&file).unwrap();
        let acme = registry.resolve(Some("Bearer tok_a"), None).unwrap();
        assert_eq!(acme.name(), "acme");
        assert_eq!(
            acme.tier(),
            Tier {
                rate: 2.0,
                burst: 3.0
            }
        );
        let Err(unknown) = registry.resolve(Some("Bearer wrong"), None) else {
            panic!("unknown tokens must be refused");
        };
        assert_eq!(unknown, ResolveError::UnknownToken);
    }

    #[test]
    fn token_configured_names_are_reserved_from_self_declaration() {
        let mut registry = TenantRegistry::new(1 << 20, Tier::unlimited(), 8);
        let file: Value = serde_json::from_str(
            r#"{"tenants":[{"name":"acme","token":"tok_a","rate":2.0,"burst":3.0}]}"#,
        )
        .unwrap();
        registry.load_tokens(&file).unwrap();
        // Headers alone must not reach acme's cache and rate bucket…
        let Err(reserved) = registry.resolve(None, Some("acme")) else {
            panic!("X-Tenant must not impersonate a token-configured tenant");
        };
        assert_eq!(reserved, ResolveError::ReservedName("acme".to_string()));
        // …and the refusal must not have created the tenant, so the token
        // still binds it at its configured tier (no first-touch fixation).
        let acme = registry.resolve(Some("Bearer tok_a"), None).unwrap();
        assert_eq!(
            acme.tier(),
            Tier {
                rate: 2.0,
                burst: 3.0
            }
        );
        // When both headers are present the token wins, so a valid bearer
        // may still name its own tenant in X-Tenant for visibility.
        let both = registry
            .resolve(Some("Bearer tok_a"), Some("acme"))
            .unwrap();
        assert!(Arc::ptr_eq(&acme, &both));
    }

    #[test]
    fn tenants_file_refusals() {
        let mut registry = TenantRegistry::new(1 << 20, Tier::unlimited(), 8);
        let conflicting: Value = serde_json::from_str(
            r#"{"tenants":[{"name":"a","token":"t1","rate":1.0,"burst":1.0},
                           {"name":"a","token":"t2","rate":9.0,"burst":9.0}]}"#,
        )
        .unwrap();
        assert!(
            registry.load_tokens(&conflicting).is_err(),
            "one name, two tiers: whichever token arrived first would fix the tier"
        );
        let shadowing: Value =
            serde_json::from_str(r#"{"tenants":[{"name":"default","token":"t"}]}"#).unwrap();
        assert!(
            registry.load_tokens(&shadowing).is_err(),
            "'default' belongs to anonymous requests"
        );
    }

    #[test]
    fn anonymous_requests_get_the_default_tier_not_unlimited() {
        let limited = Tier {
            rate: 0.001,
            burst: 2.0,
        };
        let registry = TenantRegistry::new(1 << 20, limited, 8);
        let anon = registry.resolve(None, None).unwrap();
        assert_eq!(anon.name(), DEFAULT_TENANT);
        assert_eq!(anon.tier(), limited, "omitting headers is not a bypass");
        assert!(anon.admit() && anon.admit());
        assert!(!anon.admit(), "the default tenant's bucket really limits");
    }

    #[test]
    fn admin_authorization_tracks_configured_credentials() {
        // No credentials configured: open (local/dev gateways).
        let mut registry = TenantRegistry::new(1 << 20, Tier::unlimited(), 8);
        assert!(registry.authorize_admin(None));
        // Tenants file without admin_token: any configured token.
        let file: Value =
            serde_json::from_str(r#"{"tenants":[{"name":"acme","token":"tok_a"}]}"#).unwrap();
        registry.load_tokens(&file).unwrap();
        assert!(!registry.authorize_admin(None));
        assert!(!registry.authorize_admin(Some("Bearer wrong")));
        assert!(registry.authorize_admin(Some("Bearer tok_a")));
        // With an admin token: only that token, tenant tokens no longer do.
        let file: Value = serde_json::from_str(
            r#"{"tenants":[{"name":"acme","token":"tok_a"}],"admin_token":"root_t"}"#,
        )
        .unwrap();
        let mut registry = TenantRegistry::new(1 << 20, Tier::unlimited(), 8);
        registry.load_tokens(&file).unwrap();
        assert!(!registry.authorize_admin(Some("Bearer tok_a")));
        assert!(registry.authorize_admin(Some("Bearer root_t")));
        // The flag overrides the file.
        registry.set_admin_token("flag_t".to_string());
        assert!(!registry.authorize_admin(Some("Bearer root_t")));
        assert!(registry.authorize_admin(Some("Bearer flag_t")));
    }

    #[test]
    fn token_bucket_limits_bursts_and_unlimited_never_blocks() {
        let tenant = Tenant::new(
            "t",
            1 << 20,
            Tier {
                rate: 0.001,
                burst: 2.0,
            },
        );
        assert!(tenant.admit());
        assert!(tenant.admit());
        assert!(!tenant.admit(), "burst of 2 spent, refill is ~0");
        let open = Tenant::new("o", 1 << 20, Tier::unlimited());
        for _ in 0..1000 {
            assert!(open.admit());
        }
    }
}
