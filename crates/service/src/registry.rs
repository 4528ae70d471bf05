//! The tenant/key registry.
//!
//! Maps owner (tenant) ids to their high-entropy secrets `R` and the
//! watermarks embedded under them. Every registration event — tenant
//! onboarding and each completed embed — is appended to the hash-chained
//! [`Ledger`], so registration *order* is tamper-evident and feeds the
//! Sec. V-D dispute protocol: when the four-run protocol is
//! inconclusive, the earlier ledger entry wins.
//!
//! Secrets are wiped on drop ([`Secret`] zeroizes itself), so evicting
//! a tenant leaves no key material in freed memory.

use crate::error::{Result, ServiceError};
use crate::quota::QuotaLimits;
use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_ledger::Ledger;
use std::collections::HashMap;

/// One embedded watermark on record for a tenant.
#[derive(Debug, Clone)]
pub struct StoredWatermark {
    /// The secret list `L_sc = {L_wm, R, z}` produced by the embed.
    pub secrets: SecretList,
    /// The watermarked histogram (the data version this mark lives in);
    /// kept for maintenance and dispute claims.
    pub watermarked: Histogram,
    /// Index of this watermark's fingerprint in the ledger chain.
    pub ledger_index: u64,
    /// Logical registration timestamp (engine clock tick).
    pub registered_at: u64,
}

/// Materialised per-tenant state, as written into (and restored from)
/// durable snapshots. Holds the secret — snapshots are key material
/// and the data-dir must be protected accordingly.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    pub tenant: String,
    pub secret: Secret,
    pub ledger_index: u64,
    pub registered_at: u64,
    pub watermarks: Vec<StoredWatermark>,
}

#[derive(Debug)]
struct TenantRecord {
    secret: Secret,
    ledger_index: u64,
    registered_at: u64,
    watermarks: Vec<StoredWatermark>,
}

/// Durable per-tenant quota state: explicit limits (if any) plus the
/// last checkpointed consumed window. Restarts restore both, so an
/// abuser that spent its budget stays refused across a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaRecord {
    /// Explicit per-tenant limits set via the `quota` op. When
    /// `explicit` is false the engine's default limits apply and this
    /// field is ignored (kept at unlimited).
    pub limits: QuotaLimits,
    /// Sliding-window width for this tenant; `0` = engine default.
    pub window_ms: u64,
    /// Whether `limits`/`window_ms` were set explicitly.
    pub explicit: bool,
    /// Checkpointed consumption per op class (embed, detect, maintain).
    pub used: [u64; 3],
    /// Wall-clock milliseconds of the checkpoint; windows re-age from
    /// here after a restart.
    pub used_at_ms: u64,
}

/// Ledger-backed multi-tenant key registry.
#[derive(Debug)]
pub struct KeyRegistry {
    ledger: Ledger,
    tenants: HashMap<String, TenantRecord>,
    quotas: HashMap<String, QuotaRecord>,
}

/// Canonical ledger material for a tenant-key registration.
fn tenant_material(tenant: &str, secret: &Secret) -> Vec<u8> {
    let mut m = Vec::with_capacity(tenant.len() + 40);
    m.extend_from_slice(b"freqywm/tenant-key/v1\x00");
    m.extend_from_slice(tenant.as_bytes());
    m.push(0);
    m.extend_from_slice(secret.as_bytes());
    m
}

impl KeyRegistry {
    /// Creates an empty registry whose ledger authenticates under `key`.
    pub fn new(ledger_key: &[u8]) -> Self {
        KeyRegistry {
            ledger: Ledger::new(ledger_key),
            tenants: HashMap::new(),
            quotas: HashMap::new(),
        }
    }

    /// Registers a tenant and its secret; returns the ledger index of
    /// the onboarding entry. Fails on duplicate ids.
    pub fn register_tenant(&mut self, tenant: &str, secret: Secret, now: u64) -> Result<u64> {
        if self.tenants.contains_key(tenant) {
            return Err(ServiceError::DuplicateTenant(tenant.to_string()));
        }
        let material = tenant_material(tenant, &secret);
        let ledger_index = self.ledger.register(now, tenant, &material);
        self.tenants.insert(
            tenant.to_string(),
            TenantRecord {
                secret,
                ledger_index,
                registered_at: now,
                watermarks: Vec::new(),
            },
        );
        Ok(ledger_index)
    }

    /// Rebuilds a registry from a verified ledger and tenant snapshots
    /// (the recovery path).
    pub fn restore(ledger: Ledger, tenants: Vec<TenantSnapshot>) -> Self {
        let tenants = tenants
            .into_iter()
            .map(|t| {
                (
                    t.tenant,
                    TenantRecord {
                        secret: t.secret,
                        ledger_index: t.ledger_index,
                        registered_at: t.registered_at,
                        watermarks: t.watermarks,
                    },
                )
            })
            .collect();
        KeyRegistry {
            ledger,
            tenants,
            quotas: HashMap::new(),
        }
    }

    /// Restores persisted quota records (second half of the recovery
    /// path, after [`Self::restore`]).
    pub fn restore_quotas(&mut self, quotas: Vec<(String, QuotaRecord)>) {
        self.quotas = quotas.into_iter().collect();
    }

    /// Materialises every tenant for a snapshot, sorted by id so the
    /// snapshot bytes are deterministic for a given state.
    pub fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        let mut out: Vec<TenantSnapshot> = self
            .tenants
            .iter()
            .map(|(tenant, r)| TenantSnapshot {
                tenant: tenant.clone(),
                secret: r.secret.clone(),
                ledger_index: r.ledger_index,
                registered_at: r.registered_at,
                watermarks: r.watermarks.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Materialises every quota record for a snapshot, sorted by
    /// tenant so the snapshot bytes are deterministic.
    pub fn quota_snapshots(&self) -> Vec<(String, QuotaRecord)> {
        let mut out: Vec<(String, QuotaRecord)> =
            self.quotas.iter().map(|(t, r)| (t.clone(), *r)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The tenant's durable quota record, if one exists.
    pub fn quota(&self, tenant: &str) -> Option<&QuotaRecord> {
        self.quotas.get(tenant)
    }

    /// Sets a tenant's explicit limits, keeping any checkpointed
    /// consumption.
    pub fn set_quota(&mut self, tenant: &str, limits: QuotaLimits, window_ms: u64) {
        let rec = self.quotas.entry(tenant.to_string()).or_default();
        rec.limits = limits;
        rec.window_ms = window_ms;
        rec.explicit = true;
    }

    /// Records a consumed-window checkpoint.
    pub fn checkpoint_quota(&mut self, tenant: &str, used: [u64; 3], at_ms: u64) {
        let rec = self.quotas.entry(tenant.to_string()).or_default();
        rec.used = used;
        rec.used_at_ms = at_ms;
    }

    /// Removes a tenant; its `Secret` zeroizes on drop.
    /// The ledger keeps the historical entries (append-only).
    pub fn remove_tenant(&mut self, tenant: &str) -> bool {
        self.quotas.remove(tenant);
        self.tenants.remove(tenant).is_some()
    }

    pub fn contains(&self, tenant: &str) -> bool {
        self.tenants.contains_key(tenant)
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn tenant_ids(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(|s| s.as_str())
    }

    /// The tenant's high-entropy secret `R`.
    pub fn secret(&self, tenant: &str) -> Result<&Secret> {
        self.tenants
            .get(tenant)
            .map(|r| &r.secret)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }

    /// Audit view of a tenant's onboarding: `(ledger_index,
    /// registered_at)`.
    pub fn tenant_registration(&self, tenant: &str) -> Result<(u64, u64)> {
        self.tenants
            .get(tenant)
            .map(|r| (r.ledger_index, r.registered_at))
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }

    /// Records a completed embed: appends the secret-list fingerprint
    /// to the ledger and stores the watermark for later detect /
    /// maintain / dispute calls. Returns the ledger index.
    pub fn record_watermark(
        &mut self,
        tenant: &str,
        secrets: SecretList,
        watermarked: Histogram,
        now: u64,
    ) -> Result<u64> {
        // Append first so a missing tenant cannot mutate the chain.
        if !self.tenants.contains_key(tenant) {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        }
        let ledger_index = self
            .ledger
            .register(now, tenant, secrets.to_text().as_bytes());
        let record = self.tenants.get_mut(tenant).expect("checked above");
        record.watermarks.push(StoredWatermark {
            secrets,
            watermarked,
            ledger_index,
            registered_at: now,
        });
        Ok(ledger_index)
    }

    /// Replaces the latest stored watermark (maintenance rewrites the
    /// secret list in place and re-registers the new fingerprint).
    pub fn replace_latest_watermark(
        &mut self,
        tenant: &str,
        secrets: SecretList,
        watermarked: Histogram,
        now: u64,
    ) -> Result<u64> {
        if self.latest_watermark(tenant).is_none() {
            return Err(ServiceError::NoWatermark(tenant.to_string()));
        }
        let ledger_index = self
            .ledger
            .register(now, tenant, secrets.to_text().as_bytes());
        let record = self
            .tenants
            .get_mut(tenant)
            .expect("latest_watermark checked");
        let latest = record.watermarks.last_mut().expect("non-empty");
        *latest = StoredWatermark {
            secrets,
            watermarked,
            ledger_index,
            registered_at: now,
        };
        Ok(ledger_index)
    }

    /// The tenant's most recent watermark, if any embed completed.
    pub fn latest_watermark(&self, tenant: &str) -> Option<&StoredWatermark> {
        self.tenants.get(tenant)?.watermarks.last()
    }

    /// Like [`Self::latest_watermark`] but with service-level errors.
    pub fn require_watermark(&self, tenant: &str) -> Result<&StoredWatermark> {
        let record = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        record
            .watermarks
            .last()
            .ok_or_else(|| ServiceError::NoWatermark(tenant.to_string()))
    }

    /// Read access to the underlying chain (verification, audits).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Chronological order of two tenants' *latest watermarks* in the
    /// ledger — the dispute tiebreak. `Less` means `a` registered first.
    pub fn earlier_watermark(&self, a: &str, b: &str) -> Result<std::cmp::Ordering> {
        let wa = self.require_watermark(a)?;
        let wb = self.require_watermark(b)?;
        self.ledger
            .earlier_of(
                wa.secrets.to_text().as_bytes(),
                wb.secrets.to_text().as_bytes(),
            )
            .ok_or_else(|| ServiceError::Internal("watermark missing from ledger".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_data::token::Token;

    fn hist() -> Histogram {
        Histogram::from_counts([(Token::new("a"), 10), (Token::new("b"), 5)])
    }

    fn secrets(label: &str) -> SecretList {
        SecretList::new(
            vec![(Token::new("a"), Token::new("b"))],
            Secret::from_label(label),
            31,
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut r = KeyRegistry::new(b"test-ledger");
        let idx = r
            .register_tenant("acme", Secret::from_label("acme"), 1)
            .unwrap();
        assert_eq!(idx, 0);
        assert!(r.contains("acme"));
        assert_eq!(r.secret("acme").unwrap(), &Secret::from_label("acme"));
        assert!(matches!(
            r.secret("ghost"),
            Err(ServiceError::UnknownTenant(_))
        ));
    }

    #[test]
    fn duplicate_tenant_rejected() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("t", Secret::from_label("1"), 1).unwrap();
        assert!(matches!(
            r.register_tenant("t", Secret::from_label("2"), 2),
            Err(ServiceError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn watermark_lifecycle_and_ledger_order() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("a", Secret::from_label("a"), 1).unwrap();
        r.register_tenant("b", Secret::from_label("b"), 2).unwrap();
        assert!(matches!(
            r.require_watermark("a"),
            Err(ServiceError::NoWatermark(_))
        ));
        r.record_watermark("a", secrets("wa"), hist(), 3).unwrap();
        r.record_watermark("b", secrets("wb"), hist(), 4).unwrap();
        assert_eq!(
            r.earlier_watermark("a", "b").unwrap(),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            r.earlier_watermark("b", "a").unwrap(),
            std::cmp::Ordering::Greater
        );
        assert!(r.ledger().verify_chain().is_ok());
        assert_eq!(r.ledger().len(), 4);
    }

    #[test]
    fn replace_latest_watermark_keeps_chain_growing() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("a", Secret::from_label("a"), 1).unwrap();
        assert!(r
            .replace_latest_watermark("a", secrets("w0"), hist(), 2)
            .is_err());
        r.record_watermark("a", secrets("w1"), hist(), 3).unwrap();
        let idx = r
            .replace_latest_watermark("a", secrets("w2"), hist(), 4)
            .unwrap();
        assert_eq!(idx, 2);
        let latest = r.latest_watermark("a").unwrap();
        assert_eq!(latest.secrets, secrets("w2"));
        // Chain keeps all history even though the record was replaced.
        assert_eq!(r.ledger().len(), 3);
        assert!(r.ledger().verify_chain().is_ok());
    }

    #[test]
    fn remove_tenant() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("t", Secret::from_label("t"), 1).unwrap();
        assert!(r.remove_tenant("t"));
        assert!(!r.remove_tenant("t"));
        assert!(!r.contains("t"));
        // Ledger history survives eviction.
        assert_eq!(r.ledger().len(), 1);
    }
}
