//! Recorded-activity traces: the serializable record/replay format.
//!
//! An [`ActivityTrace`] captures everything the power/thermal/DTM side of
//! an experiment consumes from the cycle simulator: the pilot's merged
//! activity, one [`IntervalRecord`] per evaluation interval, and the run's
//! final cycle/micro-op statistics. Replaying the trace through the
//! engine's `ReplayBackend` reproduces a live run bit-for-bit without
//! re-simulating the core — which is what makes pure thermal/DTM sweeps
//! several times cheaper per cell.
//!
//! # The recorded path
//!
//! A trace records only the path the live run took. Per interval that is
//! one flattened counter row and its done flag, the [`PointKey`] the live
//! DTM action selected, the Vdd-gated trace-cache bank, and — on a
//! temperature-biased trace-cache mapping — the bank temperatures the
//! mapping read as the interval started. Those are everything the core
//! side of an interval depends on beyond the run's configuration, so
//! replay checks them every interval: a replay whose action or bank
//! temperatures differ from the recorded ones has left the recorded path,
//! and the engine runs the cell live instead. A trace therefore replays
//! any row whose path it recorded, and no other.
//!
//! The header's point family ([`TraceMeta::points`]) is the recording
//! configuration's set of operating points: nominal plus what its DTM
//! policy could engage. It is not recorded data but the trace's store
//! identity ([`TraceMeta::capability_id`]), so a row normally finds the
//! recording of its own policy.
//!
//! # Format and version policy
//!
//! Traces serialize through the workspace's shared binary codec
//! ([`crate::codec`], no external dependencies): the magic bytes `DFAT`,
//! a little-endian `u32` format version, then the metadata, point-family,
//! pilot, interval and final-stats sections, with every integer
//! little-endian, every float stored as its exact IEEE-754 bits and every
//! string length-prefixed UTF-8. Counter rows and bank temperatures are
//! count-prefixed `u64` words.
//!
//! The version number is the compatibility contract:
//!
//! * [`TRACE_FORMAT_VERSION`] is bumped on **any** layout change — field
//!   reordering, widening, new sections, a new interval record (v3 → v4:
//!   the recorded path replaces the per-interval point family), and in
//!   particular any change to the flattened-counter layout implied by
//!   [`TraceShape::flat_len`] (the flattening itself lives in
//!   `distfront_uarch`, next to the counters it serializes).
//! * Decoding rejects unknown versions outright
//!   ([`TraceCodecError::UnsupportedVersion`]) rather than guessing:
//!   a replayed trace feeds physical models, so a misread field would
//!   silently produce plausible-but-wrong science.
//! * **One version, read and written.** [`ActivityTrace::encode`] writes
//!   and [`ActivityTrace::decode`] reads only [`TRACE_FORMAT_VERSION`];
//!   a stream of any other version, the retired v1 (single-row), v2 (raw
//!   variant rows) and v3 (delta-coded variant rows) layouts included, is
//!   [`TraceCodecError::UnsupportedVersion`]. Traces are derived data: a
//!   cell whose trace cannot be read runs live and can be re-recorded,
//!   with the same result bytes.
//! * Within one version, decoding validates structure (magic, counter
//!   lengths against the declared [`TraceShape`], family invariants,
//!   point keys, bank-temperature counts, a non-zero pilot, no trailing
//!   bytes), so `decode(encode(t)) == t` and truncated or corrupt files
//!   fail loudly.
//!
//! # Examples
//!
//! ```
//! use distfront_trace::record::*;
//!
//! let shape = TraceShape { partitions: 1, backends: 4, tc_banks: 2 };
//! let trace = ActivityTrace {
//!     meta: TraceMeta {
//!         version: TRACE_FORMAT_VERSION,
//!         workload: "tiny".into(),
//!         config: "baseline".into(),
//!         processor_fingerprint: 0xFEED,
//!         seed: 7,
//!         uops_per_app: 1000,
//!         pilot_uops: 250,
//!         interval_cycles: 500,
//!         shape,
//!         hop: false,
//!         replay_safe: true,
//!         dtm: None,
//!         points: vec![PointKey::Nominal],
//!     },
//!     pilot: vec![0; shape.flat_len()],
//!     intervals: vec![IntervalRecord {
//!         counters: vec![1; shape.flat_len()],
//!         done: true,
//!         point: PointKey::Nominal,
//!         bank_temp_bits: Vec::new(),
//!         gated_bank: Some(1),
//!     }],
//!     finals: FinalStats { cycles: 500, uops: 1000, tc_hit_rate: 0.9, mispredict_rate: 0.05 },
//! };
//! let bytes = trace.encode();
//! assert_eq!(ActivityTrace::decode(&bytes).unwrap(), trace);
//! assert_eq!(trace.meta.capability_id(), "nominal");
//! ```

use crate::codec::{CodecError, Reader, Writer};

/// The serialization version, the only one written and read; see the
/// module docs for the policy.
pub const TRACE_FORMAT_VERSION: u32 = 4;

/// The format version every [`Fingerprint`] is seeded with: the trace
/// format at which cached result bytes last changed meaning. DFAT v4
/// changed what a trace stores, not what any run produces, so results
/// addressed under the v3 seed stay valid and the seed stays 3. Bump it
/// (and the pinned job fingerprints) with a change that moves result
/// bytes through the trace format.
pub const FINGERPRINT_VERSION: u32 = 3;

/// Magic bytes opening every serialized trace.
pub const TRACE_MAGIC: [u8; 4] = *b"DFAT";

/// A stable, toolchain-independent content hash for addressing derived
/// artifacts (cached sweep results, trace identities) by what produced
/// them.
///
/// This is 64-bit FNV-1a over an explicitly enumerated byte stream — not
/// `std::hash`, whose `DefaultHasher` output is unspecified across
/// toolchains and whose `Hash` derives change silently when fields are
/// reordered. Every hasher is seeded with [`TRACE_MAGIC`] and
/// [`FINGERPRINT_VERSION`], so a format bump that changes result bytes
/// changes every fingerprint derived through this type: a result cached
/// against format v2 can never be served to a client speaking v3 (the
/// same lesson as the warm-start key's leakage bits — identity must cover
/// every input the bytes depend on).
///
/// Multi-byte integers are folded little-endian and floats as their exact
/// IEEE-754 bits, matching the trace codec's conventions.
///
/// # Examples
///
/// ```
/// use distfront_trace::record::Fingerprint;
///
/// let a = Fingerprint::new().with_bytes(b"baseline").with_u64(40_000);
/// let b = Fingerprint::new().with_bytes(b"baseline").with_u64(40_000);
/// assert_eq!(a.finish(), b.finish());
/// assert_ne!(a.finish(), Fingerprint::new().finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher seeded with the trace-format magic and
    /// [`FINGERPRINT_VERSION`].
    #[allow(clippy::new_without_default)] // seeded, not empty: Default would lie
    pub fn new() -> Self {
        Fingerprint(Self::FNV_OFFSET)
            .with_bytes(&TRACE_MAGIC)
            .with_u32(FINGERPRINT_VERSION)
    }

    /// Folds raw bytes into the hash.
    #[must_use]
    pub fn with_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::FNV_PRIME);
        }
        self
    }

    /// Folds a length-prefixed string (so `"ab","c"` and `"a","bc"`
    /// fingerprint differently).
    #[must_use]
    pub fn with_str(self, s: &str) -> Self {
        self.with_u64(s.len() as u64).with_bytes(s.as_bytes())
    }

    /// Folds a `u32`, little-endian.
    #[must_use]
    pub fn with_u32(self, v: u32) -> Self {
        self.with_bytes(&v.to_le_bytes())
    }

    /// Folds a `u64`, little-endian.
    #[must_use]
    pub fn with_u64(self, v: u64) -> Self {
        self.with_bytes(&v.to_le_bytes())
    }

    /// Folds a float's exact IEEE-754 bits (so `-0.0` and `0.0`, or two
    /// NaN payloads, are distinct — bit identity, not numeric equality).
    #[must_use]
    pub fn with_f64(self, v: f64) -> Self {
        self.with_u64(v.to_bits())
    }

    /// The 64-bit content hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The machine shape a trace's flattened counters describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    /// Frontend partitions.
    pub partitions: u32,
    /// Backend clusters.
    pub backends: u32,
    /// Physical trace-cache banks.
    pub tc_banks: u32,
}

impl TraceShape {
    /// Number of `u64` words in one flattened activity-counter record for
    /// this shape. The layout (defined by `distfront_uarch`'s flattening,
    /// which tests itself against this formula) is: 12 scalar counters,
    /// the per-bank accesses, 6 per-partition vectors, then 15 counters
    /// per backend cluster.
    pub fn flat_len(&self) -> usize {
        12 + self.tc_banks as usize + 6 * self.partitions as usize + 15 * self.backends as usize
    }
}

/// An operating point: the DTM actuator state the core runs under during
/// an interval.
///
/// Keys identify points exactly: DVFS scale factors are carried as raw
/// IEEE-754 bits so key equality is bit equality, matching the policy's
/// own parameters with no float rounding in between, and replay compares
/// the recorded key with the one its own action selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PointKey {
    /// No core-side actuator engaged (also covers power-level throttling,
    /// which never perturbs the activity stream).
    Nominal,
    /// Global DVFS at `f_scale`/`v_scale` (stored as exact f64 bits).
    Dvfs {
        /// `f_scale.to_bits()`.
        f_bits: u64,
        /// `v_scale.to_bits()`.
        v_bits: u64,
    },
    /// Fetch toggling at an `open`-of-`period` duty cycle.
    FetchGate {
        /// Cycles per period the fetch unit is enabled.
        open: u32,
        /// Period of the gating pattern in cycles.
        period: u32,
    },
    /// Dispatch biased toward frontend partition `0`'s…`n`'s backends.
    MigrateTo(u32),
}

impl PointKey {
    /// A DVFS point from scale factors (exact-bit key).
    pub fn dvfs(f_scale: f64, v_scale: f64) -> Self {
        PointKey::Dvfs {
            f_bits: f_scale.to_bits(),
            v_bits: v_scale.to_bits(),
        }
    }

    /// A short, stable, filesystem-safe label (`nominal`,
    /// `dvfs(0.7x0.85)`, `gate(1of2)`, `migrate(1)`), used to build
    /// [`TraceMeta::capability_id`].
    pub fn label(&self) -> String {
        match self {
            PointKey::Nominal => "nominal".to_string(),
            PointKey::Dvfs { f_bits, v_bits } => format!(
                "dvfs({}x{})",
                f64::from_bits(*f_bits),
                f64::from_bits(*v_bits)
            ),
            PointKey::FetchGate { open, period } => format!("gate({open}of{period})"),
            PointKey::MigrateTo(p) => format!("migrate({p})"),
        }
    }

    /// Structural validity against a machine shape.
    fn validate(&self, shape: &TraceShape) -> Result<(), TraceCodecError> {
        match self {
            PointKey::Nominal => Ok(()),
            PointKey::Dvfs { f_bits, v_bits } => {
                let (f, v) = (f64::from_bits(*f_bits), f64::from_bits(*v_bits));
                if !(f.is_finite() && v.is_finite() && 0.0 < f && f <= 1.0 && 0.0 < v && v <= 1.0) {
                    return Err(TraceCodecError::Corrupt("DVFS point outside (0, 1]"));
                }
                Ok(())
            }
            PointKey::FetchGate { open, period } => {
                if *open == 0 || *period == 0 || open > period {
                    return Err(TraceCodecError::Corrupt("fetch-gate point invalid duty"));
                }
                Ok(())
            }
            PointKey::MigrateTo(p) => {
                if *p >= shape.partitions {
                    return Err(TraceCodecError::Corrupt("migration point outside shape"));
                }
                Ok(())
            }
        }
    }
}

/// Renders operating points as the canonical store-key string
/// (`nominal+dvfs(0.7x0.85)` …); see [`TraceMeta::capability_id`].
pub fn points_id(points: &[PointKey]) -> String {
    points
        .iter()
        .map(PointKey::label)
        .collect::<Vec<_>>()
        .join("+")
}

/// Run-identifying metadata stored in the trace header. Replay validates
/// these against the target configuration: the core-side fields (seed,
/// run length, pilot length, interval, shape, hop) must match exactly,
/// while the power/thermal/DTM side is free to differ — that is the whole
/// point of replaying — as long as the replay stays on the recorded path,
/// which it checks every interval.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Format version the trace was **read from** (informational:
    /// [`ActivityTrace::encode`] always writes the current version).
    pub version: u32,
    /// Workload name (an `AppProfile` or `PhasedProfile` name).
    pub workload: String,
    /// Name of the experiment configuration the trace was recorded under.
    pub config: String,
    /// Opaque fingerprint of the full core-side (processor) configuration,
    /// computed by the recorder. Replay recomputes it for the target
    /// configuration and rejects any mismatch, so two configurations that
    /// share shape, seed and run length but differ elsewhere in the core
    /// (e.g. only in a cache mapping policy) can never silently stand in
    /// for each other. The hash is stable within a toolchain; across
    /// toolchains a mismatch merely forces a (cheap) re-record.
    pub processor_fingerprint: u64,
    /// Workload seed.
    pub seed: u64,
    /// Micro-ops simulated per application.
    pub uops_per_app: u64,
    /// Micro-ops the pilot ran (never 0): the recorded pilot activity,
    /// hence the nominal power every interval's power is relative to.
    pub pilot_uops: u64,
    /// Control/thermal interval in cycles.
    pub interval_cycles: u64,
    /// Machine shape of the flattened counters.
    pub shape: TraceShape,
    /// Whether trace-cache bank hopping was enabled.
    pub hop: bool,
    /// `false` when the run was driven by an arbitrary boxed DTM policy
    /// that no configuration describes — such a recording carries the
    /// live stream but is never stored or replayed.
    pub replay_safe: bool,
    /// Name of the record-time DTM policy, if one was configured.
    pub dtm: Option<String>,
    /// The recording configuration's operating points,
    /// [`PointKey::Nominal`] first, then what its DTM policy could engage:
    /// the trace's store identity (see the module docs), not recorded
    /// data.
    pub points: Vec<PointKey>,
}

impl TraceMeta {
    /// The canonical store identity of this trace: `"tainted"` for
    /// recordings that are never replayed, else the `+`-joined labels of
    /// its [`points`](Self::points) (`"nominal"`, `"nominal+gate(1of2)"`,
    /// …). Stable across runs and toolchains; used as the [`TraceStore`]
    /// key component and the trace file-name suffix.
    ///
    /// [`TraceStore`]: ../../distfront/engine/struct.TraceStore.html
    pub fn capability_id(&self) -> String {
        if !self.replay_safe {
            return "tainted".to_string();
        }
        points_id(&self.points)
    }
}

/// One evaluation interval of the path the live run took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Flattened activity-counter words (`distfront_uarch`'s
    /// `ActivityCounters` in canonical order); length is exactly
    /// [`TraceShape::flat_len`].
    pub counters: Vec<u64>,
    /// Whether the run's micro-op budget was reached in this interval.
    pub done: bool,
    /// The operating point the live DTM action selected for the interval.
    pub point: PointKey,
    /// The exact IEEE-754 bits of the bank temperatures a
    /// temperature-biased trace-cache mapping read as the interval
    /// started, one per physical bank; empty when the mapping read none
    /// (an unbiased mapping, or the first interval).
    pub bank_temp_bits: Vec<u64>,
    /// The Vdd-gated trace-cache bank during this interval, if any.
    pub gated_bank: Option<u8>,
}

/// End-of-run statistics the report surface needs but the replayed
/// power/thermal loop cannot recompute (they belong to the core
/// simulator). Floats are carried bit-exactly so a replayed report is
/// byte-identical to the live one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinalStats {
    /// Total cycles to commit the budget.
    pub cycles: u64,
    /// Micro-ops committed.
    pub uops: u64,
    /// Trace-cache hit rate over the run.
    pub tc_hit_rate: f64,
    /// Branch misprediction rate over the run.
    pub mispredict_rate: f64,
}

/// A complete recorded run: header, pilot activity, per-interval records
/// and final statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityTrace {
    /// Run-identifying metadata.
    pub meta: TraceMeta,
    /// The pilot phase's merged flattened activity (length
    /// [`TraceShape::flat_len`]), from which replay re-derives the nominal
    /// power profile bit-exactly.
    pub pilot: Vec<u64>,
    /// One record per evaluation interval, in execution order.
    pub intervals: Vec<IntervalRecord>,
    /// End-of-run statistics.
    pub finals: FinalStats,
}

/// Why a byte stream failed to decode as an [`ActivityTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCodecError {
    /// The stream does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The stream's version is not [`TRACE_FORMAT_VERSION`], the only
    /// one this build reads.
    UnsupportedVersion(u32),
    /// The stream ended inside the named section.
    Truncated(&'static str),
    /// A structural invariant failed (bad lengths, invalid UTF-8,
    /// trailing bytes).
    Corrupt(&'static str),
}

impl From<CodecError> for TraceCodecError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(what) => TraceCodecError::Truncated(what),
            CodecError::Corrupt(what) => TraceCodecError::Corrupt(what),
        }
    }
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::BadMagic => write!(f, "not an activity trace (bad magic)"),
            TraceCodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (this build reads \
                     {TRACE_FORMAT_VERSION} only)"
                )
            }
            TraceCodecError::Truncated(what) => write!(f, "trace truncated in {what}"),
            TraceCodecError::Corrupt(what) => write!(f, "trace corrupt: {what}"),
        }
    }
}

impl std::error::Error for TraceCodecError {}

/// Sentinel encoding `gated_bank: None` (a machine never has 2^16−1
/// physical banks).
const NO_GATED_BANK: u16 = u16::MAX;

/// [`PointKey`] wire tags.
const POINT_NOMINAL: u8 = 0;
const POINT_DVFS: u8 = 1;
const POINT_FETCH_GATE: u8 = 2;
const POINT_MIGRATE: u8 = 3;

/// Appends a [`PointKey`] in the tagged wire layout.
fn write_point_key(w: &mut Writer, key: &PointKey) {
    match key {
        PointKey::Nominal => w.u8(POINT_NOMINAL),
        PointKey::Dvfs { f_bits, v_bits } => {
            w.u8(POINT_DVFS);
            w.u64(*f_bits);
            w.u64(*v_bits);
        }
        PointKey::FetchGate { open, period } => {
            w.u8(POINT_FETCH_GATE);
            w.u32(*open);
            w.u32(*period);
        }
        PointKey::MigrateTo(p) => {
            w.u8(POINT_MIGRATE);
            w.u32(*p);
        }
    }
}

/// Reads a [`PointKey`] in the tagged wire layout and validates it
/// against the machine shape.
fn read_point_key(
    r: &mut Reader<'_>,
    shape: &TraceShape,
    what: &'static str,
) -> Result<PointKey, TraceCodecError> {
    let key = match r.u8(what)? {
        POINT_NOMINAL => PointKey::Nominal,
        POINT_DVFS => PointKey::Dvfs {
            f_bits: r.u64(what)?,
            v_bits: r.u64(what)?,
        },
        POINT_FETCH_GATE => PointKey::FetchGate {
            open: r.u32(what)?,
            period: r.u32(what)?,
        },
        POINT_MIGRATE => PointKey::MigrateTo(r.u32(what)?),
        _ => return Err(TraceCodecError::Corrupt("unknown operating-point tag")),
    };
    key.validate(shape)?;
    Ok(key)
}

/// Reads the gated-bank `u16` (sentinel [`NO_GATED_BANK`] = none) and
/// validates it against the machine shape.
fn read_gated_bank(r: &mut Reader<'_>, shape: &TraceShape) -> Result<Option<u8>, TraceCodecError> {
    let gated = r.u16("gated bank")?;
    if gated == NO_GATED_BANK {
        Ok(None)
    } else if gated <= u16::from(u8::MAX) && (u32::from(gated)) < shape.tc_banks {
        Ok(Some(gated as u8))
    } else {
        Err(TraceCodecError::Corrupt("gated bank outside shape"))
    }
}

impl ActivityTrace {
    /// Serializes the trace to the versioned binary format
    /// ([`TRACE_FORMAT_VERSION`]).
    pub fn encode(&self) -> Vec<u8> {
        let flat = self.pilot.len();
        // Per interval: the gated bank, the done flag, a tag-sized key,
        // a temperature count and the count-prefixed counter row.
        let per_interval = 16 + 8 * flat;
        let mut w = Writer::with_capacity(128 + 8 * flat + self.intervals.len() * per_interval);
        w.header(&TRACE_MAGIC, TRACE_FORMAT_VERSION);
        w.str(&self.meta.workload);
        w.str(&self.meta.config);
        w.u64(self.meta.processor_fingerprint);
        w.u64(self.meta.seed);
        w.u64(self.meta.uops_per_app);
        w.u64(self.meta.pilot_uops);
        w.u64(self.meta.interval_cycles);
        w.u32(self.meta.shape.partitions);
        w.u32(self.meta.shape.backends);
        w.u32(self.meta.shape.tc_banks);
        w.u8(u8::from(self.meta.hop));
        w.u8(u8::from(self.meta.replay_safe));
        match &self.meta.dtm {
            None => w.u8(0),
            Some(name) => {
                w.u8(1);
                w.str(name);
            }
        }
        w.u32(self.meta.points.len() as u32);
        for key in &self.meta.points {
            write_point_key(&mut w, key);
        }
        w.words(&self.pilot);
        w.u32(self.intervals.len() as u32);
        for rec in &self.intervals {
            w.u16(rec.gated_bank.map_or(NO_GATED_BANK, u16::from));
            w.u8(u8::from(rec.done));
            write_point_key(&mut w, &rec.point);
            w.words(&rec.bank_temp_bits);
            w.words(&rec.counters);
        }
        w.u64(self.finals.cycles);
        w.u64(self.finals.uops);
        w.f64(self.finals.tc_hit_rate);
        w.f64(self.finals.mispredict_rate);
        w.into_vec()
    }

    /// Deserializes a trace, validating structure as described in the
    /// module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceCodecError`] naming the first violated invariant;
    /// a stream of any version but [`TRACE_FORMAT_VERSION`] is
    /// [`TraceCodecError::UnsupportedVersion`].
    pub fn decode(bytes: &[u8]) -> Result<ActivityTrace, TraceCodecError> {
        let mut r = Reader::new(bytes);
        if r.take(4, "magic")? != TRACE_MAGIC {
            return Err(TraceCodecError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(TraceCodecError::UnsupportedVersion(version));
        }
        let workload = r.str("workload name")?;
        let config = r.str("config name")?;
        let processor_fingerprint = r.u64("processor fingerprint")?;
        let seed = r.u64("seed")?;
        let uops_per_app = r.u64("uops")?;
        let pilot_uops = r.u64("pilot uops")?;
        if pilot_uops == 0 {
            return Err(TraceCodecError::Corrupt("empty pilot"));
        }
        let interval_cycles = r.u64("interval")?;
        let shape = TraceShape {
            partitions: r.u32("shape")?,
            backends: r.u32("shape")?,
            tc_banks: r.u32("shape")?,
        };
        if shape.partitions == 0 || shape.backends == 0 || shape.tc_banks == 0 {
            return Err(TraceCodecError::Corrupt("degenerate machine shape"));
        }
        let hop = r.flag("hop flag")?;
        let replay_safe = r.flag("replay-safe flag")?;
        let dtm = match r.u8("dtm flag")? {
            0 => None,
            1 => Some(r.str("dtm name")?),
            _ => return Err(TraceCodecError::Corrupt("dtm flag byte not 0/1")),
        };
        let n_points = r.u32("point family")? as usize;
        let mut points = Vec::with_capacity(n_points.min(1 << 12));
        for _ in 0..n_points {
            points.push(read_point_key(&mut r, &shape, "point family")?);
        }
        if points.first() != Some(&PointKey::Nominal) {
            return Err(TraceCodecError::Corrupt("family must start nominal"));
        }
        if (1..points.len()).any(|i| points[..i].contains(&points[i])) {
            return Err(TraceCodecError::Corrupt("duplicate operating point"));
        }
        let flat_len = shape.flat_len();
        let pilot = r.words("pilot counters")?;
        if pilot.len() != flat_len {
            return Err(TraceCodecError::Corrupt("pilot length mismatches shape"));
        }
        let n = r.u32("interval count")? as usize;
        let mut intervals = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let gated_bank = read_gated_bank(&mut r, &shape)?;
            let done = r.flag("done flag")?;
            let point = read_point_key(&mut r, &shape, "interval point")?;
            let bank_temp_bits = r.words("bank temperatures")?;
            if !bank_temp_bits.is_empty() && bank_temp_bits.len() != shape.tc_banks as usize {
                return Err(TraceCodecError::Corrupt(
                    "bank temperature count mismatches shape",
                ));
            }
            let counters = r.words("interval counters")?;
            if counters.len() != flat_len {
                return Err(TraceCodecError::Corrupt("interval length mismatches shape"));
            }
            intervals.push(IntervalRecord {
                counters,
                done,
                point,
                bank_temp_bits,
                gated_bank,
            });
        }
        let finals = FinalStats {
            cycles: r.u64("final stats")?,
            uops: r.u64("final stats")?,
            tc_hit_rate: r.f64("final stats")?,
            mispredict_rate: r.f64("final stats")?,
        };
        r.expect_end()?;
        Ok(ActivityTrace {
            meta: TraceMeta {
                version,
                workload,
                config,
                processor_fingerprint,
                seed,
                uops_per_app,
                pilot_uops,
                interval_cycles,
                shape,
                hop,
                replay_safe,
                dtm,
                points,
            },
            pilot,
            intervals,
            finals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    fn sample_points(rng: &mut SplitMix64, shape: &TraceShape) -> Vec<PointKey> {
        let mut points = vec![PointKey::Nominal];
        if rng.chance(0.4) {
            points.push(PointKey::dvfs(0.7, 0.85));
        }
        if rng.chance(0.4) {
            points.push(PointKey::FetchGate { open: 1, period: 2 });
        }
        if rng.chance(0.4) {
            for p in 0..shape.partitions {
                points.push(PointKey::MigrateTo(p));
            }
        }
        points
    }

    fn sample_trace(seed: u64) -> ActivityTrace {
        let mut rng = SplitMix64::new(seed);
        let shape = TraceShape {
            partitions: 1 + (rng.next_below(3) as u32),
            backends: 1 + (rng.next_below(6) as u32),
            tc_banks: 1 + (rng.next_below(4) as u32),
        };
        let flat = shape.flat_len();
        let points = sample_points(&mut rng, &shape);
        let biased = rng.chance(0.5);
        let pilot = (0..flat).map(|_| rng.next_u64()).collect();
        let n_intervals = 1 + rng.next_below(6) as usize;
        let mut intervals = Vec::new();
        for i in 0..n_intervals {
            let gated = if rng.chance(0.5) {
                Some(rng.next_below(u64::from(shape.tc_banks)) as u8)
            } else {
                None
            };
            let read_temps = biased && i > 0;
            intervals.push(IntervalRecord {
                counters: (0..flat).map(|_| rng.next_u64()).collect(),
                done: i + 1 == n_intervals && rng.chance(0.8),
                point: points[rng.next_below(points.len() as u64) as usize],
                bank_temp_bits: (0..shape.tc_banks)
                    .filter(|_| read_temps)
                    .map(|_| rng.next_u64())
                    .collect(),
                gated_bank: gated,
            });
        }
        let name_pool = ["tiny", "gzip-mcf", "mix3", "baseline", "drc+bh+ab"];
        ActivityTrace {
            meta: TraceMeta {
                version: TRACE_FORMAT_VERSION,
                workload: name_pool[rng.next_below(5) as usize].to_string(),
                config: name_pool[rng.next_below(5) as usize].to_string(),
                processor_fingerprint: rng.next_u64(),
                seed: rng.next_u64(),
                uops_per_app: rng.next_u64(),
                pilot_uops: 1 + rng.next_below(u64::MAX - 1),
                interval_cycles: rng.next_u64(),
                shape,
                hop: rng.chance(0.5),
                replay_safe: rng.chance(0.9),
                dtm: rng.chance(0.5).then(|| "emergency-throttle".to_string()),
                points,
            },
            pilot,
            intervals,
            finals: FinalStats {
                cycles: rng.next_u64(),
                uops: rng.next_u64(),
                tc_hit_rate: rng.next_f64(),
                mispredict_rate: rng.next_f64(),
            },
        }
    }

    proptest! {
        /// encode → decode is the identity for arbitrary traces, fully
        /// random counters and temperature bits included.
        #[test]
        fn encode_decode_roundtrip(seed in 0u64..1_000_000_000) {
            let trace = sample_trace(seed);
            let bytes = trace.encode();
            let back = ActivityTrace::decode(&bytes).unwrap();
            prop_assert_eq!(back, trace);
        }

        /// Truncating an encoded trace anywhere fails loudly, never
        /// panics, and never yields a successful decode.
        #[test]
        fn truncation_is_detected(seed in 0u64..1_000_000, frac in 0.0f64..1.0) {
            let bytes = sample_trace(seed).encode();
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(ActivityTrace::decode(&bytes[..cut]).is_err());
        }

        /// The retired v1 (single-row) layout is not read: a stream
        /// declaring it is `UnsupportedVersion`, so its cells run live,
        /// and truncating it anywhere still fails loudly.
        #[test]
        fn v1_is_rejected_as_unsupported(seed in 0u64..1_000_000, frac in 0.0f64..1.0) {
            check_retired_version(seed, 1, frac);
        }

        /// Likewise the retired v2 layout (raw variant rows).
        #[test]
        fn v2_is_rejected_as_unsupported(seed in 0u64..1_000_000, frac in 0.0f64..1.0) {
            check_retired_version(seed, 2, frac);
        }

        /// Likewise the retired v3 layout (delta-coded variant rows).
        #[test]
        fn v3_is_rejected_as_unsupported(seed in 0u64..1_000_000, frac in 0.0f64..1.0) {
            check_retired_version(seed, 3, frac);
        }
    }

    /// A v4 stream of `sample_trace(seed)` relabelled as `version`
    /// decodes to `UnsupportedVersion(version)`, whole or cut at `frac`.
    fn check_retired_version(seed: u64, version: u32, frac: f64) {
        let mut bytes = sample_trace(seed).encode();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            ActivityTrace::decode(&bytes),
            Err(TraceCodecError::UnsupportedVersion(version))
        );
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        assert!(ActivityTrace::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn flat_len_formula() {
        let s = TraceShape {
            partitions: 2,
            backends: 4,
            tc_banks: 3,
        };
        assert_eq!(s.flat_len(), 12 + 3 + 12 + 60);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample_trace(1).encode();
        assert_eq!(
            ActivityTrace::decode(b"NOPE"),
            Err(TraceCodecError::BadMagic)
        );
        bytes[4] = 99;
        assert_eq!(
            ActivityTrace::decode(&bytes),
            Err(TraceCodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_trace(2).encode();
        bytes.push(0);
        assert_eq!(
            ActivityTrace::decode(&bytes),
            Err(TraceCodecError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn truncation_mid_row_names_the_section() {
        // The last interval's counter row ends where the 32 bytes of
        // final stats begin, so a cut 3 bytes shy of them lands inside it.
        let bytes = sample_trace(9).encode();
        let cut = bytes.len() - 32 - 3;
        assert_eq!(
            ActivityTrace::decode(&bytes[..cut]),
            Err(TraceCodecError::Truncated("interval counters"))
        );
    }

    #[test]
    fn gated_bank_255_round_trips_on_a_wide_machine() {
        // The u8 range's top value is a legal bank index when the shape
        // is wide enough; only the u16::MAX sentinel means "none".
        let mut trace = sample_trace(8);
        trace.meta.shape.tc_banks = 300;
        let flat = trace.meta.shape.flat_len();
        trace.pilot = vec![1; flat];
        for rec in &mut trace.intervals {
            rec.counters = vec![2; flat];
            rec.bank_temp_bits.clear();
            rec.gated_bank = Some(255);
        }
        let back = ActivityTrace::decode(&trace.encode()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn gated_bank_outside_shape_is_corrupt() {
        let mut trace = sample_trace(3);
        trace.intervals[0].gated_bank = Some(trace.meta.shape.tc_banks as u8);
        let bytes = trace.encode();
        assert_eq!(
            ActivityTrace::decode(&bytes),
            Err(TraceCodecError::Corrupt("gated bank outside shape"))
        );
    }

    #[test]
    fn family_invariants_are_enforced() {
        // Family must open with the nominal point…
        let mut trace = sample_trace(4);
        trace.meta.points = vec![PointKey::dvfs(0.7, 0.85)];
        assert_eq!(
            ActivityTrace::decode(&trace.encode()),
            Err(TraceCodecError::Corrupt("family must start nominal"))
        );
        // …must not repeat a point…
        trace.meta.points = vec![PointKey::Nominal, PointKey::Nominal];
        assert_eq!(
            ActivityTrace::decode(&trace.encode()),
            Err(TraceCodecError::Corrupt("duplicate operating point"))
        );
        // …and a migration point must land inside the machine shape.
        trace.meta.points = vec![
            PointKey::Nominal,
            PointKey::MigrateTo(trace.meta.shape.partitions),
        ];
        assert_eq!(
            ActivityTrace::decode(&trace.encode()),
            Err(TraceCodecError::Corrupt("migration point outside shape"))
        );
    }

    #[test]
    fn capability_id_is_stable_and_tainted_recordings_say_so() {
        let mut trace = sample_trace(6);
        trace.meta.replay_safe = true;
        trace.meta.points = vec![
            PointKey::Nominal,
            PointKey::dvfs(0.7, 0.85),
            PointKey::FetchGate { open: 1, period: 2 },
            PointKey::MigrateTo(1),
        ];
        assert_eq!(
            trace.meta.capability_id(),
            "nominal+dvfs(0.7x0.85)+gate(1of2)+migrate(1)"
        );
        trace.meta.replay_safe = false;
        assert_eq!(trace.meta.capability_id(), "tainted");
    }

    #[test]
    fn fingerprint_is_seeded_with_format_version() {
        // An empty fingerprint is NOT the bare FNV offset basis: the
        // format magic and the fingerprint version are folded in first,
        // so a version bump invalidates every derived content address.
        let empty = Fingerprint::new().finish();
        assert_ne!(empty, 0xcbf2_9ce4_8422_2325);
        // Reconstruct by hand: offset basis -> magic -> version LE.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in TRACE_MAGIC
            .iter()
            .copied()
            .chain(FINGERPRINT_VERSION.to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(empty, h);
    }

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        let ab_c = Fingerprint::new().with_str("ab").with_str("c").finish();
        let a_bc = Fingerprint::new().with_str("a").with_str("bc").finish();
        assert_ne!(ab_c, a_bc, "length prefixes must separate fields");
        let xy = Fingerprint::new().with_u64(1).with_u64(2).finish();
        let yx = Fingerprint::new().with_u64(2).with_u64(1).finish();
        assert_ne!(xy, yx);
        // Bit identity for floats: -0.0 and 0.0 differ.
        assert_ne!(
            Fingerprint::new().with_f64(0.0).finish(),
            Fingerprint::new().with_f64(-0.0).finish()
        );
    }

    #[test]
    fn errors_display_helpfully() {
        let msgs = [
            TraceCodecError::BadMagic.to_string(),
            TraceCodecError::UnsupportedVersion(7).to_string(),
            TraceCodecError::Truncated("pilot counters").to_string(),
            TraceCodecError::Corrupt("trailing bytes").to_string(),
        ];
        assert!(msgs[0].contains("magic"));
        assert!(msgs[1].contains("version 7"));
        assert!(msgs[2].contains("pilot"));
        assert!(msgs[3].contains("trailing"));
    }
}
