// Package xlate is the long-lived, concurrent translation service:
// the cluster-scale counterpart of the batch experiment runner. Where
// the simulator owns one tlbcache per simulated NIC and drives it
// single-threaded, this service shards one logical translation table
// across independent tlbcache instances — power-of-two shard count,
// each shard behind its own mutex — so concurrent lookups from many
// clients never contend on a global lock (the memlock-proxy /
// region-spinlock idiom of UMA-TLB implementations, and SPARTA's
// divide-and-conquer translation partitioning).
//
// Requests are routed to shards by a multiplicative hash of
// (pid, vpn), the same mixing the tlbcache Dense table uses, so
// consecutive pages of one process and the same page across processes
// both spread across shards. Within a shard, the stock tlbcache
// set-associative geometry, LRU replacement and index offsetting all
// apply unchanged — a one-shard service is behaviourally identical to
// a bare tlbcache.Cache.
//
// All counters are plain per-shard sums snapshotted under the shard
// lock, so Stats totals are a deterministic function of the operation
// multiset: any interleaving of the same client operations aggregates
// to byte-identical totals.
package xlate

import (
	"fmt"
	"sync"

	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// Key identifies one translation; it aliases the tlbcache key so
// callers move between the batch and service worlds without copying.
type Key = tlbcache.Key

// Result is one lookup outcome (tlbcache's, unchanged).
type Result = tlbcache.Result

// Config parameterises the service.
type Config struct {
	// Shards is the number of independent translation units; must be a
	// positive power of two (the shard router masks hash bits).
	Shards int
	// Entries, Ways and IndexOffset configure each shard's cache with
	// the usual tlbcache geometry. Entries is per shard: total service
	// capacity is Shards*Entries.
	Entries     int
	Ways        int
	IndexOffset bool
}

// DefaultConfig is the service geometry `utlbsim serve` starts with:
// 8 shards of the paper's 8 K-entry, 4-way cache with index
// offsetting — 64 K translations of aggregate reach.
func DefaultConfig() Config {
	return Config{Shards: 8, Entries: 8192, Ways: 4, IndexOffset: true}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Shards <= 0 || c.Shards&(c.Shards-1) != 0 {
		return fmt.Errorf("xlate: shard count %d not a positive power of two", c.Shards)
	}
	return c.shardConfig().Validate()
}

func (c Config) shardConfig() tlbcache.Config {
	return tlbcache.Config{Entries: c.Entries, Ways: c.Ways, IndexOffset: c.IndexOffset}
}

// shard is one translation unit: a stock tlbcache behind its own
// lock. Shards share nothing, so lookups to different shards proceed
// fully in parallel.
type shard struct {
	mu    sync.Mutex
	cache *tlbcache.Cache
}

// Service is a sharded, concurrent-safe translation service.
type Service struct {
	cfg    Config
	mask   uint64
	shards []shard
	tel    *telemetry.Sink // nil = live telemetry disabled; every hook is nil-safe
}

// New returns a service for cfg.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		shards: make([]shard, cfg.Shards),
	}
	for i := range s.shards {
		s.shards[i].cache = tlbcache.New(cfg.shardConfig())
	}
	return s, nil
}

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// shardIndex routes k to its shard: a multiplicative hash mixing the
// process and page halves (the tlbcache Dense constants), folded so
// the masked low bits carry high-order entropy. The shard hash is a
// different function of (pid, vpn) than the in-shard set index, so
// sharding does not correlate with set placement.
func (s *Service) shardIndex(k Key) int {
	h := uint64(k.VPN)*0x9E3779B97F4A7C15 + uint64(k.PID)*0xC2B2AE3D27D4EB4F
	return int((h ^ (h >> 29)) & s.mask)
}

// Lookup probes the service for k. With telemetry attached the probe
// is timed as a one-key shard segment, and a sampled request retains
// its trace chain.
func (s *Service) Lookup(k Key) Result {
	t := s.tel
	id, sampled := t.BeginRequest()
	si := s.shardIndex(k)
	start := t.Now()
	sh := &s.shards[si]
	sh.mu.Lock()
	r := sh.cache.Lookup(k)
	sh.mu.Unlock()
	end := t.Now()
	var hits int64
	if r.Hit {
		hits = 1
	}
	t.RecordLookups(si, 1, hits, end-start, end)
	if sampled {
		s.traceOne(id, si, start, end, hits)
	}
	return r
}

// Insert installs k→pfn, evicting within k's shard if needed. It is
// timed and traced like Lookup.
func (s *Service) Insert(k Key, pfn units.PFN) (evicted Key, wasEvicted bool) {
	t := s.tel
	id, sampled := t.BeginRequest()
	si := s.shardIndex(k)
	start := t.Now()
	sh := &s.shards[si]
	sh.mu.Lock()
	evicted, wasEvicted = sh.cache.Insert(k, pfn)
	sh.mu.Unlock()
	end := t.Now()
	var ev int64
	if wasEvicted {
		ev = 1
	}
	t.RecordInserts(si, 1, ev, end-start, end)
	if sampled {
		s.traceOne(id, si, start, end, 0)
	}
	return evicted, wasEvicted
}

// Invalidate removes k if present, reporting whether it was.
func (s *Service) Invalidate(k Key) bool {
	si := s.shardIndex(k)
	sh := &s.shards[si]
	sh.mu.Lock()
	ok := sh.cache.Invalidate(k)
	sh.mu.Unlock()
	if ok {
		s.tel.RecordInvalidations(si, 1, s.tel.Now())
	}
	return ok
}

// InvalidateProcess removes every entry belonging to pid across all
// shards (process exit), returning the number of entries dropped.
func (s *Service) InvalidateProcess(pid units.ProcID) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dropped := sh.cache.InvalidateProcess(pid)
		sh.mu.Unlock()
		if dropped > 0 {
			s.tel.RecordInvalidations(i, int64(dropped), s.tel.Now())
		}
		n += dropped
	}
	return n
}

// LookupMany resolves keys into out (grown if needed) and returns it.
// Requests are grouped per shard so each shard lock is taken at most
// once per batch, however the keys interleave — the amortisation that
// makes bulk lookups cheap. out[i] corresponds to keys[i]. With
// telemetry attached, each per-shard segment (one lock acquisition
// covering every key routed to that shard) is timed and charged to its
// shard, and a sampled request retains one chain with a segment event
// per shard touched.
func (s *Service) LookupMany(keys []Key, out []Result) []Result {
	if cap(out) < len(keys) {
		out = make([]Result, len(keys))
	}
	out = out[:len(keys)]
	t := s.tel
	id, sampled := t.BeginRequest()
	reqStart := t.Now()
	var tr *telemetry.Trace
	if sampled {
		tr = t.StartTrace(id, reqStart, len(keys))
	}
	var totalHits int64
	for si := range s.shards {
		sh := &s.shards[si]
		locked := false
		var n, hits, segStart int64
		for i := range keys {
			if s.shardIndex(keys[i]) != si {
				continue
			}
			if !locked {
				segStart = t.Now()
				sh.mu.Lock()
				locked = true
			}
			out[i] = sh.cache.Lookup(keys[i])
			n++
			if out[i].Hit {
				hits++
			}
		}
		if locked {
			sh.mu.Unlock()
			end := t.Now()
			t.RecordLookups(si, n, hits, end-segStart, end)
			if tr != nil {
				tr.Shard(t, si, n, segStart, end-segStart)
			}
			totalHits += hits
		}
	}
	if tr != nil {
		t.FinishTrace(tr, t.Now(), totalHits)
	}
	return out
}

// InsertMany installs keys[i]→pfns[i] for all i, grouping, timing and
// tracing per shard like LookupMany. It returns the number of
// evictions the batch caused. The slices must be the same length.
func (s *Service) InsertMany(keys []Key, pfns []units.PFN) int {
	if len(keys) != len(pfns) {
		panic(fmt.Sprintf("xlate: InsertMany with %d keys but %d pfns", len(keys), len(pfns)))
	}
	t := s.tel
	id, sampled := t.BeginRequest()
	reqStart := t.Now()
	var tr *telemetry.Trace
	if sampled {
		tr = t.StartTrace(id, reqStart, len(keys))
	}
	evictions := 0
	for si := range s.shards {
		sh := &s.shards[si]
		locked := false
		var n, ev, segStart int64
		for i := range keys {
			if s.shardIndex(keys[i]) != si {
				continue
			}
			if !locked {
				segStart = t.Now()
				sh.mu.Lock()
				locked = true
			}
			if _, e := sh.cache.Insert(keys[i], pfns[i]); e {
				ev++
			}
			n++
		}
		if locked {
			sh.mu.Unlock()
			end := t.Now()
			t.RecordInserts(si, n, ev, end-segStart, end)
			if tr != nil {
				tr.Shard(t, si, n, segStart, end-segStart)
			}
			evictions += int(ev)
		}
	}
	if tr != nil {
		t.FinishTrace(tr, t.Now(), 0)
	}
	return evictions
}

// SyntheticPFN is the deterministic translation the service's HTTP
// insert endpoint and the utlbload generator agree on when no explicit
// frame is given: a mixed function of the key that load clients can
// recompute to verify lookup responses end-to-end.
func SyntheticPFN(k Key) units.PFN {
	h := uint64(k.VPN)*0xFF51AFD7ED558CCD + uint64(k.PID)*2654435761
	h ^= h >> 33
	if units.PFN(h) == units.NoPFN {
		h--
	}
	return units.PFN(h)
}

// Counters is one shard's (or the whole service's) cumulative counter
// snapshot. Lookups is Hits+Misses, kept explicit so consumers need no
// arithmetic. Occupancy is the instantaneous valid-entry count.
type Counters struct {
	Lookups       int64 `json:"lookups"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Fills         int64 `json:"fills"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Occupancy     int64 `json:"occupancy"`
}

func (c *Counters) add(other Counters) {
	c.Lookups += other.Lookups
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.Fills += other.Fills
	c.Evictions += other.Evictions
	c.Invalidations += other.Invalidations
	c.Occupancy += other.Occupancy
}

// ShardStats is one shard's counters, tagged with its index, plus the
// shard's fill level: Capacity is the configured entry count and
// OccupancyPermille is Occupancy/Capacity ×1000 (integer math, so the
// value is exact and byte-stable in JSON) — the number a load heatmap
// reads directly.
type ShardStats struct {
	Shard             int   `json:"shard"`
	Capacity          int64 `json:"capacity"`
	OccupancyPermille int64 `json:"occupancy_permille"`
	Counters
}

// Stats is a consistent-enough snapshot of the whole service: each
// shard is snapshotted atomically under its lock (shard order fixed),
// and Total is the field-wise sum in shard order. Because every field
// is a sum of commutative per-operation increments, Total depends only
// on the multiset of operations performed, not on how clients
// interleaved them.
type Stats struct {
	Shards   int          `json:"shards"`
	Entries  int          `json:"entries_per_shard"`
	Ways     int          `json:"ways"`
	Capacity int64        `json:"capacity"` // Shards*Entries, the aggregate reach
	PerShard []ShardStats `json:"per_shard"`
	Total    Counters     `json:"total"`
}

// Stats snapshots every shard in index order and aggregates totals.
func (s *Service) Stats() Stats {
	st := Stats{
		Shards:   s.cfg.Shards,
		Entries:  s.cfg.Entries,
		Ways:     s.cfg.Ways,
		Capacity: int64(s.cfg.Shards) * int64(s.cfg.Entries),
		PerShard: make([]ShardStats, len(s.shards)),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		cs := sh.cache.Stats()
		occ := sh.cache.Occupancy()
		sh.mu.Unlock()
		st.PerShard[i] = ShardStats{
			Shard:    i,
			Capacity: int64(s.cfg.Entries),
			Counters: Counters{
				Lookups:       cs.Hits + cs.Misses,
				Hits:          cs.Hits,
				Misses:        cs.Misses,
				Fills:         cs.Fills,
				Evictions:     cs.Evictions,
				Invalidations: cs.Invalidations,
				Occupancy:     int64(occ),
			},
		}
		if st.PerShard[i].Capacity > 0 {
			st.PerShard[i].OccupancyPermille = int64(occ) * 1000 / st.PerShard[i].Capacity
		}
		st.Total.add(st.PerShard[i].Counters)
	}
	return st
}
