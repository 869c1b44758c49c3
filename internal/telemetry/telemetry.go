// Package telemetry is the live observability layer for the sharded
// translation service (internal/xlate): where internal/obs records
// post-hoc event timelines for runs that end, this package answers
// questions about a service that never finishes — which shards are
// hot right now, what the p99 looks like over the last minute, and
// whether the service is inside its latency objective.
//
// Three pieces, all integer math on an injectable clock:
//
//   - Per-shard cumulative counters and fixed-bucket log2 latency
//     histograms (the analyze.Digest bucket scheme), updated lock-free
//     with atomics on every Lookup/LookupMany/Insert. The disabled
//     path is a nil *Sink: every hot-path hook is nil-safe, so it costs
//     a nil-receiver check and zero allocations, the obs.Recorder
//     contract.
//
//   - A rolling-window time series: a ring of N fixed-width windows.
//     The hot path checks one atomic against the current window
//     number; on a window boundary (rare) the crossing operation folds
//     the cumulative counter deltas into the window that just closed.
//     No background goroutine, no timers — the ring advances on
//     traffic and on reads, so an idle service costs nothing.
//
//   - An SLO tracker (target p99 + error budget) computed over the
//     window ring, plus deterministic 1-in-N sampled request tracing
//     whose chains export through the existing Chrome-trace writer.
//
// Tests inject a ManualClock and assert byte-exact reports; the
// production WallClock adapter in clock.go is the package's single
// sanctioned wall-clock read (enforced by utlblint's nodeterm rule).
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/units"
)

// Config parameterises a Sink.
type Config struct {
	// Shards is the number of service shards tracked; must match the
	// xlate service the sink attaches to.
	Shards int
	// WindowNs is the width of one rolling window in nanoseconds.
	WindowNs int64
	// Windows is the ring length: the series spans Windows*WindowNs.
	Windows int
	// SampleEvery samples one request in N for tracing (0 disables
	// sampling; 1 traces everything). Sampling is deterministic in the
	// request sequence: request ids are a counter, and ids divisible
	// by SampleEvery are traced.
	SampleEvery int64
	// MaxTraces bounds the retained sampled chains (a ring: newest
	// overwrite oldest).
	MaxTraces int
	// SLOTargetNs is the latency objective: the p99 of per-shard
	// operation latency should stay at or below this.
	SLOTargetNs int64
	// SLOBudget is the error budget: the fraction of operations
	// allowed over the target before the budget is spent.
	SLOBudget float64
}

// DefaultConfig is the sink geometry `utlbsim serve` starts with:
// sixty 1-second windows, 1-in-256 request sampling, and a 2 ms p99
// objective with a 1% error budget.
func DefaultConfig(shards int) Config {
	return Config{
		Shards:      shards,
		WindowNs:    1_000_000_000,
		Windows:     60,
		SampleEvery: 256,
		MaxTraces:   64,
		SLOTargetNs: 2_000_000,
		SLOBudget:   0.01,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("telemetry: shard count %d not positive", c.Shards)
	}
	if c.WindowNs <= 0 {
		return fmt.Errorf("telemetry: window width %d ns not positive", c.WindowNs)
	}
	if c.Windows < 2 {
		return fmt.Errorf("telemetry: ring of %d windows too short (want >= 2)", c.Windows)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("telemetry: sample-every %d negative", c.SampleEvery)
	}
	if c.MaxTraces < 0 {
		return fmt.Errorf("telemetry: max traces %d negative", c.MaxTraces)
	}
	if c.SLOTargetNs <= 0 {
		return fmt.Errorf("telemetry: SLO target %d ns not positive", c.SLOTargetNs)
	}
	if c.SLOBudget <= 0 || c.SLOBudget > 1 {
		return fmt.Errorf("telemetry: SLO error budget %g not in (0, 1]", c.SLOBudget)
	}
	return nil
}

// totals is one cumulative (or per-window delta) counter set.
type totals struct {
	lookups, hits, misses int64
	inserts, evictions    int64
	invalidations         int64
	ops, slow             int64 // timed shard operations; over-target ones
	sumNs                 int64
}

func (t *totals) sub(a, b totals) {
	t.lookups = a.lookups - b.lookups
	t.hits = a.hits - b.hits
	t.misses = a.misses - b.misses
	t.inserts = a.inserts - b.inserts
	t.evictions = a.evictions - b.evictions
	t.invalidations = a.invalidations - b.invalidations
	t.ops = a.ops - b.ops
	t.slow = a.slow - b.slow
	t.sumNs = a.sumNs - b.sumNs
}

// shardTel is one shard's lock-free cumulative state: plain atomic
// counters plus a fixed-bucket latency histogram in the analyze.Digest
// bucket scheme. Everything here is written on the xlate hot path, so
// nothing allocates and nothing takes a lock.
type shardTel struct {
	lookups, hits, misses atomic.Int64
	inserts, evictions    atomic.Int64
	invalidations         atomic.Int64
	ops, slow             atomic.Int64
	sumNs, maxNs          atomic.Int64
	hist                  [analyze.DigestBuckets]atomic.Int64
}

// observe records one timed shard operation of durNs.
func (s *shardTel) observe(durNs, sloTargetNs int64) {
	if durNs < 0 {
		durNs = 0
	}
	s.ops.Add(1)
	s.sumNs.Add(durNs)
	s.hist[analyze.BucketIndex(durNs)].Add(1)
	if durNs > sloTargetNs {
		s.slow.Add(1)
	}
	for {
		m := s.maxNs.Load()
		if durNs <= m || s.maxNs.CompareAndSwap(m, durNs) {
			break
		}
	}
}

// window is one closed ring slot: the counter and histogram deltas
// that accrued while the window was current. Guarded by Sink.mu.
type window struct {
	num int64 // window number (start = num*WindowNs); -1 = empty
	totals
	hist [analyze.DigestBuckets]int64
}

// Sink is the live telemetry collector for one xlate service. The
// zero value is not usable; use New. A nil *Sink is the disabled
// state: the hot-path hooks (Now, BeginRequest and the Record*
// methods) return at once on a nil receiver, so xlate calls them
// unconditionally.
type Sink struct {
	cfg    Config
	clock  Clock
	baseNs int64 // clock reading at New; trace timestamps are relative to it

	shards []shardTel
	reqSeq atomic.Int64 // request ids, dense from 1 (drives sampling)
	curWin atomic.Int64 // window number the ring considers current

	mu       sync.Mutex // guards everything below
	ring     []window
	lastWin  int64  // == curWin, under mu (curWin is the lock-free mirror)
	lastTot  totals // cumulative totals at the last fold
	lastHist [analyze.DigestBuckets]int64
	traces   []traceChain // sampled request chains, a ring
	traceN   int64        // total chains ever retained
}

// traceChain is one retained sampled request: the request span plus
// its per-shard segments, already in obs.Event form.
type traceChain struct {
	id     int64
	events []obs.Event
}

// New returns a sink for cfg reading time from clock (WallClock{} for
// production, a ManualClock in tests).
func New(cfg Config, clock Clock) (*Sink, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("telemetry: nil clock")
	}
	now := clock.Now()
	t := &Sink{
		cfg:    cfg,
		clock:  clock,
		baseNs: now,
		shards: make([]shardTel, cfg.Shards),
		ring:   make([]window, cfg.Windows),
	}
	for i := range t.ring {
		t.ring[i].num = -1
	}
	w := now / cfg.WindowNs
	t.curWin.Store(w)
	t.lastWin = w
	return t, nil
}

// Config returns the sink configuration.
func (t *Sink) Config() Config { return t.cfg }

// Now reads the sink's clock (nil-safe: 0 on a nil sink).
func (t *Sink) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// --- hot path -------------------------------------------------------

// RecordLookups charges one timed lookup segment against shard si:
// n keys, hits of them resident, taking durNs. now is the clock at
// segment end (the caller already holds it; no extra clock read).
// A no-op on a nil sink.
func (t *Sink) RecordLookups(si int, n, hits, durNs, now int64) {
	if t == nil {
		return
	}
	t.maybeFold(now)
	s := &t.shards[si]
	s.lookups.Add(n)
	s.hits.Add(hits)
	s.misses.Add(n - hits)
	s.observe(durNs, t.cfg.SLOTargetNs)
}

// RecordInserts charges one timed insert segment against shard si.
// A no-op on a nil sink.
func (t *Sink) RecordInserts(si int, n, evictions, durNs, now int64) {
	if t == nil {
		return
	}
	t.maybeFold(now)
	s := &t.shards[si]
	s.inserts.Add(n)
	s.evictions.Add(evictions)
	s.observe(durNs, t.cfg.SLOTargetNs)
}

// RecordInvalidations charges n dropped translations against shard
// si. Invalidations are not timed (they are rare and administrative).
// A no-op on a nil sink.
func (t *Sink) RecordInvalidations(si int, n, now int64) {
	if t == nil {
		return
	}
	t.maybeFold(now)
	t.shards[si].invalidations.Add(n)
}

// maybeFold advances the window ring when now has crossed a window
// boundary. Record sites call it BEFORE touching their counters so a
// boundary-crossing operation is attributed to the window it happened
// in, not the one that just closed. The common case — still inside
// the current window — is one atomic load and a compare.
//
// The comparison is >, not !=: a wall clock stepping BACKWARDS past a
// boundary (NTP correction, VM migration) must be treated as
// still-in-the-current-window. With != every record during the
// stepped-back interval would take the fold lock only for foldLocked
// to clamp and return — a mutex storm on the hot path until the clock
// catches back up. Backwards records are attributed to the open
// window; the ring never moves backwards.
func (t *Sink) maybeFold(now int64) {
	if now/t.cfg.WindowNs > t.curWin.Load() {
		t.mu.Lock()
		t.foldLocked(now)
		t.mu.Unlock()
	}
}

// cumTotals sums the per-shard cumulative counters without the lock.
// Reads race benignly with hot-path writers: each counter is individually atomic
// and only ever grows, so a snapshot is a valid set of recent values.
func (t *Sink) cumTotals() totals {
	var c totals
	for i := range t.shards {
		s := &t.shards[i]
		c.lookups += s.lookups.Load()
		c.hits += s.hits.Load()
		c.misses += s.misses.Load()
		c.inserts += s.inserts.Load()
		c.evictions += s.evictions.Load()
		c.invalidations += s.invalidations.Load()
		c.ops += s.ops.Load()
		c.slow += s.slow.Load()
		c.sumNs += s.sumNs.Load()
	}
	return c
}

// foldLocked closes the current window: the cumulative deltas since
// the last fold are attributed to the window that was current, skipped
// windows (idle periods) are zeroed, and the ring advances to now's
// window. Integer math only; allocation-free.
func (t *Sink) foldLocked(now int64) {
	wNow := now / t.cfg.WindowNs
	if wNow <= t.lastWin {
		// Same window, or a wall clock stepping backwards: clamp. A
		// negative window delta must never reach the ring arithmetic
		// below — it would attribute deltas to a window slot that is
		// still live and re-zero slots the series already served.
		return
	}
	cur := t.cumTotals()
	slot := &t.ring[int(t.lastWin%int64(len(t.ring)))]
	slot.num = t.lastWin
	slot.totals.sub(cur, t.lastTot)
	for i := range slot.hist {
		var c int64
		for s := range t.shards {
			c += t.shards[s].hist[i].Load()
		}
		slot.hist[i] = c - t.lastHist[i]
		t.lastHist[i] = c
	}
	t.lastTot = cur
	// Windows nobody recorded into are explicitly zeroed so the series
	// shows idle time instead of stale data.
	for w := t.lastWin + 1; w < wNow && w-t.lastWin <= int64(len(t.ring)); w++ {
		empty := &t.ring[int(w%int64(len(t.ring)))]
		*empty = window{num: w}
	}
	t.lastWin = wNow
	t.curWin.Store(wNow)
}

// --- sampling -------------------------------------------------------

// BeginRequest allocates the next request id and reports whether this
// request is sampled for tracing. Deterministic: ids are a dense
// counter and every SampleEvery-th id is sampled, so the same request
// sequence always samples the same requests. With MaxTraces 0 no chain
// can be kept, so no request is sampled. A nil sink returns (0, false).
func (t *Sink) BeginRequest() (id int64, sampled bool) {
	if t == nil {
		return 0, false
	}
	id = t.reqSeq.Add(1)
	return id, t.cfg.SampleEvery > 0 && t.cfg.MaxTraces > 0 && id%t.cfg.SampleEvery == 0
}

// Trace accumulates one sampled request's event chain. It is built by
// a single goroutine (the request handler) and handed to the sink at
// FinishTrace; only sampled requests pay its allocations.
type Trace struct {
	id      int64
	startNs int64
	keys    int
	events  []obs.Event
}

// StartTrace begins the chain for sampled request id covering keys
// keys, starting at startNs.
func (t *Sink) StartTrace(id, startNs int64, keys int) *Trace {
	return &Trace{
		id:      id,
		startNs: startNs,
		keys:    keys,
		events:  make([]obs.Event, 0, 4),
	}
}

// Shard appends one per-shard segment: n keys against shard si,
// starting at startNs and taking durNs.
func (tr *Trace) Shard(t *Sink, si int, n, startNs, durNs int64) {
	tr.events = append(tr.events, obs.Event{
		Time: units.Time(startNs - t.baseNs),
		Dur:  units.Time(durNs),
		Kind: obs.KindXlateShard,
		Arg:  uint64(si),
		Arg2: uint64(n),
		Xfer: uint64(tr.id),
	})
}

// FinishTrace closes the chain with the request-level span and
// retains it in the sampled-trace ring. Only requests BeginRequest
// sampled reach it, so the ring has room for at least one chain.
func (t *Sink) FinishTrace(tr *Trace, endNs, hits int64) {
	tr.events = append(tr.events, obs.Event{
		Time: units.Time(tr.startNs - t.baseNs),
		Dur:  units.Time(endNs - tr.startNs),
		Kind: obs.KindXlateReq,
		Arg:  uint64(tr.keys),
		Arg2: uint64(hits),
		Xfer: uint64(tr.id),
	})
	t.mu.Lock()
	if len(t.traces) < t.cfg.MaxTraces {
		t.traces = append(t.traces, traceChain{id: tr.id, events: tr.events})
	} else {
		t.traces[int(t.traceN)%t.cfg.MaxTraces] = traceChain{id: tr.id, events: tr.events}
	}
	t.traceN++
	t.mu.Unlock()
}

// TraceRuns snapshots the retained sampled chains as one obs.Run in
// request-id order, ready for obs.WriteChromeTrace.
func (t *Sink) TraceRuns() []obs.Run {
	t.mu.Lock()
	chains := make([]traceChain, len(t.traces))
	copy(chains, t.traces)
	t.mu.Unlock()
	// The ring is insertion-ordered until it wraps; restore id order
	// with a simple insertion pass (MaxTraces is small).
	for i := 1; i < len(chains); i++ {
		for j := i; j > 0 && chains[j-1].id > chains[j].id; j-- {
			chains[j-1], chains[j] = chains[j], chains[j-1]
		}
	}
	var events []obs.Event
	for _, c := range chains {
		events = append(events, c.events...)
	}
	if events == nil {
		return nil
	}
	return []obs.Run{{Label: "xlate/live-sampled", Events: events}}
}

// SampledTraces reports how many chains have ever been retained.
func (t *Sink) SampledTraces() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceN
}
