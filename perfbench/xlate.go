package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"utlb/internal/parallel"
	"utlb/internal/serve"
	"utlb/internal/units"
	"utlb/internal/workload"
	"utlb/internal/xlate"
)

// Translation-service workload geometry. The service is the shipped
// configuration (xlate.DefaultConfig: 8 shards × 8192 entries). The
// xlate-hit key shape is the one BENCH_load.json records for
// cmd/utlbload: zipf with skew 1.3 over 4096 pages striped across 4
// processes, 64 keys per request.
const (
	xlateBatch  = 64 // keys per lookup request
	xlatePIDs   = 4  // pages map to keys as pid = 1 + page%xlatePIDs, vpn = page
	xlateRounds = 500
	xlateWarm   = 50
	zipfSkew    = 1.3
	// hitFootprint fits the service (1/16 of its capacity);
	// fillFootprint is four times its aggregate capacity.
	hitFootprint  = 4096
	fillFootprint = 4 * 8 * 8192
	// seqLen is each client's pre-generated page sequence, consumed
	// cyclically across passes.
	seqLen = 1 << 20
	// primeBatch is the insert batch used for priming (the server's
	// per-request limit).
	primeBatch = 4096
	// replayCap bounds how many traced requests are kept for the
	// in-process replays.
	replayCap = 4000
	reqHeader = "X-Perfbench-Req"
)

// xlateLoad drives the live translation service over loopback HTTP
// with width closed-loop clients: each sends a 64-key GET lookup,
// waits for the reply, and — on xlate-fill — POSTs a JSON insert of
// every missed key's xlate.SyntheticPFN frame before its next lookup.
type xlateLoad struct {
	seed int64
	fill bool

	srv    *serve.Server
	hs     *httptest.Server
	tr     *http.Transport
	client *http.Client
	conns  atomic.Int64 // connections the clients opened
	reqID  atomic.Int64

	seqs   [width][]int // per-client page sequences
	pos    [width]int   // next position in seqs
	prime  []xlate.Key
	base   xlate.Stats // service counters after setup
	sent   int64       // lookup keys sent since setup
	genNS  []float64
	replay []replayReq // client 0's traced requests
}

// replayReq is one recorded request, for the in-process replays.
type replayReq struct {
	insert bool
	keys   []xlate.Key
	url    string
	body   []byte
}

func newXlate(seed int64, fill bool) *xlateLoad { return &xlateLoad{seed: seed, fill: fill} }

func pageKey(p int) xlate.Key {
	return xlate.Key{PID: units.ProcID(1 + p%xlatePIDs), VPN: units.VPN(p)}
}

// clientPages is client c's page sequence: zipf over the footprint for
// xlate-hit, uniform for xlate-fill, deterministic in seed.
func clientPages(seed int64, fill bool, c, n int) []int {
	s := seed*7919 + int64(c)
	if fill {
		return workload.UniformPages(s, fillFootprint, n)
	}
	return workload.ZipfPages(s, hitFootprint, n, zipfSkew)
}

// primeKeys are the keys installed before measuring: the whole
// footprint for xlate-hit, one capacity's worth for xlate-fill.
func primeKeys(fill bool) []xlate.Key {
	n := hitFootprint
	if fill {
		n = xlate.DefaultConfig().Shards * xlate.DefaultConfig().Entries
	}
	keys := make([]xlate.Key, n)
	for i := range keys {
		keys[i] = pageKey(i)
	}
	return keys
}

// setup generates the client sequences, starts a fresh server
// (serve.New: the shipped configuration, live telemetry on) on a
// loopback listener, primes it over HTTP and warms each client's
// connection.
func (x *xlateLoad) setup(t *tally, sp *spans) error {
	x.close()
	var gen time.Duration
	for c := 0; c < width; c++ {
		t0 := time.Now()
		x.seqs[c] = clientPages(x.seed, x.fill, c, seqLen)
		t1 := time.Now()
		sp.add("workload.pages", 0, 0, t0, t1)
		gen += t1.Sub(t0)
		x.pos[c] = 0
	}
	x.genNS = append(x.genNS, float64(gen))

	x.srv = serve.New()
	h := x.srv.Handler()
	x.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqHeader)
		if id == "" || sp == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		req, _ := strconv.ParseInt(id, 10, 64)
		sp.add("serve.ServeHTTP", 0, req, t0, time.Now())
	}))
	// The keep-alive pool holds exactly one connection per client, so
	// no request pays a TCP handshake after warm-up.
	x.tr = &http.Transport{
		MaxIdleConns:        width,
		MaxIdleConnsPerHost: width,
		MaxConnsPerHost:     width,
		DisableCompression:  true,
	}
	x.client = &http.Client{Transport: x.tr}
	x.conns.Store(0)

	x.prime = primeKeys(x.fill)
	var c client
	c.init(x, 0, nil)
	for i := 0; i < len(x.prime); i += primeBatch {
		end := min(i+primeBatch, len(x.prime))
		if _, err := c.insert(x.prime[i:end]); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	warm := x.runClients(xlateWarm, nil)
	t.merge(warm.tally)
	x.base = x.srv.Xlate().Stats()
	x.sent = 0
	return nil
}

// clientResult is one client's share of a pass.
type clientResult struct {
	tally
	lookups int64
	reqs    []time.Duration // round latencies
	replay  []replayReq
}

// runClients runs every client for rounds lookup rounds, concurrently
// on the worker pool (width wide), and merges their results.
func (x *xlateLoad) runClients(rounds int, sp *spans) clientResult {
	res, _ := parallel.Map(width, func(ci int) (clientResult, error) {
		var c client
		c.init(x, ci, sp)
		return c.run(rounds), nil
	})
	var out clientResult
	for _, r := range res {
		out.merge(r.tally)
		out.lookups += r.lookups
		out.reqs = append(out.reqs, r.reqs...)
		out.replay = append(out.replay, r.replay...)
	}
	return out
}

func (x *xlateLoad) pass(t *tally, sp *spans) (passStats, error) {
	res := x.runClients(xlateRounds, sp)
	t.merge(res.tally)
	x.sent += res.lookups
	x.replay = append(x.replay, res.replay...)
	got := x.srv.Xlate().Stats().Total.Lookups - x.base.Total.Lookups
	t.check(got == x.sent, "xlate: server counted %d lookups, clients sent %d", got, x.sent)
	t.check(x.conns.Load() <= width, "xlate: %d connections opened for %d clients", x.conns.Load(), width)
	return passStats{reqs: res.reqs}, nil
}

// client is one closed-loop load client.
type client struct {
	x      *xlateLoad
	id     int
	sp     *spans
	ctx    context.Context
	url    []byte
	body   bytes.Buffer
	resp   lookupResponse
	missed []xlate.Key
	http   time.Duration // HTTP time of the current round
	res    clientResult
}

// lookupResponse mirrors serve's /api/xlate/lookup reply.
type lookupResponse struct {
	Lookups int64 `json:"lookups"`
	Results []struct {
		Hit bool   `json:"hit"`
		PFN uint64 `json:"pfn"`
	} `json:"results"`
}

func (c *client) init(x *xlateLoad, id int, sp *spans) {
	c.x, c.id, c.sp = x, id, sp
	// Count every new connection: a run that opens more than one per
	// client would be measuring handshakes.
	c.ctx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				x.conns.Add(1)
			}
		},
	})
}

// run issues rounds lookup rounds from the client's sequence. A
// round is one lookup batch plus, on xlate-fill, the insert of its
// misses: what a NIC waits for before its DMA. The client's request
// latency is a round's HTTP time, without the client's own encoding
// and checking.
func (c *client) run(rounds int) clientResult {
	x := c.x
	seq := x.seqs[c.id]
	keys := make([]xlate.Key, xlateBatch)
	for r := 0; r < rounds; r++ {
		for i := range keys {
			keys[i] = pageKey(seq[x.pos[c.id]])
			x.pos[c.id] = (x.pos[c.id] + 1) % len(seq)
		}
		c.http = 0
		missed, err := c.lookup(keys)
		if !c.res.check(err == nil, "xlate: lookup: %v", err) {
			continue
		}
		c.res.lookups += int64(len(keys))
		if x.fill && len(missed) > 0 {
			_, err := c.insert(missed)
			if !c.res.check(err == nil, "xlate: insert: %v", err) {
				continue
			}
		}
		c.res.reqs = append(c.res.reqs, c.http)
	}
	return c.res
}

// do sends one request and reads the whole reply into c.body.
func (c *client) do(req *http.Request, keys []xlate.Key) error {
	var id int64
	if c.sp != nil {
		id = c.x.reqID.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.x.client.Do(req)
	if err != nil {
		return err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	c.http += t1.Sub(t0)
	if c.sp != nil {
		c.sp.add("http."+req.Method, 0, id, t0, t1)
		if c.id == 0 && len(c.x.replay)+len(c.res.replay) < replayCap {
			rr := replayReq{insert: req.Method == http.MethodPost, keys: append([]xlate.Key(nil), keys...), url: req.URL.RequestURI()}
			if rr.insert {
				rr.body = insertBody(nil, keys)
			}
			c.res.replay = append(c.res.replay, rr)
		}
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return nil
}

// lookup sends one GET ?keys= batch, checks every hit's frame, and
// returns the keys that missed.
func (c *client) lookup(keys []xlate.Key) ([]xlate.Key, error) {
	c.url = append(c.url[:0], c.x.hs.URL...)
	c.url = append(c.url, "/api/xlate/lookup?keys="...)
	for i, k := range keys {
		if i > 0 {
			c.url = append(c.url, ',')
		}
		c.url = strconv.AppendUint(c.url, uint64(k.PID), 10)
		c.url = append(c.url, ':')
		c.url = strconv.AppendUint(c.url, uint64(k.VPN), 10)
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, string(c.url), nil)
	if err != nil {
		return nil, err
	}
	if err := c.do(req, keys); err != nil {
		return nil, err
	}
	c.resp.Results = c.resp.Results[:0]
	if err := json.Unmarshal(c.body.Bytes(), &c.resp); err != nil {
		return nil, err
	}
	if len(c.resp.Results) != len(keys) || c.resp.Lookups != int64(len(keys)) {
		return nil, fmt.Errorf("%d results for %d keys", len(c.resp.Results), len(keys))
	}
	c.missed = c.missed[:0]
	for i, r := range c.resp.Results {
		if !r.Hit {
			c.missed = append(c.missed, keys[i])
			continue
		}
		if want := xlate.SyntheticPFN(keys[i]); units.PFN(r.PFN) != want {
			return nil, fmt.Errorf("key %v: pfn %d, want %d", keys[i], r.PFN, want)
		}
	}
	return c.missed, nil
}

// insertBody encodes keys as a POST insert body with explicit frames.
func insertBody(dst []byte, keys []xlate.Key) []byte {
	dst = append(dst, `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"pid":`...)
		dst = strconv.AppendUint(dst, uint64(k.PID), 10)
		dst = append(dst, `,"vpn":`...)
		dst = strconv.AppendUint(dst, uint64(k.VPN), 10)
		dst = append(dst, `,"pfn":`...)
		dst = strconv.AppendUint(dst, uint64(xlate.SyntheticPFN(k)), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// insert POSTs keys with their synthetic frames and returns the
// evictions the server reported.
func (c *client) insert(keys []xlate.Key) (int, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.x.hs.URL+"/api/xlate/insert", bytes.NewReader(insertBody(nil, keys)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if err := c.do(req, keys); err != nil {
		return 0, err
	}
	var out struct{ Inserted, Evictions int }
	if err := json.Unmarshal(c.body.Bytes(), &out); err != nil {
		return 0, err
	}
	if out.Inserted != len(keys) {
		return 0, fmt.Errorf("inserted %d of %d keys", out.Inserted, len(keys))
	}
	return out.Evictions, nil
}

// layers reports the transport/handler split of the traced requests,
// the service counters, and the two in-process replays of client 0's
// traced requests: the bare xlate batches on a primed twin service
// (xlate.batch_us) and whole handler calls through httptest
// (serve.allocs_per_req).
func (x *xlateLoad) layers(t *tally, sp *spans, _ *attribution, m metrics) error {
	handler := map[int64]time.Duration{}
	var handlerUS []float64
	for _, s := range sp.prefixed("serve.ServeHTTP") {
		handler[s.Req] = s.dur()
		handlerUS = append(handlerUS, float64(s.dur())/1e3)
	}
	var transportUS []float64
	for _, s := range sp.prefixed("http.") {
		if h, ok := handler[s.Req]; ok {
			transportUS = append(transportUS, float64(s.dur()-h)/1e3)
		}
	}
	t.check(len(transportUS) > 0 && len(transportUS) == len(handler), "xlate: %d client spans matched %d handler spans", len(transportUS), len(handler))
	handlerMed := median(handlerUS)
	m.set("serve.handler_us", handlerMed, "us")
	m.set("transport.self_us", median(transportUS), "us")
	m.set("transport.conns_opened", float64(x.conns.Load()), "count")

	now := x.srv.Xlate().Stats()
	lookups := now.Total.Lookups - x.base.Total.Lookups
	m.set("xlate.hit_ratio", float64(now.Total.Hits-x.base.Total.Hits)/float64(lookups), "ratio")
	m.set("xlate.evictions", float64(now.Total.Evictions-x.base.Total.Evictions), "count")
	var maxShard int64
	for i, s := range now.PerShard {
		maxShard = max(maxShard, s.Lookups-x.base.PerShard[i].Lookups)
	}
	m.set("xlate.shard_skew", float64(maxShard)/(float64(lookups)/float64(len(now.PerShard))), "ratio")
	m.set("workload.gen_s", median(x.genNS)/1e9, "s")
	m.set("workload.records", float64(seqLen*width), "count")

	batchUS, err := x.replayBatches(sp)
	if err != nil {
		return err
	}
	m.set("xlate.batch_us", batchUS, "us")
	m.set("serve.self_us", handlerMed-batchUS, "us")
	allocs, err := x.replayHandler(t)
	if err != nil {
		return err
	}
	m.set("serve.allocs_per_req", allocs, "count")
	return nil
}

// twin returns a fresh server configured and primed like the live one.
func (x *xlateLoad) twin() *serve.Server {
	s := serve.New()
	pfns := make([]units.PFN, len(x.prime))
	for i, k := range x.prime {
		pfns[i] = xlate.SyntheticPFN(k)
	}
	s.Xlate().InsertMany(x.prime, pfns)
	return s
}

// replayBatches times client 0's traced batches on a twin service and
// returns the median batch time in microseconds.
func (x *xlateLoad) replayBatches(sp *spans) (float64, error) {
	if len(x.replay) == 0 {
		return 0, fmt.Errorf("xlate: no traced requests to replay")
	}
	svc := x.twin().Xlate()
	var out []xlate.Result
	var pfns []units.PFN
	us := make([]float64, 0, len(x.replay))
	for _, r := range x.replay {
		if r.insert {
			pfns = pfns[:0]
			for _, k := range r.keys {
				pfns = append(pfns, xlate.SyntheticPFN(k))
			}
			t0 := time.Now()
			svc.InsertMany(r.keys, pfns)
			t1 := time.Now()
			sp.add("xlate.InsertMany", 0, 0, t0, t1)
			us = append(us, float64(t1.Sub(t0))/1e3)
			continue
		}
		t0 := time.Now()
		out = svc.LookupMany(r.keys, out)
		t1 := time.Now()
		sp.add("xlate.LookupMany", 0, 0, t0, t1)
		us = append(us, float64(t1.Sub(t0))/1e3)
	}
	return median(us), nil
}

// replayHandler serves client 0's traced requests in process through a
// twin server's handler and returns heap allocations per request.
func (x *xlateLoad) replayHandler(t *tally) (float64, error) {
	h := x.twin().Handler()
	reqs := make([]*http.Request, len(x.replay))
	recs := make([]*httptest.ResponseRecorder, len(x.replay))
	for i, r := range x.replay {
		if r.insert {
			reqs[i] = httptest.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.body))
		} else {
			reqs[i] = httptest.NewRequest(http.MethodGet, r.url, nil)
		}
		recs[i] = httptest.NewRecorder()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&ms1)
	for i, rec := range recs {
		t.check(rec.Code == http.StatusOK, "xlate: replayed request %d: status %d", i, rec.Code)
	}
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(len(reqs)), nil
}

func (x *xlateLoad) close() {
	if x.tr != nil {
		x.tr.CloseIdleConnections()
	}
	if x.hs != nil {
		x.hs.Close()
	}
	x.tr, x.hs, x.client, x.srv = nil, nil, nil, nil
}
