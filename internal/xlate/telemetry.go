package xlate

import (
	"fmt"

	"utlb/internal/telemetry"
)

// Live telemetry wiring. The service carries an optional
// *telemetry.Sink; nil means disabled. Every operation runs one code
// path whatever the state: the sink's hot-path hooks are nil-safe, so
// a service without a sink pays a nil-receiver check per hook and no
// allocation — the same zero-overhead-when-disabled contract the
// obs.Recorder hooks honour. With a sink, each per-shard segment is
// timed on the sink's clock and charged lock-free to that shard's
// counters, and every SampleEvery-th request additionally builds an
// obs event chain for the Chrome-trace export.

// AttachTelemetry enables live telemetry on the service. Must be
// called before the service takes traffic (the field is read without
// synchronisation on the hot path); the sink's shard count must match
// the service's.
func (s *Service) AttachTelemetry(t *telemetry.Sink) error {
	if t == nil {
		return fmt.Errorf("xlate: nil telemetry sink")
	}
	if got := t.Config().Shards; got != s.cfg.Shards {
		return fmt.Errorf("xlate: telemetry sink tracks %d shards, service has %d", got, s.cfg.Shards)
	}
	s.tel = t
	return nil
}

// Telemetry returns the attached sink, nil when telemetry is off.
func (s *Service) Telemetry() *telemetry.Sink { return s.tel }

// traceOne retains the chain of a sampled single-key request: one
// shard segment spanning the whole request.
func (s *Service) traceOne(id int64, si int, start, end, hits int64) {
	t := s.tel
	tr := t.StartTrace(id, start, 1)
	tr.Shard(t, si, 1, start, end-start)
	t.FinishTrace(tr, end, hits)
}
