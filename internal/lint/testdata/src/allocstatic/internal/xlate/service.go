// Package xlate shows the interprocedural half of allocstatic: the
// allocation lives in a helper, reached through the hot entry point.
package xlate

type Service struct {
	mask uint64
	pick picker
	log  Logger
}

// picker is package-local: its unexported method can be satisfied only
// by this package's types, so dispatch through it is followed.
type picker interface{ pick(k uint64) uint64 }

// Logger is exported: dispatch through it fans out module-wide and is
// not followed.
type Logger interface{ Log(k uint64) }

type labelPicker struct{}

// pick is reached from Insert through the picker interface.
func (labelPicker) pick(k uint64) uint64 {
	seen := map[uint64]bool{k: true}
	return uint64(len(seen))
}

type mapLogger struct{}

// Log allocates too, but only exported-interface dispatch reaches it.
func (mapLogger) Log(k uint64) {
	_ = map[uint64]bool{k: true}
}

// LookupMany is a hot entry point that delegates to gather.
func (s *Service) LookupMany(keys []uint64) []uint64 {
	return s.gather(keys)
}

// Insert is a hot entry point that dispatches through both interfaces.
func (s *Service) Insert(k uint64) uint64 {
	s.log.Log(k)
	return s.pick.pick(k)
}

// gather appends to an unpreallocated slice — the transitive
// positive, reported here but attributed to LookupMany's hot set.
func (s *Service) gather(keys []uint64) []uint64 {
	var out []uint64
	for _, k := range keys {
		out = append(out, k&s.mask)
	}
	return out
}

// GatherInto is the fixed variant: capacity decided by the caller.
func (s *Service) GatherInto(dst []uint64, keys []uint64) []uint64 {
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, k&s.mask)
	}
	return dst
}
