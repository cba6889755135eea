package pool

import "sync"

// ShardedMap is a concurrent map whose keyspace is split across
// independently locked shards, so readers and writers on different shards
// never contend. It backs caches shared by many concurrent queries (the
// Dewey address cache of internal/drc).
type ShardedMap[K comparable, V any] struct {
	hash   func(K) uint64
	mask   uint64
	shards []mapShard[K, V]
}

type mapShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// NewShardedMap creates a map with at least nShards shards (rounded up to
// a power of two; nShards < 1 selects 16). hash spreads keys across
// shards; it must be deterministic.
func NewShardedMap[K comparable, V any](nShards int, hash func(K) uint64) *ShardedMap[K, V] {
	if nShards < 1 {
		nShards = 16
	}
	n := 1
	for n < nShards {
		n <<= 1
	}
	s := &ShardedMap[K, V]{hash: hash, mask: uint64(n - 1), shards: make([]mapShard[K, V], n)}
	for i := range s.shards {
		s.shards[i].m = make(map[K]V)
	}
	return s
}

// NumShards reports the shard count after rounding.
func (s *ShardedMap[K, V]) NumShards() int { return len(s.shards) }

func (s *ShardedMap[K, V]) shardOf(k K) *mapShard[K, V] {
	return &s.shards[s.hash(k)&s.mask]
}

// Load returns the value stored for k.
func (s *ShardedMap[K, V]) Load(k K) (V, bool) {
	sh := s.shardOf(k)
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

// Store sets the value for k.
func (s *ShardedMap[K, V]) Store(k K, v V) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// StoreCapped sets the value for k, first evicting an arbitrary entry if
// the target shard already holds maxPerShard entries (maxPerShard < 1 means
// uncapped). This is the cache idiom: the total map size stays below
// NumShards * maxPerShard without any global bookkeeping.
func (s *ShardedMap[K, V]) StoreCapped(k K, v V, maxPerShard int) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	if maxPerShard > 0 && len(sh.m) >= maxPerShard {
		if _, exists := sh.m[k]; !exists {
			for old := range sh.m {
				delete(sh.m, old)
				break
			}
		}
	}
	sh.m[k] = v
	sh.mu.Unlock()
}

// Len reports the total number of entries across all shards.
func (s *ShardedMap[K, V]) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Entries stored
// concurrently may or may not be observed; each shard is locked only while
// it is being walked.
func (s *ShardedMap[K, V]) Range(f func(K, V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			if !f(k, v) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}
