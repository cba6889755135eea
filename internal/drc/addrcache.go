package drc

import (
	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// AddressCache memoizes per-concept Dewey address lists. Enumerating a
// concept's addresses walks its entire ancestor subgraph (9.78 addresses of
// average length 14 in SNOMED-CT), and kNDS rebuilds a D-Radix per examined
// document over a corpus whose documents share many concepts — so the same
// enumerations recur constantly. The cache is safe for concurrent use:
// every in-flight query and every partitioned full-scan worker of an
// engine probes it, so it is sharded (pool.ShardedMap) rather than guarded
// by one RWMutex, and the cached slices are immutable after insertion
// (returned values must be treated as read-only). The cap is enforced per
// shard: beyond maxEntries/shards entries a shard evicts an arbitrary
// entry (the access pattern is corpus-frequency-skewed, so precise LRU
// buys little).
type AddressCache struct {
	o           *ontology.Ontology
	maxPaths    int
	maxPerShard int
	m           *pool.ShardedMap[ontology.ConceptID, []dewey.Path]
}

// addrCacheShards bounds lock contention across engine workers; shard
// count shrinks to maxEntries when the cap is smaller, so the total cap
// stays exact for tiny caches.
const addrCacheShards = 16

// NewAddressCache creates a cache over o. maxPaths mirrors the per-concept
// address cap of the calculators (<= 0: none); maxEntries bounds the cache
// (<= 0: 65536).
func NewAddressCache(o *ontology.Ontology, maxPaths, maxEntries int) *AddressCache {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	// Largest power of two <= min(addrCacheShards, maxEntries), so the
	// per-shard cap multiplies back to at most maxEntries (ShardedMap
	// rounds shard counts up to a power of two).
	shards := 1
	for shards*2 <= addrCacheShards && shards*2 <= maxEntries {
		shards *= 2
	}
	return &AddressCache{
		o:           o,
		maxPaths:    maxPaths,
		maxPerShard: maxEntries / shards,
		m: pool.NewShardedMap[ontology.ConceptID, []dewey.Path](
			shards, func(c ontology.ConceptID) uint64 { return uint64(c) }),
	}
}

// Addresses returns the memoized address list of c. The result is shared
// and must be treated as read-only. Concurrent misses on the same concept
// may enumerate twice; both enumerations are identical and either may win.
func (a *AddressCache) Addresses(c ontology.ConceptID) []dewey.Path {
	if p, ok := a.m.Load(c); ok {
		return p
	}
	p := a.o.PathAddressesLimit(c, a.maxPaths)
	a.m.StoreCapped(c, p, a.maxPerShard)
	return p
}

// Len reports the number of cached concepts.
func (a *AddressCache) Len() int { return a.m.Len() }
