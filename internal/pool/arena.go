package pool

import "unsafe"

// Slab is a chunked, append-only arena of T values. Alloc and AllocN hand
// out zeroed storage carved from large backing chunks, so the per-object
// cost the garbage collector sees is one chunk per growth step instead of
// one heap object per value. Reset rewinds the arena to empty while
// keeping every chunk for reuse, which is what makes per-query state
// allocation-free in the steady state: the first query grows the slab, and
// every later query of similar shape re-carves the same chunks.
//
// A Slab is not safe for concurrent use; give each goroutine its own (the
// engine keeps one arena per query, the sharded tier one arena pool per
// shard engine).
type Slab[T any] struct {
	chunks [][]T
	cur    int // index of the chunk Alloc carves from
	off    int // allocation offset within chunks[cur]
}

// slabMinChunk is the smallest chunk, in elements, a Slab grows by.
// Chunks double from here, so a slab reaches any footprint in
// logarithmically many allocations.
const slabMinChunk = 256

// AllocN carves a zeroed, contiguous []T of length n from the slab. The
// slice stays valid until Release; Reset recycles its storage, so callers
// must drop arena-carved slices when the owning arena resets. n <= 0
// returns nil.
func (s *Slab[T]) AllocN(n int) []T {
	if n <= 0 {
		return nil
	}
	for s.cur < len(s.chunks) {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			clear(out)
			return out
		}
		s.cur++
		s.off = 0
	}
	size := slabMinChunk
	if len(s.chunks) > 0 {
		size = 2 * len(s.chunks[len(s.chunks)-1])
	}
	if size < n {
		size = n
	}
	s.chunks = append(s.chunks, make([]T, size))
	s.cur = len(s.chunks) - 1
	s.off = n
	out := s.chunks[s.cur][0:n:n]
	return out // fresh chunk memory is already zero
}

// Alloc carves one zeroed T.
func (s *Slab[T]) Alloc() *T { return &s.AllocN(1)[0] }

// Reset rewinds the slab to empty, keeping every chunk for reuse. All
// previously carved values become invalid (their storage will be handed
// out again, zeroed).
func (s *Slab[T]) Reset() {
	s.cur = 0
	s.off = 0
}

// Release drops every chunk, returning the memory to the garbage
// collector. The slab is reusable and starts growing from scratch.
func (s *Slab[T]) Release() {
	s.chunks = nil
	s.cur = 0
	s.off = 0
}

// Bytes reports the slab's retained footprint: the capacity of every
// chunk, whether currently carved or not. Arena owners use it to decide
// whether a slab is worth keeping for the next query.
func (s *Slab[T]) Bytes() int64 {
	var t T
	var total int64
	for _, c := range s.chunks {
		total += int64(len(c)) * int64(unsafe.Sizeof(t))
	}
	return total
}
