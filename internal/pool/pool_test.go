package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGroupCollectsFirstErrorAndCancels(t *testing.T) {
	g, ctx := GroupWithContext(context.Background())
	g.SetLimit(1) // serialize: the error from task 1 must cancel ctx before task 3 starts
	boom := errors.New("boom")
	var skipped atomic.Bool
	g.Go(func() error { return nil })
	g.Go(func() error { return boom })
	g.Go(func() error {
		if ctx.Err() != nil {
			skipped.Store(true)
			return nil
		}
		return errors.New("later error should not win")
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want %v", err, boom)
	}
	if ctx.Err() == nil {
		t.Fatal("group context not canceled after Wait")
	}
	if !skipped.Load() {
		t.Fatal("task scheduled after the failure did not observe cancellation")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, boom) {
		t.Fatalf("context cause = %v, want %v", cause, boom)
	}
}

func TestGroupNoErrors(t *testing.T) {
	g, ctx := GroupWithContext(context.Background())
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		g.Go(func() error { n.Add(1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
	if n.Load() != 20 {
		t.Fatalf("ran %d tasks, want 20", n.Load())
	}
	if ctx.Err() == nil {
		t.Fatal("Wait must release the context")
	}
}

func TestGroupLimit(t *testing.T) {
	g, _ := GroupWithContext(context.Background())
	g.SetLimit(3)
	var cur, peak atomic.Int64
	for i := 0; i < 40; i++ {
		g.Go(func() error {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("observed %d concurrent tasks, limit 3", peak.Load())
	}
}

func identHash(k int) uint64 { return uint64(k) }

func TestShardedMapBasics(t *testing.T) {
	m := NewShardedMap[int, string](10, identHash)
	if m.NumShards() != 16 {
		t.Fatalf("NumShards() = %d, want 16 (rounded up)", m.NumShards())
	}
	if _, ok := m.Load(1); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Store(1, "one")
	m.Store(17, "seventeen") // same shard as 1
	if v, ok := m.Load(1); !ok || v != "one" {
		t.Fatalf("Load(1) = %q, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", m.Len())
	}
	seen := map[int]string{}
	m.Range(func(k int, v string) bool { seen[k] = v; return true })
	if len(seen) != 2 || seen[17] != "seventeen" {
		t.Fatalf("Range saw %v", seen)
	}
}

func TestShardedMapCap(t *testing.T) {
	m := NewShardedMap[int, int](4, identHash)
	const perShard = 2
	for i := 0; i < 1000; i++ {
		m.StoreCapped(i, i, perShard)
	}
	if max := m.NumShards() * perShard; m.Len() > max {
		t.Fatalf("Len() = %d exceeds cap %d", m.Len(), max)
	}
	// Re-storing an existing key must not evict it to make room for itself.
	m2 := NewShardedMap[int, int](1, identHash)
	m2.StoreCapped(5, 1, 1)
	m2.StoreCapped(5, 2, 1)
	if v, ok := m2.Load(5); !ok || v != 2 {
		t.Fatalf("overwrite under cap: got %d, %v", v, ok)
	}
}

func TestShardedMapConcurrent(t *testing.T) {
	m := NewShardedMap[int, int](8, identHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (base*31 + i) % 257
				m.StoreCapped(k, i, 4)
				if v, ok := m.Load(k); ok && v < 0 {
					t.Errorf("impossible value %d", v)
				}
				m.Len()
			}
		}(g)
	}
	wg.Wait()
}
