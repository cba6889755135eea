package core

import (
	"math/rand"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
)

// TestReleaseArenaCapsScratch: a released arena keeps a DRC scratch that a
// small probe warmed, and drops one that an outlier probe grew past
// maxRetainedScratchBytes, so pooled arenas do not pin the largest probe's
// radix workspace.
func TestReleaseArenaCapsScratch(t *testing.T) {
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: 8000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := memEngine(o, corpus.New())
	r := rand.New(rand.NewSource(7))
	doc := func(n int) []ontology.ConceptID {
		d := make([]ontology.ConceptID, n)
		for i := range d {
			d[i] = ontology.ConceptID(1 + r.Intn(o.NumConcepts()-1))
		}
		return d
	}
	probe := func(a *queryArena, size int) int64 {
		t.Helper()
		prep := drc.Prepare(o, doc(size), 0)
		if _, err := prep.DocDocScratch(doc(size), &a.scr); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d-concept probe: scratch %d bytes", size, a.scr.Bytes())
		return a.scr.Bytes()
	}

	small := new(queryArena)
	if b := probe(small, 3); b == 0 || b > maxRetainedScratchBytes {
		t.Fatalf("small probe retained %d bytes, want (0, %d]", b, maxRetainedScratchBytes)
	}
	e.releaseArena(small, 0)
	if small.scr.Bytes() == 0 {
		t.Fatal("release dropped a scratch below the cap")
	}

	large := new(queryArena)
	if b := probe(large, 400); b <= maxRetainedScratchBytes {
		t.Fatalf("large probe retained only %d bytes; the test needs one above %d", b, maxRetainedScratchBytes)
	}
	e.releaseArena(large, 0)
	if b := large.scr.Bytes(); b != 0 {
		t.Fatalf("release kept a %d-byte scratch above the cap", b)
	}
}
