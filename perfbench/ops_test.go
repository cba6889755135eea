package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

func smallRadio(t *testing.T) *dataset {
	t.Helper()
	ds, err := loadDataset(smallScale.OntologyConcepts, smallScale.Radio)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSameSeedSameStream(t *testing.T) {
	ds := smallRadio(t)
	appended := func(seed int64) []op {
		return zipfAppendOps(rand.New(rand.NewSource(seed)), ds, 400, appendFixture(ds, 10))
	}
	for name, gen := range map[string]func(int64) []op{
		"patient-cold":      func(seed int64) []op { return patientOps(seed, ds, 400) },
		"radio-cluster":     func(seed int64) []op { return clusterOps(seed, ds, 400) },
		"radio-zipf-append": appended,
	} {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestOpMixShares(t *testing.T) {
	ds := smallRadio(t)
	count := func(ops []op) (rds, sds, app, pages, verify int) {
		for _, o := range ops {
			switch o.kind {
			case opRDS:
				rds++
			case opSDS:
				sds++
			case opAppend:
				app++
			}
			if o.page {
				pages++
			}
			if o.verify {
				verify++
			}
		}
		return
	}
	// patient-cold: 3 RDS to 1 SDS in every block of 4.
	p := patientOps(3, ds, 4000)
	for lo := 0; lo < len(p); lo += 4 {
		if rds, sds, _, _, _ := count(p[lo : lo+4]); rds != 3 || sds != 1 {
			t.Fatalf("patient-cold block at %d has %d RDS, %d SDS", lo, rds, sds)
		}
	}
	if _, _, _, _, v := count(p); v != len(p)/patientVerifyEvery {
		t.Errorf("patient-cold verifies %d of %d ops", v, len(p))
	}
	// radio-cluster: 4 RDS to 1 SDS per block of 5, one RDS in three pages.
	c := clusterOps(3, ds, 3000)
	for lo := 0; lo < len(c); lo += 5 {
		if rds, sds, _, _, _ := count(c[lo : lo+5]); rds != 4 || sds != 1 {
			t.Fatalf("radio-cluster block at %d has %d RDS, %d SDS", lo, rds, sds)
		}
	}
	if rds, _, _, pages, _ := count(c); pages != rds/3 {
		t.Errorf("radio-cluster pages %d of %d RDS ops", pages, rds)
	}
	for _, o := range c {
		if o.page && o.kind != opRDS {
			t.Fatal("radio-cluster pages an SDS op")
		}
	}
	// radio-zipf-append: exactly every appendEvery-th op appends.
	z := zipfAppendOps(rand.New(rand.NewSource(3)), ds, 1000, appendFixture(ds, 20))
	for i, o := range z {
		if (o.kind == opAppend) != (i%appendEvery == appendEvery-1) {
			t.Fatalf("radio-zipf-append op %d has kind %s", i, o.kind)
		}
	}
}

// appendFixture draws n appendable documents from the dataset itself.
func appendFixture(ds *dataset, n int) [][]ontology.ConceptID {
	out := make([][]ontology.ConceptID, n)
	for i := range out {
		out[i] = ds.coll.Doc(corpus.DocID(i)).Concepts
	}
	return out
}

func TestZipfDrawIsSystematic(t *testing.T) {
	z := newZipfDraw(rand.New(rand.NewSource(1)), zipfS, 1000)
	for block := 0; block < 4; block++ {
		counts := map[int]int{}
		for i := 0; i < zipfBlock; i++ {
			counts[z.next()]++
		}
		// Rank 0 and the ranks past 100 get their expected share of every
		// block to within one draw.
		tail := 0
		for k, c := range counts {
			if k > 100 {
				tail += c
			}
		}
		for _, x := range []struct {
			name      string
			got, want float64
		}{
			{"rank 0", float64(counts[0]), zipfBlock * z.cdf[0]},
			{"ranks > 100", float64(tail), zipfBlock * (1 - z.cdf[100])},
		} {
			if math.Abs(x.got-x.want) > 1 {
				t.Errorf("block %d: %s drawn %v times, want %.1f±1", block, x.name, x.got, x.want)
			}
		}
	}
}
